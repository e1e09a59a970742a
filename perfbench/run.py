#!/usr/bin/env python3
"""Build and run the RingBFT benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload geo-open --seed 1 --seconds 20 --trace 0

The script builds the Go benchmark in perfbench/ against the program's
source one directory up, keeping the Go build cache, temporary files and
the binary under .bench_build/ in the repository root, then runs the
binary with the given arguments. Standard output is the binary's; its last
line is the JSON result. The exit code is the binary's, or 2 when the
program's source is missing or the build fails.
"""

import os
import shutil
import signal
import subprocess
import sys
import time


def run(args, **kw):
    """Run a child to completion and return its exit code.

    On SIGTERM or SIGINT the child is terminated, killed if it is still
    running 10 s later, and waited for; then this process exits with
    128 + the signal number. The handler only signals the child: waiting
    inside it would block on the lock the interrupted wait holds.
    """
    child = subprocess.Popen(args, **kw)
    caught = []

    def stop(signum, _frame):
        if not caught:
            caught.append((signum, time.monotonic()))
            child.terminate()

    old = {s: signal.signal(s, stop) for s in (signal.SIGTERM, signal.SIGINT)}
    try:
        while True:
            try:
                code = child.wait(timeout=0.2)
                break
            except subprocess.TimeoutExpired:
                if caught and time.monotonic() - caught[0][1] > 10:
                    child.kill()
    finally:
        for s, h in old.items():
            signal.signal(s, h)
    if caught:
        sys.exit(128 + caught[0][0])
    return code


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    if not (os.path.isfile(os.path.join(root, "go.mod"))
            and os.path.isdir(os.path.join(root, "internal", "ringbft"))):
        print("perfbench: the RingBFT source is not next to perfbench/", file=sys.stderr)
        return 2
    go = shutil.which("go")
    if go is None:
        print("perfbench: no go toolchain on PATH", file=sys.stderr)
        return 2

    build = os.path.join(root, ".bench_build")
    tmp = os.path.join(build, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(build, "gocache"),
        "GOPATH": os.path.join(build, "gopath"),
        "GOMODCACHE": os.path.join(build, "gopath", "pkg", "mod"),
        "GOTMPDIR": tmp,
        "TMPDIR": tmp,
        "GOENV": "off",
        "GOFLAGS": "-mod=readonly",
        "GOPROXY": "off",
        "GOSUMDB": "off",
        "GOTOOLCHAIN": "local",
        "GOWORK": "off",
        "CGO_ENABLED": "0",
    })
    binary = os.path.join(build, "perfbench")
    if run([go, "build", "-o", binary, "."], cwd=here, env=env,
           stdout=sys.stderr, stderr=sys.stderr) != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2

    args = [binary, "--workdir", os.path.join(build, "work")] + sys.argv[1:]
    return run(args, cwd=root, env=env)


if __name__ == "__main__":
    sys.exit(main())
