package chaos

import (
	"bufio"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ringbft/internal/harness"
)

// Replay flags: any matrix failure prints the exact command that re-runs
// just that scenario (see Scenario.ReproCmd).
var (
	flagSeed   = flag.Int64("chaos.seed", 0, "replay the scenario with this seed (TestReplaySeed)")
	flagProto  = flag.String("chaos.proto", "ringbft", "protocol for TestReplaySeed")
	flagFault  = flag.String("chaos.fault", "partition-shard", "fault class for TestReplaySeed")
	flagShards = flag.Int("chaos.shards", 0, "shard count for TestReplaySeed (0 = default)")
	flagDepth  = flag.Int("chaos.depth", 0, "pipeline depth for TestReplaySeed (0 = legacy unbounded drain)")
	flagUpdate = flag.Bool("update", false, "rewrite testdata/matrix.golden from this run (TestChaosMatrix)")
)

// goldenPath records every matrix row's outcome. A change that claims to
// leave behaviour unchanged must leave every row as recorded; one that
// changes behaviour on purpose regenerates the file with
// `go test ./internal/chaos -run TestChaosMatrix -update`.
var goldenPath = filepath.Join("testdata", "matrix.golden")

// goldenRow renders the outcome of one scenario as recorded in goldenPath.
func goldenRow(res *RunResult) string {
	return fmt.Sprintf("fingerprint=%x committed=%d ticks=%d lastCommitTick=%d",
		sha256.Sum256([]byte(res.Fingerprint())), res.Committed, res.Ticks, res.LastCommitTick)
}

// readGolden parses goldenPath into scenario name -> row. A missing file
// reads as empty, so -update can create it.
func readGolden(t *testing.T) map[string]string {
	t.Helper()
	rows := make(map[string]string)
	f, err := os.Open(goldenPath)
	if os.IsNotExist(err) {
		return rows
	}
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, row, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("%s: malformed line %q", goldenPath, line)
		}
		rows[name] = row
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return rows
}

// writeGolden rewrites goldenPath with rows in matrix order.
func writeGolden(t *testing.T, matrix []Scenario, rows map[string]string) {
	t.Helper()
	var b strings.Builder
	b.WriteString("# TestChaosMatrix outcomes: scenario, SHA-256 of RunResult.Fingerprint(), counters.\n")
	b.WriteString("# Regenerate: go test ./internal/chaos -run TestChaosMatrix -update\n")
	for _, sc := range matrix {
		if row, ok := rows[sc.Name()]; ok {
			fmt.Fprintf(&b, "%s %s\n", sc.Name(), row)
		}
	}
	if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(goldenPath, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestChaosMatrix runs the full scenario matrix: every fault class against
// RingBFT plus the baseline subset, each seeded and fully deterministic.
// Every scenario must commit work, stay safe across all replicas, recover
// liveness after its last heal, and reproduce its row of goldenPath.
func TestChaosMatrix(t *testing.T) {
	matrix := Matrix()
	if len(matrix) < 20 {
		t.Fatalf("matrix has %d scenarios, want >= 20", len(matrix))
	}
	golden := readGolden(t)
	if *flagUpdate {
		defer writeGolden(t, matrix, golden)
	}
	for _, sc := range matrix {
		sc := sc
		// The whole matrix runs instrumented: phase tracing and metrics are
		// pure side effects, so every invariant must hold with them on, and
		// each scenario gains a per-phase stall attribution in its log line.
		sc.Instrument = true
		t.Run(sc.Name(), func(t *testing.T) {
			res, err := RunScenario(sc)
			if err != nil {
				t.Fatalf("%v\nreproduce with: %s", err, sc.ReproCmd())
			}
			if res.Failed() {
				t.Fatal(res.FailureReport())
			}
			if res.Committed == 0 {
				t.Fatalf("scenario %s committed nothing\nreproduce with: %s",
					sc.Name(), sc.ReproCmd())
			}
			if res.MetricsText == "" {
				t.Fatal("instrumented run produced no metrics snapshot")
			}
			t.Logf("committed=%d ticks=%d probeTicks=%d replicas=%d %s",
				res.Committed, res.Ticks, res.ProbeTicks, len(res.States),
				res.StallReport())
			row := goldenRow(res)
			if *flagUpdate {
				golden[sc.Name()] = row
				return
			}
			want, ok := golden[sc.Name()]
			if !ok {
				t.Fatalf("no row for %s in %s; regenerate it with -update", sc.Name(), goldenPath)
			}
			if row != want {
				t.Fatalf("outcome diverged from %s:\n  got  %s\n  want %s\nreproduce with: %s",
					goldenPath, row, want, sc.ReproCmd())
			}
		})
	}
}

// TestReplaySeed replays a single scenario from its printed seed — the
// reproduction entry point every failure message references.
func TestReplaySeed(t *testing.T) {
	if *flagSeed == 0 {
		t.Skip("pass -chaos.seed=N (with -chaos.proto / -chaos.fault) to replay a scenario")
	}
	sc := Scenario{
		Protocol:      harness.Protocol(*flagProto),
		Fault:         Fault(*flagFault),
		Seed:          *flagSeed,
		Shards:        *flagShards,
		PipelineDepth: *flagDepth,
	}
	res, err := RunScenario(sc)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("schedule: %v", res.Schedule.Events)
	t.Logf("fingerprint: %s", res.Fingerprint())
	if res.Failed() {
		t.Fatal(res.FailureReport())
	}
}

// TestSeedDeterminism: the same seed + schedule must yield identical
// committed block sequences, state digests, client commit orders, and
// counters across two runs — the property that makes `-chaos.seed=N`
// reproduce any failure exactly.
func TestSeedDeterminism(t *testing.T) {
	cases := []Scenario{
		{Protocol: harness.ProtoRingBFT, Fault: FaultPartitionShard, Seed: 11},
		{Protocol: harness.ProtoRingBFT, Fault: FaultLossStorm, Seed: 12},
		{Protocol: harness.ProtoRingBFT, Fault: FaultByzEquivocate, Seed: 13},
		{Protocol: harness.ProtoRingBFT, Fault: FaultWipeRejoin, Seed: 14},
		{Protocol: harness.ProtoAHL, Fault: FaultCrashRestart, Seed: 15},
		{Protocol: harness.ProtoSharper, Fault: FaultDelaySkew, Seed: 16},
		{Protocol: harness.ProtoRingBFT, Fault: FaultByzNewView, Seed: 17, Shards: 3},
		{Protocol: harness.ProtoRingBFT, Fault: FaultClientConflict, Seed: 18, Shards: 3},
	}
	for _, sc := range cases {
		sc := sc
		t.Run(sc.Name(), func(t *testing.T) {
			a, err := RunScenario(sc)
			if err != nil {
				t.Fatal(err)
			}
			b, err := RunScenario(sc)
			if err != nil {
				t.Fatal(err)
			}
			if fa, fb := a.Fingerprint(), b.Fingerprint(); fa != fb {
				t.Fatalf("two runs of %s diverged:\n  run1 %s\n  run2 %s",
					sc.Name(), fa, fb)
			}
			if a.Committed != b.Committed || a.LastCommitTick != b.LastCommitTick {
				t.Fatalf("counters diverged: committed %d vs %d, lastCommit %d vs %d",
					a.Committed, b.Committed, a.LastCommitTick, b.LastCommitTick)
			}
			// Third run with instrumentation on: tracing and metrics must be
			// pure side effects — the fingerprint stays byte-identical.
			ic := sc
			ic.Instrument = true
			i, err := RunScenario(ic)
			if err != nil {
				t.Fatal(err)
			}
			if fa, fi := a.Fingerprint(), i.Fingerprint(); fa != fi {
				t.Fatalf("instrumented run of %s diverged from bare run:\n  bare         %s\n  instrumented %s",
					sc.Name(), fa, fi)
			}
			if i.MetricsText == "" {
				t.Fatal("instrumented run produced no metrics snapshot")
			}
		})
	}
}

// TestScheduleDeterminism: schedules are pure functions of the scenario.
func TestScheduleDeterminism(t *testing.T) {
	for _, f := range Faults() {
		sc := Scenario{Protocol: harness.ProtoRingBFT, Fault: f, Seed: 42}
		a, b := BuildSchedule(sc), BuildSchedule(sc)
		if len(a.Events) != len(b.Events) || a.LastHeal != b.LastHeal {
			t.Fatalf("fault %s: schedule not deterministic", f)
		}
		for i := range a.Events {
			if a.Events[i] != b.Events[i] {
				t.Fatalf("fault %s event %d: %v vs %v", f, i, a.Events[i], b.Events[i])
			}
		}
		if f != FaultNone && a.LastHeal <= 0 {
			t.Fatalf("fault %s: schedule never heals", f)
		}
	}
}
