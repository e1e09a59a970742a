package main

import (
	"bytes"
	"crypto/sha256"
	"runtime/pprof"
	"testing"
	"time"
)

func TestModuleOf(t *testing.T) {
	cases := []struct {
		stack []string
		want  string
	}{
		{[]string{"crypto/ed25519.Verify", "ringbft/internal/crypto.(*KeyRing).Verify", "main.timedAuth.Verify", "ringbft/internal/pbft.(*Engine).OnMessage"}, "crypto"},
		{[]string{"encoding/gob.(*Encoder).Encode", "ringbft/internal/tcpnet.(*peer).write"}, "tcpnet"},
		{[]string{"ringbft/internal/types.SortedDigestKeys[...]"}, "types"},
		{[]string{"ringbft/internal/evidence.(*Log).Add"}, "other"},
		{[]string{"runtime.mallocgc", "main.(*client).launch"}, "bench"},
		{[]string{"runtime.gcBgMarkWorker"}, "runtime"},
	}
	for _, tc := range cases {
		if got := moduleOf(tc.stack); got != tc.want {
			t.Errorf("moduleOf(%v) = %q, want %q", tc.stack, got, tc.want)
		}
	}
}

var sink [32]byte

// TestCPUByModule parses a real CPU profile of benchmark code.
func TestCPUByModule(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	b := make([]byte, 1<<12)
	for t0 := time.Now(); time.Since(t0) < 300*time.Millisecond; {
		sink = sha256.Sum256(b)
	}
	pprof.StopCPUProfile()
	mods, err := cpuByModule(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if mods["bench"] < int64(100*time.Millisecond) {
		t.Fatalf("profile attributes %v to benchmark code, want most of 300ms: %v", time.Duration(mods["bench"]), mods)
	}
}
