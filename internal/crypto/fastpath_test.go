package crypto

import (
	"crypto/hmac"
	"crypto/sha256"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"ringbft/internal/types"
)

// TestMACMatchesReferenceHMAC pins the cached-key/pooled-state fast path to
// the textbook construction: the tag must equal stdlib HMAC-SHA256 over the
// derived pairwise key, truncated to MACSize — for registered peers (cached
// key schedule) and unregistered ones (throwaway schedule) alike.
func TestMACMatchesReferenceHMAC(t *testing.T) {
	ra, _, a, b := twoRings(t)
	client := types.ClientNode(7) // never registered
	for _, peer := range []types.NodeID{b, client} {
		for _, size := range []int{0, 1, 63, 64, 65, 128, 4096} {
			msg := make([]byte, size)
			for i := range msg {
				msg[i] = byte(i * 7)
			}
			ref := hmac.New(sha256.New, ra.pairKey(a, peer))
			ref.Write(msg)
			want := ref.Sum(nil)[:MACSize]
			for round := 0; round < 2; round++ { // round 2 exercises the cache
				got := ra.MAC(peer, msg)
				if !hmac.Equal(got, want) {
					t.Fatalf("peer %v size %d round %d: fast-path MAC diverges from reference HMAC", peer, size, round)
				}
			}
		}
	}
	// Unregistered peers must not grow the cache.
	if _, cached := ra.macStates.Load(client); cached {
		t.Fatal("client key schedule cached: unbounded growth on long-lived replicas")
	}
	if _, cached := ra.macStates.Load(b); !cached {
		t.Fatal("registered peer key schedule not cached")
	}
}

// TestMACTamperTable flips bytes in every region of message and tag and
// asserts the cached-key, pooled-state verifier rejects each one.
func TestMACTamperTable(t *testing.T) {
	ra, rb, a, b := twoRings(t)
	msg := []byte("forward the batch with the commit certificate A")
	tag := ra.MAC(b, msg)
	if err := rb.VerifyMAC(a, msg, tag); err != nil {
		t.Fatalf("valid MAC rejected: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(msg, tag []byte) ([]byte, []byte)
	}{
		{"flip first msg byte", func(m, g []byte) ([]byte, []byte) { m[0] ^= 1; return m, g }},
		{"flip middle msg byte", func(m, g []byte) ([]byte, []byte) { m[len(m)/2] ^= 0x80; return m, g }},
		{"flip last msg byte", func(m, g []byte) ([]byte, []byte) { m[len(m)-1] ^= 1; return m, g }},
		{"truncate msg", func(m, g []byte) ([]byte, []byte) { return m[:len(m)-1], g }},
		{"extend msg", func(m, g []byte) ([]byte, []byte) { return append(m, 0), g }},
		{"flip first tag byte", func(m, g []byte) ([]byte, []byte) { g[0] ^= 1; return m, g }},
		{"flip last tag byte", func(m, g []byte) ([]byte, []byte) { g[len(g)-1] ^= 1; return m, g }},
		{"truncate tag", func(m, g []byte) ([]byte, []byte) { return m, g[:MACSize-1] }},
		{"empty tag", func(m, g []byte) ([]byte, []byte) { return m, nil }},
		{"wrong peer key", func(m, g []byte) ([]byte, []byte) { return m, ra.MAC(types.ReplicaNode(0, 0), m) }},
	}
	for _, tc := range cases {
		m := append([]byte(nil), msg...)
		g := append([]byte(nil), tag...)
		m2, g2 := tc.mutate(m, g)
		if err := rb.VerifyMAC(a, m2, g2); err == nil {
			t.Errorf("%s: tampered MAC accepted", tc.name)
		}
	}
}

// TestMACPooledStateConcurrency hammers one ring from many goroutines so a
// leaked or cross-contaminated pooled SHA-256 state would surface (also
// meaningful under -race).
func TestMACPooledStateConcurrency(t *testing.T) {
	ra, rb, a, b := twoRings(t)
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				msg := []byte(fmt.Sprintf("goroutine %d message %d", g, i))
				if err := rb.VerifyMAC(a, msg, ra.MAC(b, msg)); err != nil {
					errs <- fmt.Errorf("valid MAC rejected under concurrency: %w", err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestAppendMACAppends checks the zero-alloc variant extends dst in place.
func TestAppendMACAppends(t *testing.T) {
	ra, _, _, b := twoRings(t)
	msg := []byte("append")
	dst := []byte{0xAA, 0xBB}
	out := ra.AppendMAC(dst, b, msg)
	if len(out) != 2+MACSize || out[0] != 0xAA || out[1] != 0xBB {
		t.Fatalf("AppendMAC mangled dst prefix: %x", out)
	}
	if !hmac.Equal(out[2:], ra.MAC(b, msg)) {
		t.Fatal("AppendMAC tag differs from MAC")
	}
}

// TestKeygenRingSharesPubs: rings share one public-key map (the O(n²) copy
// fix) and the keygen seals against late registration.
func TestKeygenRingSharesPubs(t *testing.T) {
	kg := NewKeygen(5)
	a, b := types.ReplicaNode(0, 0), types.ReplicaNode(0, 1)
	kg.Register(a)
	kg.Register(b)
	ra, _ := kg.Ring(a)
	rb, _ := kg.Ring(b)
	// Same backing map, not copies.
	if fmt.Sprintf("%p", ra.pubs) != fmt.Sprintf("%p", rb.pubs) {
		t.Fatal("Ring still copies the public-key map per ring (O(n²) memory)")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Register after Ring did not panic; shared map would race")
		}
	}()
	kg.Register(types.ReplicaNode(0, 2))
}

func signedCommit(t testing.TB, kg *Keygen, from types.NodeID, shard types.ShardID, v types.View, seq types.SeqNum, d types.Digest) types.Signed {
	t.Helper()
	ring, err := kg.Ring(from)
	if err != nil {
		t.Fatal(err)
	}
	s := types.Signed{From: from, Type: types.MsgCommit, Shard: shard, View: v, Seq: seq, Digest: d}
	s.Sig = ring.Sign(s.SigBytes())
	return s
}

func benchVerifierSetup(t testing.TB, n int) (*Keygen, *Verifier, []types.Signed, types.Digest) {
	kg := NewKeygen(21)
	ids := make([]types.NodeID, n)
	for i := range ids {
		ids[i] = types.ReplicaNode(0, i)
		kg.Register(ids[i])
	}
	d := types.Digest{9, 9, 9}
	cert := make([]types.Signed, n)
	for i, id := range ids {
		cert[i] = signedCommit(t, kg, id, 0, 1, 7, d)
	}
	ring, err := kg.Ring(ids[0])
	if err != nil {
		t.Fatal(err)
	}
	return kg, NewVerifier(ring, 4), cert, d
}

// TestVerifyQuorumSerialParallelEquivalent: the worker pool must agree with
// serial verification on every mix of valid and tampered signatures.
func TestVerifyQuorumSerialParallelEquivalent(t *testing.T) {
	_, v, cert, _ := benchVerifierSetup(t, 7)
	serial := NewVerifier(v.Authenticator, 0)
	for tamper := 0; tamper < 1<<7; tamper++ {
		entries := make([]*types.Signed, len(cert))
		local := make([]types.Signed, len(cert))
		want := 0
		for i := range cert {
			local[i] = cert[i]
			if tamper&(1<<i) != 0 {
				local[i].Sig = append([]byte(nil), cert[i].Sig...)
				local[i].Sig[0] ^= 1
			} else {
				want++
			}
			entries[i] = &local[i]
		}
		// quorum above n so neither path can early-exit: full counts match.
		if got := v.VerifyQuorum(entries, len(cert)+1); got != want {
			t.Fatalf("parallel mask %07b: got %d valid, want %d", tamper, got, want)
		}
		if got := serial.VerifyQuorum(entries, len(cert)+1); got != want {
			t.Fatalf("serial mask %07b: got %d valid, want %d", tamper, got, want)
		}
	}
}

// countingAuth counts the signature checks that reach the wrapped
// Authenticator, i.e. the Ed25519 work a Verifier did not answer from its
// cache.
type countingAuth struct {
	Authenticator
	verifies atomic.Int64
}

func (c *countingAuth) Verify(signer types.NodeID, msg, sig []byte) error {
	c.verifies.Add(1)
	return c.Authenticator.Verify(signer, msg, sig)
}

func countingVerifier(t testing.TB, kg *Keygen, id types.NodeID) (*Verifier, *countingAuth) {
	t.Helper()
	ring, err := kg.Ring(id)
	if err != nil {
		t.Fatal(err)
	}
	ca := &countingAuth{Authenticator: ring}
	return NewVerifier(ca, 0), ca
}

// TestSigCacheKeyCoversContent: a check that differs from a cached success
// in any byte — a flipped signature bit, another signer, another tuple —
// misses the cache, reaches Ed25519 and is rejected. This is the property
// that makes caching sound.
func TestSigCacheKeyCoversContent(t *testing.T) {
	kg, _, cert, _ := benchVerifierSetup(t, 4)
	v, ca := countingVerifier(t, kg, cert[0].From)
	s := cert[1]
	for round := 0; round < 2; round++ {
		if err := v.Verify(s.From, s.SigBytes(), s.Sig); err != nil {
			t.Fatalf("round %d: valid signature rejected: %v", round, err)
		}
	}
	if n := ca.verifies.Load(); n != 1 {
		t.Fatalf("valid signature checked twice reached Ed25519 %d times, want 1", n)
	}
	flipped := append([]byte(nil), s.Sig...)
	flipped[10] ^= 1
	otherView := s
	otherView.View++
	mutations := []struct {
		name   string
		signer types.NodeID
		msg    []byte
		sig    []byte
	}{
		{"flipped sig bit", s.From, s.SigBytes(), flipped},
		{"different signer", cert[2].From, s.SigBytes(), s.Sig},
		{"different tuple", s.From, otherView.SigBytes(), s.Sig},
		{"short signature", s.From, s.SigBytes(), s.Sig[:len(s.Sig)-1]},
	}
	for _, m := range mutations {
		for round := 0; round < 2; round++ { // failures are never cached
			before := ca.verifies.Load()
			if err := v.Verify(m.signer, m.msg, m.sig); err == nil {
				t.Fatalf("%s (round %d): accepted — cache poisoning possible", m.name, round)
			}
			if ca.verifies.Load() != before+1 {
				t.Fatalf("%s (round %d): answered from the cache", m.name, round)
			}
		}
	}
	if len(v.seen) != 1 {
		t.Fatalf("cache holds %d entries after one success and only failures, want 1", len(v.seen))
	}
	before := ca.verifies.Load()
	if err := v.Verify(s.From, s.SigBytes(), s.Sig); err != nil || ca.verifies.Load() != before {
		t.Fatalf("original signature no longer served from the cache (err %v)", err)
	}
}

// TestSigCacheBoundedAndSuccessOnly: the cache evicts FIFO at its constant
// size (a hit does not refresh an entry), never records a failure, and is
// off under NopAuth.
func TestSigCacheBoundedAndSuccessOnly(t *testing.T) {
	kg := NewKeygen(22)
	id := types.ReplicaNode(0, 1)
	kg.Register(id)
	signer, err := kg.Ring(id)
	if err != nil {
		t.Fatal(err)
	}
	v, ca := countingVerifier(t, kg, id)
	tuples := make([][]byte, sigCacheSize+1)
	sigs := make([][]byte, sigCacheSize+1)
	for i := range tuples {
		tuples[i] = types.SigBytes(types.MsgCommit, 0, 1, types.SeqNum(i), types.Digest{7}, id)
		sigs[i] = signer.Sign(tuples[i])
	}
	check := func(i int, wantCached bool) {
		t.Helper()
		before := ca.verifies.Load()
		if err := v.Verify(id, tuples[i], sigs[i]); err != nil {
			t.Fatalf("entry %d: valid signature rejected: %v", i, err)
		}
		if cached := ca.verifies.Load() == before; cached != wantCached {
			t.Fatalf("entry %d: cached=%v, want %v", i, cached, wantCached)
		}
	}
	for i := 0; i < sigCacheSize; i++ {
		check(i, false)
	}
	check(0, true)
	check(sigCacheSize, false) // evicts entry 0 despite its recent hit
	if len(v.seen) != sigCacheSize {
		t.Fatalf("cache holds %d entries, want %d", len(v.seen), sigCacheSize)
	}
	check(1, true)
	check(sigCacheSize, true)
	check(0, false) // re-enters, evicting entry 1
	check(1, false)

	junk := append([]byte(nil), sigs[2]...)
	junk[0] ^= 1
	for round := 0; round < 2; round++ {
		if v.Verify(id, tuples[2], junk) == nil {
			t.Fatal("junk signature accepted")
		}
	}
	if len(v.seen) != sigCacheSize {
		t.Fatalf("failure changed the cache size to %d", len(v.seen))
	}

	nop := NewVerifier(NopAuth{}, 0)
	if nop.Verify(id, tuples[0], sigs[0]) != nil || nop.seen != nil {
		t.Fatal("NopAuth verifier cached a check")
	}
}
