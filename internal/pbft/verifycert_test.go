package pbft

import (
	"fmt"
	"sync/atomic"
	"testing"

	"ringbft/internal/crypto"
	"ringbft/internal/types"
)

// certFixture builds a cluster of n registered replicas of shard 0 and a
// valid commit certificate of n signatures over digest d at (view 1, seq 7).
func certFixture(t testing.TB, n int) (*crypto.Keygen, []types.Signed, types.Digest) {
	t.Helper()
	kg := crypto.NewKeygen(31)
	ids := make([]types.NodeID, n)
	for i := range ids {
		ids[i] = types.ReplicaNode(0, i)
		kg.Register(ids[i])
	}
	d := types.Digest{4, 2}
	cert := make([]types.Signed, n)
	for i, id := range ids {
		ring, err := kg.Ring(id)
		if err != nil {
			t.Fatal(err)
		}
		s := types.Signed{From: id, Type: types.MsgCommit, Shard: 0, View: 1, Seq: 7, Digest: d}
		s.Sig = ring.Sign(s.SigBytes())
		cert[i] = s
	}
	return kg, cert, d
}

func fixtureRing(t testing.TB, kg *crypto.Keygen) *crypto.KeyRing {
	t.Helper()
	ring, err := kg.Ring(types.ReplicaNode(0, 0))
	if err != nil {
		t.Fatal(err)
	}
	return ring
}

// countingAuth counts the signature checks that reach the wrapped
// Authenticator: the Ed25519 work the verifier's cache did not absorb.
type countingAuth struct {
	crypto.Authenticator
	verifies atomic.Int64
}

func (c *countingAuth) Verify(signer types.NodeID, msg, sig []byte) error {
	c.verifies.Add(1)
	return c.Authenticator.Verify(signer, msg, sig)
}

// TestVerifyCertTamperTable runs the same adversarial table against the
// serial and the batched/pooled verifier: every tampered certificate must be
// rejected by both, and the valid one accepted by both.
func TestVerifyCertTamperTable(t *testing.T) {
	kg, cert, d := certFixture(t, 4)
	copyCert := func() []types.Signed {
		c := make([]types.Signed, len(cert))
		copy(c, cert)
		return c
	}
	cases := []struct {
		name string
		cert func() []types.Signed
		dig  types.Digest
		ok   bool
	}{
		{"valid", copyCert, d, true},
		{"valid with one junk entry", func() []types.Signed {
			c := copyCert()
			c[3].Sig = append([]byte(nil), c[3].Sig...)
			c[3].Sig[0] ^= 1
			return c
		}, d, true}, // 3 valid of 4 still meets quorum 3
		{"wrong digest expected", copyCert, types.Digest{0xFF}, false},
		{"flipped sig byte", func() []types.Signed {
			c := copyCert()
			for i := range c {
				c[i].Sig = append([]byte(nil), c[i].Sig...)
				c[i].Sig[20] ^= 1
			}
			return c
		}, d, false},
		{"entry digest swapped", func() []types.Signed {
			c := copyCert()
			c[0].Digest = types.Digest{1}
			c[1].Digest = types.Digest{1}
			return c
		}, d, false},
		{"duplicate signers", func() []types.Signed {
			return []types.Signed{cert[0], cert[0], cert[0], cert[0]}
		}, d, false},
		{"truncated below quorum", func() []types.Signed { return cert[:2] }, d, false},
		{"foreign shard member", func() []types.Signed {
			c := copyCert()
			for i := range c {
				c[i].From.Shard = 1
			}
			return c
		}, d, false},
		{"wrong type", func() []types.Signed {
			c := copyCert()
			for i := range c {
				c[i].Type = types.MsgPrepare
			}
			return c
		}, d, false},
		{"split views", func() []types.Signed {
			c := copyCert()
			c[0].View = 2
			c[1].View = 3
			return c
		}, d, false}, // only 2 entries left in the (1,7) group
	}
	ring := fixtureRing(t, kg)
	for _, workers := range []int{0, 4} {
		for _, tc := range cases {
			// A fresh verifier per case isolates verification from caching.
			err := VerifyCert(crypto.NewVerifier(ring, workers), 0, tc.dig, tc.cert(), 3)
			if tc.ok && err != nil {
				t.Errorf("workers=%d %s: valid cert rejected: %v", workers, tc.name, err)
			}
			if !tc.ok && err == nil {
				t.Errorf("workers=%d %s: tampered cert accepted", workers, tc.name)
			}
		}
	}
}

// TestVerifyCertCachePoisoning: a certificate for the same (shard, view,
// seq) whose content differs from a cached success must be re-verified and
// rejected — and failures must never populate the cache.
func TestVerifyCertCachePoisoning(t *testing.T) {
	kg, cert, d := certFixture(t, 4)
	ca := &countingAuth{Authenticator: fixtureRing(t, kg)}
	v := crypto.NewVerifier(ca, 0)
	verify := func(c []types.Signed) (error, int64) {
		before := ca.verifies.Load()
		err := VerifyCert(v, 0, d, c, 3)
		return err, ca.verifies.Load() - before
	}

	if err, n := verify(cert); err != nil || n != 3 {
		t.Fatalf("valid cert: err %v after %d Ed25519 checks, want nil after 3", err, n)
	}
	if err, n := verify(cert); err != nil || n != 0 {
		t.Fatalf("re-delivered cert: err %v after %d Ed25519 checks, want nil from the cache", err, n)
	}

	// Same slot, tampered content: every entry misses the cache and the
	// certificate is rejected, on every re-presentation.
	poisoned := make([]types.Signed, len(cert))
	copy(poisoned, cert)
	for i := range poisoned {
		poisoned[i].Sig = append([]byte(nil), cert[i].Sig...)
		poisoned[i].Sig[5] ^= 1
	}
	for round := 0; round < 2; round++ {
		if err, n := verify(poisoned); err == nil || n != 4 {
			t.Fatalf("round %d: tampered cert: err %v after %d Ed25519 checks, want rejection after 4", round, err, n)
		}
	}
	// Valid signatures presented under other signers miss the cache too.
	swapped := make([]types.Signed, len(cert))
	copy(swapped, cert)
	for i := range swapped {
		swapped[i].From = cert[(i+1)%len(cert)].From
	}
	if err, n := verify(swapped); err == nil || n != 4 {
		t.Fatalf("signer-swapped cert: err %v after %d Ed25519 checks, want rejection after 4", err, n)
	}
	// One tampered entry among cached ones: only it and the fourth
	// signature, which the first check stopped short of, reach Ed25519.
	mixed := make([]types.Signed, len(cert))
	copy(mixed, cert)
	mixed[0] = poisoned[0]
	if err, n := verify(mixed); err != nil || n != 2 {
		t.Fatalf("mixed cert: err %v after %d Ed25519 checks, want nil after 2", err, n)
	}
	if err, n := verify(cert); err != nil || n != 0 {
		t.Fatalf("original cert after poisoning attempts: err %v after %d Ed25519 checks, want nil from the cache", err, n)
	}
}

// BenchmarkVerifyCert measures commit-certificate verification at quorum
// sizes nf = 2, 4, 8 in three modes: serial and batched on a 4-worker pool,
// both on a fresh verifier per iteration so every signature costs real
// Ed25519 work, and every signature served from the verified-signature
// cache. Run with -benchmem.
func BenchmarkVerifyCert(b *testing.B) {
	for _, nf := range []int{2, 4, 8} {
		kg, cert, d := certFixture(b, nf)
		for _, mode := range []struct {
			name    string
			workers int
			cache   bool
		}{{"serial", 0, false}, {"workers4", 4, false}, {"cachehit", 0, true}} {
			b.Run(fmt.Sprintf("nf=%d/%s", nf, mode.name), func(b *testing.B) {
				ring := fixtureRing(b, kg)
				v := crypto.NewVerifier(ring, mode.workers)
				if err := VerifyCert(v, 0, d, cert, nf); err != nil {
					b.Fatal(err)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if !mode.cache {
						v = crypto.NewVerifier(ring, mode.workers)
					}
					if err := VerifyCert(v, 0, d, cert, nf); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
