package crypto

import (
	"crypto/ed25519"
	"encoding/binary"
	"sync"
	"sync/atomic"

	"ringbft/internal/types"
)

// sigCacheSize bounds the verified-signature cache of a Verifier. A
// signature comes back to a replica soon after its first check: the same
// Commit inside the certificates of several Forward copies, a Forward
// re-shared by a peer, a straggler's catch-up Commit. On the perfbench
// workloads (3 shards of 4 replicas, 2 vCPUs) every re-check landed within
// 93 successful checks of the first one (99.9% within 76), so 128 entries
// cover the working set in 20 KB per replica.
const sigCacheSize = 128

// sigKey is the exact bytes of one successful signature check: the
// signature, the signer (kind, shard, index) and the canonical tuple. Two
// checks share a key only if every byte they were asked to verify is
// equal. The signature leads so that comparing against an unrelated entry
// stops at its first, pseudo-random bytes.
type sigKey [ed25519.SignatureSize + 1 + 2*8 + types.SigBytesLen]byte

// Verifier wraps an Authenticator with the crypto fast path for signature
// checking (Section 3: authentication dominates replica CPU):
//
//   - a bounded cache of signature checks that already succeeded on this
//     node, so a Commit signature seen again inside a Forward certificate,
//     or a Forward re-delivered by a peer, costs no Ed25519 work, and
//   - a bounded worker pool that verifies the nf Ed25519 signatures of a
//     commit certificate or new-view justification concurrently
//     (VerifyWorkers knob; 0 or 1 = serial).
//
// Accept/reject decisions are identical to calling the wrapped
// Authenticator directly: only successes are cached, and the key is the
// exact bytes checked, so a tampered re-delivery can never alias a cached
// success. Safe for concurrent use.
type Verifier struct {
	Authenticator
	workers int
	sem     chan struct{} // bounds in-flight verification workers
	cache   bool          // false under NopAuth, whose checks are free

	mu   sync.Mutex
	seen []sigKey // FIFO ring of successes, grown lazily to sigCacheSize
	next int      // slot the next success is written to
}

// NewVerifier wraps auth with a batch verifier of the given worker-pool
// size (0 or 1 = serial) and a verified-signature cache.
func NewVerifier(auth Authenticator, workers int) *Verifier {
	if workers < 0 {
		workers = 0
	}
	_, nop := auth.(NopAuth)
	v := &Verifier{Authenticator: auth, workers: workers, cache: !nop}
	if workers > 1 {
		v.sem = make(chan struct{}, workers)
	}
	return v
}

// Verify checks signer's signature over msg. A check whose exact bytes
// already succeeded on this node is answered from the cache. A canonical
// tuple with an Ed25519-sized signature that passes is remembered,
// overwriting the oldest entry once the cache is full. Failures are never
// cached.
func (v *Verifier) Verify(signer types.NodeID, msg, sig []byte) error {
	if !v.cache || len(msg) != types.SigBytesLen || len(sig) != ed25519.SignatureSize {
		return v.Authenticator.Verify(signer, msg, sig)
	}
	var k sigKey
	n := copy(k[:], sig)
	k[n] = byte(signer.Kind)
	binary.BigEndian.PutUint64(k[n+1:], uint64(signer.Shard))
	binary.BigEndian.PutUint64(k[n+9:], uint64(signer.Index))
	copy(k[n+17:], msg)
	if v.cached(&k) {
		return nil
	}
	if err := v.Authenticator.Verify(signer, msg, sig); err != nil {
		return err
	}
	v.mu.Lock()
	if len(v.seen) < sigCacheSize {
		v.seen = append(v.seen, k)
	} else {
		v.seen[v.next] = k
	}
	v.next = (v.next + 1) % sigCacheSize
	v.mu.Unlock()
	return nil
}

// cached reports whether k is in the cache, searching newest first: most
// re-checks follow their first check closely.
func (v *Verifier) cached(k *sigKey) bool {
	v.mu.Lock()
	defer v.mu.Unlock()
	n := len(v.seen)
	for i := 1; i <= n; i++ {
		if v.seen[(v.next-i+n)%n] == *k {
			return true
		}
	}
	return false
}

// VerifyQuorum checks the signatures of entries and returns how many are
// valid, early-exiting at quorum. Callers are responsible for structural
// checks (tuple consistency, sender dedup, membership); this routine only
// spends the Ed25519 work, through the cache — serially, or on the worker
// pool when both the pool and the batch are big enough to pay for the
// goroutine handoff.
func (v *Verifier) VerifyQuorum(entries []*types.Signed, quorum int) int {
	if v.workers <= 1 || len(entries) < 2 {
		valid := 0
		var sb [types.SigBytesLen]byte
		for _, e := range entries {
			if v.Verify(e.From, e.AppendSigBytes(sb[:0]), e.Sig) == nil {
				valid++
				if valid >= quorum {
					break
				}
			}
		}
		return valid
	}
	workers := v.workers
	if workers > len(entries) {
		workers = len(entries)
	}
	var (
		wg    sync.WaitGroup
		next  atomic.Int64
		valid atomic.Int64
	)
	for w := 0; w < workers; w++ {
		v.sem <- struct{}{}
		wg.Add(1)
		go func() {
			defer func() { <-v.sem; wg.Done() }()
			var sb [types.SigBytesLen]byte
			for {
				i := int(next.Add(1)) - 1
				if i >= len(entries) || valid.Load() >= int64(quorum) {
					return
				}
				e := entries[i]
				if v.Verify(e.From, e.AppendSigBytes(sb[:0]), e.Sig) == nil {
					valid.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	n := int(valid.Load())
	if n > len(entries) {
		n = len(entries)
	}
	return n
}
