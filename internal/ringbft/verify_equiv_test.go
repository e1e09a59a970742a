package ringbft

import (
	"testing"

	"ringbft/internal/crypto"
	"ringbft/internal/types"
)

// runVerifyWorkload drives one deterministic mixed workload (single-shard
// and cross-shard batches over overlapping keys) through a cluster, with
// real Ed25519 signatures behind the verified-signature cache or, when
// nop is set, with authentication off, and returns per-replica (block
// digest sequence, store digest) observations.
func runVerifyWorkload(t *testing.T, nop bool) (map[types.NodeID][]types.Digest, map[types.NodeID]types.Digest) {
	t.Helper()
	const z, n = 3, 4
	c := newCluster(t, z, n)
	if nop {
		c.wrapAuth = func(types.NodeID, crypto.Authenticator) crypto.Authenticator { return crypto.NopAuth{} }
		for _, id := range types.SortedNodeKeys(c.replicas) {
			c.spawn(id)
		}
	}
	var batches []*types.Batch
	for i := uint64(1); i <= 10; i++ {
		shards := []types.ShardID{types.ShardID(i % z)}
		switch i % 3 {
		case 0:
			shards = []types.ShardID{0, 1, 2}
		case 1:
			shards = []types.ShardID{types.ShardID(i % z), types.ShardID((i + 1) % z)}
			if shards[0] > shards[1] {
				shards[0], shards[1] = shards[1], shards[0]
			}
		}
		b := mkBatch(types.ClientID(i), i, z, shards, i%4)
		batches = append(batches, b)
		c.submit(types.ClientID(i), b)
	}
	for _, b := range batches {
		cid := types.ClientID(b.Txns[0].ID.Client)
		if got := c.responses(cid, b.Digest()); got < c.cfg.F()+1 {
			t.Fatalf("nop=%v: batch of client %d got %d responses", nop, cid, got)
		}
	}
	chains := make(map[types.NodeID][]types.Digest)
	stores := make(map[types.NodeID]types.Digest)
	for id, r := range c.replicas {
		for _, blk := range r.Chain().Blocks() {
			chains[id] = append(chains[id], blk.Digest)
		}
		stores[id] = r.Store().Digest()
	}
	return chains, stores
}

// TestPropertyVerifyFastPathEquivalence (acceptance bar of the crypto fast
// path): a run whose replicas verify certificates through the
// verified-signature cache commits exactly the same block sequences and
// reaches exactly the same state digests as a run that does no signature
// work at all — byte-identical protocol behavior, only the CPU cost
// differs.
func TestPropertyVerifyFastPathEquivalence(t *testing.T) {
	fastChains, fastStores := runVerifyWorkload(t, false)
	nopChains, nopStores := runVerifyWorkload(t, true)
	if len(fastChains) != len(nopChains) {
		t.Fatal("replica count mismatch")
	}
	for id, want := range nopChains {
		got := fastChains[id]
		if len(got) != len(want) {
			t.Fatalf("replica %v: %d blocks, unauthenticated run had %d", id, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("replica %v: block %d digest diverges from unauthenticated run", id, i)
			}
		}
		if fastStores[id] != nopStores[id] {
			t.Fatalf("replica %v: state digest diverges from unauthenticated run", id)
		}
	}
}
