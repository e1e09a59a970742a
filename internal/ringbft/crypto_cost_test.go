package ringbft

import (
	"strings"
	"sync"
	"testing"

	"ringbft/internal/crypto"
	"ringbft/internal/types"
)

// costAuth counts the Ed25519 work that reaches one replica's key ring:
// signs, verifies, and verifies per distinct (signer, tuple, signature).
type costAuth struct {
	crypto.Authenticator
	mu       sync.Mutex
	signs    int
	verifies int
	checked  map[string]int
}

func (a *costAuth) Sign(msg []byte) []byte {
	a.mu.Lock()
	a.signs++
	a.mu.Unlock()
	return a.Authenticator.Sign(msg)
}

func (a *costAuth) Verify(signer types.NodeID, msg, sig []byte) error {
	a.mu.Lock()
	a.verifies++
	a.checked[signer.String()+"|"+string(msg)+"|"+string(sig)]++
	a.mu.Unlock()
	return a.Authenticator.Verify(signer, msg, sig)
}

// newCostCluster builds a z-shard cluster of n replicas whose key rings
// count their Ed25519 work.
func newCostCluster(t *testing.T, z, n int) (*cluster, map[types.NodeID]*costAuth) {
	c := newCluster(t, z, n)
	costs := make(map[types.NodeID]*costAuth)
	c.wrapAuth = func(id types.NodeID, ring crypto.Authenticator) crypto.Authenticator {
		a := &costAuth{Authenticator: ring, checked: make(map[string]int)}
		costs[id] = a
		return a
	}
	for _, id := range types.SortedNodeKeys(c.replicas) {
		c.spawn(id)
	}
	return c, costs
}

func totals(costs map[types.NodeID]*costAuth) (signs, verifies int) {
	for _, a := range costs {
		signs += a.signs
		verifies += a.verifies
	}
	return signs, verifies
}

// TestCryptoCostSingleShardBatch: a fault-free single-shard batch needs
// one signed Commit per replica and one verify of each peer's Commit, so
// it costs at most n signs and n(n-1) verifies cluster-wide. Commits that
// arrive after quorum must neither be re-signed nor re-verified.
func TestCryptoCostSingleShardBatch(t *testing.T) {
	const z, n = 3, 4
	c, costs := newCostCluster(t, z, n)
	b := mkBatch(1, 1, z, []types.ShardID{1}, 2)
	c.submit(1, b)
	if got := c.responses(1, b.Digest()); got < c.cfg.F()+1 {
		t.Fatalf("client got %d responses, want >= %d", got, c.cfg.F()+1)
	}
	signs, verifies := totals(costs)
	if signs > n || verifies > n*(n-1) {
		t.Fatalf("one single-shard batch cost %d signs and %d verifies, want at most %d and %d",
			signs, verifies, n, n*(n-1))
	}
}

// TestCryptoCostCrossShardBatch: along a cross-shard ring rotation each
// replica checks each distinct signature — a Forward's own, or one inside
// a commit certificate carried by several Forward copies — at most once.
func TestCryptoCostCrossShardBatch(t *testing.T) {
	const z, n = 3, 4
	c, costs := newCostCluster(t, z, n)
	b := mkBatch(1, 1, z, []types.ShardID{0, 1, 2}, 3)
	c.submit(1, b)
	if got := c.responses(1, b.Digest()); got < c.cfg.F()+1 {
		t.Fatalf("client got %d responses, want >= %d", got, c.cfg.F()+1)
	}
	for _, id := range types.SortedNodeKeys(costs) {
		for key, k := range costs[id].checked {
			if k > 1 {
				signer, _, _ := strings.Cut(key, "|")
				t.Fatalf("replica %v verified one signature of %s %d times, want at most once", id, signer, k)
			}
		}
	}
}

// TestCryptoCostJunkCommits: Commits from a sender whose vote is already
// recorded have no effect, so a flood of them with junk signatures costs
// no Ed25519 work.
func TestCryptoCostJunkCommits(t *testing.T) {
	const z, n = 3, 4
	c, costs := newCostCluster(t, z, n)
	victim, sender := types.ReplicaNode(1, 3), types.ReplicaNode(1, 1)
	var recorded *types.Message
	// Keep the victim short of a commit quorum: of its peers' Commits only
	// the sender's gets through, so the entry stays open with that vote.
	c.drop = func(from, to types.NodeID, m *types.Message) bool {
		if to != victim || m.Type != types.MsgCommit {
			return false
		}
		if from == sender && recorded == nil {
			recorded = m
			return false
		}
		return true
	}
	b := mkBatch(1, 1, z, []types.ShardID{1}, 2)
	c.submit(1, b)
	if recorded == nil {
		t.Fatal("the sender's Commit never reached the victim")
	}
	if h := c.replicas[victim].Chain().Height(); h != 0 {
		t.Fatalf("victim committed (height %d) despite the dropped Commits", h)
	}
	before := costs[victim].verifies
	for i := 0; i < 100; i++ {
		junk := *recorded
		junk.Sig = make([]byte, len(recorded.Sig))
		junk.Sig[0], junk.Sig[1] = byte(i), 0xFF
		c.replicas[victim].HandleMessage(&junk)
	}
	c.pump()
	if got := costs[victim].verifies - before; got != 0 {
		t.Fatalf("100 junk Commits from a recorded voter cost %d Ed25519 verifies, want 0", got)
	}
}
