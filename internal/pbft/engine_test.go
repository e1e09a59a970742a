package pbft

import (
	"testing"
	"time"

	"ringbft/internal/crypto"
	"ringbft/internal/types"
)

// harness wires n engines together through a synchronous in-memory bus.
// Messages are queued and pumped to quiescence, which keeps tests
// deterministic without goroutines.
type harness struct {
	t       *testing.T
	n       int
	shard   types.ShardID
	engines []*Engine
	queue   []routed
	drop    func(from, to types.NodeID, m *types.Message) bool
	commits map[int][]commitRec // per-replica committed (seq, digest)
	views   map[int][]types.View
}

type routed struct {
	to types.NodeID
	m  *types.Message
}

type commitRec struct {
	seq    types.SeqNum
	digest types.Digest
	batch  *types.Batch
	cert   []types.Signed
}

func newHarness(t *testing.T, n int) *harness {
	t.Helper()
	h := &harness{t: t, n: n, shard: 0, commits: make(map[int][]commitRec), views: make(map[int][]types.View)}
	peers := make([]types.NodeID, n)
	for i := 0; i < n; i++ {
		peers[i] = types.ReplicaNode(0, i)
	}
	kg := crypto.NewKeygen(42)
	for _, p := range peers {
		kg.Register(p)
	}
	for i := 0; i < n; i++ {
		i := i
		ring, err := kg.Ring(peers[i])
		if err != nil {
			t.Fatal(err)
		}
		e := New(0, peers[i], peers, ring, Callbacks{
			Send: func(to types.NodeID, m *types.Message) {
				if h.drop != nil && h.drop(m.From, to, m) {
					return
				}
				h.queue = append(h.queue, routed{to, m})
			},
			Committed: func(seq types.SeqNum, b *types.Batch, cert []types.Signed) {
				h.commits[i] = append(h.commits[i], commitRec{seq, b.Digest(), b, cert})
			},
			ViewChanged: func(v types.View) {
				h.views[i] = append(h.views[i], v)
			},
		}, Options{})
		h.engines = append(h.engines, e)
	}
	return h
}

// pump delivers queued messages until quiescence.
func (h *harness) pump() {
	for len(h.queue) > 0 {
		q := h.queue
		h.queue = nil
		for _, r := range q {
			h.engines[r.to.Index].OnMessage(r.m)
		}
	}
}

func batchOf(seed uint64) *types.Batch {
	return &types.Batch{
		Txns:     []types.Txn{{ID: types.TxnID{Client: 1, Seq: seed}, Writes: []types.Key{types.Key(seed)}, Delta: 1}},
		Involved: []types.ShardID{0},
	}
}

func TestNormalCaseCommit(t *testing.T) {
	h := newHarness(t, 4)
	b := batchOf(1)
	seq, err := h.engines[0].Propose(b)
	if err != nil {
		t.Fatalf("propose: %v", err)
	}
	if seq != 1 {
		t.Fatalf("seq = %d, want 1", seq)
	}
	h.pump()
	for i := 0; i < 4; i++ {
		if len(h.commits[i]) != 1 {
			t.Fatalf("replica %d committed %d batches, want 1", i, len(h.commits[i]))
		}
		c := h.commits[i][0]
		if c.seq != 1 || c.digest != b.Digest() {
			t.Fatalf("replica %d committed wrong entry: %+v", i, c)
		}
		if len(c.cert) < h.engines[i].NF() {
			t.Fatalf("replica %d cert has %d sigs, want >= %d", i, len(c.cert), h.engines[i].NF())
		}
	}
}

func TestNonPrimaryCannotPropose(t *testing.T) {
	h := newHarness(t, 4)
	if _, err := h.engines[1].Propose(batchOf(1)); err == nil {
		t.Fatal("expected error proposing from non-primary")
	}
}

func TestPipelinedProposals(t *testing.T) {
	h := newHarness(t, 4)
	const k = 20
	digests := make([]types.Digest, k)
	for i := 0; i < k; i++ {
		b := batchOf(uint64(i + 1))
		digests[i] = b.Digest()
		if _, err := h.engines[0].Propose(b); err != nil {
			t.Fatalf("propose %d: %v", i, err)
		}
	}
	h.pump()
	for i := 0; i < 4; i++ {
		if len(h.commits[i]) != k {
			t.Fatalf("replica %d committed %d, want %d", i, len(h.commits[i]), k)
		}
		seen := make(map[types.SeqNum]types.Digest)
		for _, c := range h.commits[i] {
			seen[c.seq] = c.digest
		}
		for s := 1; s <= k; s++ {
			if seen[types.SeqNum(s)] != digests[s-1] {
				t.Fatalf("replica %d seq %d digest mismatch", i, s)
			}
		}
	}
}

// TestAgreementUnderPartition checks Proposition 6.1: with one replica cut
// off, the remaining nf still commit, and no two replicas commit different
// digests at the same sequence.
func TestAgreementUnderPartition(t *testing.T) {
	h := newHarness(t, 4)
	dead := types.ReplicaNode(0, 3)
	h.drop = func(from, to types.NodeID, m *types.Message) bool {
		return from == dead || to == dead
	}
	b := batchOf(7)
	if _, err := h.engines[0].Propose(b); err != nil {
		t.Fatal(err)
	}
	h.pump()
	for i := 0; i < 3; i++ {
		if len(h.commits[i]) != 1 {
			t.Fatalf("replica %d committed %d, want 1", i, len(h.commits[i]))
		}
	}
	if len(h.commits[3]) != 0 {
		t.Fatal("partitioned replica should not commit")
	}
}

func TestConflictingPrePrepareRejected(t *testing.T) {
	h := newHarness(t, 4)
	// Primary proposes batch A; a forged pre-prepare with batch B at the
	// same sequence must not displace it.
	a := batchOf(1)
	if _, err := h.engines[0].Propose(a); err != nil {
		t.Fatal(err)
	}
	h.pump()
	forged := &types.Message{
		Type: types.MsgPrePrepare, From: types.ReplicaNode(0, 0), Shard: 0,
		View: 0, Seq: 1, Digest: batchOf(2).Digest(), Batch: batchOf(2),
	}
	h.engines[1].OnMessage(forged) // bad MAC and conflicting: dropped
	h.pump()
	for i := 0; i < 4; i++ {
		if len(h.commits[i]) != 1 || h.commits[i][0].digest != a.Digest() {
			t.Fatalf("replica %d state corrupted by forged pre-prepare", i)
		}
	}
}

func TestVerifyCert(t *testing.T) {
	h := newHarness(t, 4)
	b := batchOf(3)
	if _, err := h.engines[0].Propose(b); err != nil {
		t.Fatal(err)
	}
	h.pump()
	cert := h.commits[1][0].cert
	auth := h.engines[2] // any ring works for verification
	if err := VerifyCert(authOf(t, auth), 0, b.Digest(), cert, 3); err != nil {
		t.Fatalf("valid cert rejected: %v", err)
	}
	// Tampered digest must fail.
	if err := VerifyCert(authOf(t, auth), 0, batchOf(4).Digest(), cert, 3); err == nil {
		t.Fatal("tampered cert accepted")
	}
	// Truncated cert must fail.
	if err := VerifyCert(authOf(t, auth), 0, b.Digest(), cert[:2], 3); err == nil {
		t.Fatal("truncated cert accepted")
	}
	// Duplicate signers must not double-count.
	dup := []types.Signed{cert[0], cert[0], cert[0]}
	if err := VerifyCert(authOf(t, auth), 0, b.Digest(), dup, 3); err == nil {
		t.Fatal("duplicate-signer cert accepted")
	}
}

func authOf(t *testing.T, e *Engine) *crypto.Verifier {
	t.Helper()
	return e.verifier
}

func TestViewChangeElectsNextPrimary(t *testing.T) {
	h := newHarness(t, 4)
	// Primary 0 is silent. Replicas 1..3 time out and start a view change.
	for i := 1; i < 4; i++ {
		h.engines[i].StartViewChange(1)
	}
	h.pump()
	for i := 1; i < 4; i++ {
		if got := h.engines[i].View(); got != 1 {
			t.Fatalf("replica %d view = %d, want 1", i, got)
		}
		if h.engines[i].InViewChange() {
			t.Fatalf("replica %d still in view change", i)
		}
	}
	// New primary is replica 1; it can propose and commit.
	if !h.engines[1].IsPrimary() {
		t.Fatal("replica 1 should be primary of view 1")
	}
	b := batchOf(9)
	if _, err := h.engines[1].Propose(b); err != nil {
		t.Fatal(err)
	}
	h.pump()
	for i := 1; i < 4; i++ {
		if len(h.commits[i]) != 1 {
			t.Fatalf("replica %d committed %d after view change, want 1", i, len(h.commits[i]))
		}
	}
}

// TestViewChangePreservesPrepared: a batch that prepared before the view
// change must commit (with the same digest) in the new view — the heart of
// PBFT safety across views.
func TestViewChangePreservesPrepared(t *testing.T) {
	h := newHarness(t, 4)
	b := batchOf(5)

	// Let the batch prepare everywhere but drop all Commit messages, so no
	// replica commits in view 0.
	h.drop = func(from, to types.NodeID, m *types.Message) bool {
		return m.Type == types.MsgCommit
	}
	if _, err := h.engines[0].Propose(b); err != nil {
		t.Fatal(err)
	}
	h.pump()
	for i := 0; i < 4; i++ {
		if len(h.commits[i]) != 0 {
			t.Fatalf("replica %d committed prematurely", i)
		}
	}

	// Heal the network and change view.
	h.drop = nil
	for i := 0; i < 4; i++ {
		h.engines[i].StartViewChange(1)
	}
	h.pump()
	for i := 0; i < 4; i++ {
		found := false
		for _, c := range h.commits[i] {
			if c.digest == b.Digest() {
				found = true
			}
		}
		if !found {
			t.Fatalf("replica %d lost prepared batch across view change", i)
		}
	}
}

func TestJoinRuleFPlus1(t *testing.T) {
	h := newHarness(t, 7) // f = 2
	// Only f+1 = 3 replicas time out; the join rule must pull the rest in.
	for i := 1; i <= 3; i++ {
		h.engines[i].StartViewChange(1)
	}
	h.pump()
	inNew := 0
	for i := 0; i < 7; i++ {
		if h.engines[i].View() == 1 {
			inNew++
		}
	}
	if inNew < h.engines[0].NF() {
		t.Fatalf("only %d replicas reached view 1, want >= %d", inNew, h.engines[0].NF())
	}
}

func TestCheckpointGarbageCollects(t *testing.T) {
	h := newHarness(t, 4)
	const k = 10
	for i := 0; i < k; i++ {
		if _, err := h.engines[0].Propose(batchOf(uint64(i + 1))); err != nil {
			t.Fatal(err)
		}
	}
	h.pump()
	state := types.Digest{1, 2, 3}
	for i := 0; i < 4; i++ {
		h.engines[i].MakeCheckpoint(types.SeqNum(k), state)
	}
	h.pump()
	for i := 0; i < 4; i++ {
		if got := h.engines[i].StableSeq(); got != k {
			t.Fatalf("replica %d stableSeq = %d, want %d", i, got, k)
		}
		if h.engines[i].LogSize() != 0 {
			t.Fatalf("replica %d log not garbage-collected: %d entries", i, h.engines[i].LogSize())
		}
	}
}

func TestTickEscalatesStalledViewChange(t *testing.T) {
	h := newHarness(t, 4)
	// Replica 2 starts a view change for view 1, but nobody else joins and
	// no NewView arrives. After the view timeout it must target view 2.
	e := h.engines[2]
	e.StartViewChange(1)
	e.Tick(time.Now().Add(time.Second))
	if e.vcTarget != 2 {
		t.Fatalf("vcTarget = %d, want 2", e.vcTarget)
	}
}

func TestWindowBoundsProposals(t *testing.T) {
	h := newHarness(t, 4)
	e := h.engines[0]
	e.window = 4
	for i := 0; i < 4; i++ {
		if _, err := e.Propose(batchOf(uint64(i))); err != nil {
			t.Fatalf("propose %d within window: %v", i, err)
		}
	}
	if _, err := e.Propose(batchOf(99)); err == nil {
		t.Fatal("proposal beyond window accepted")
	}
}

// TestViewChangeAfterCheckpoint is a regression test: the ViewChange
// signature must remain verifiable inside the NewView justification after
// the stable checkpoint has advanced past zero (the signed tuple covers the
// stable sequence).
func TestViewChangeAfterCheckpoint(t *testing.T) {
	h := newHarness(t, 4)
	const k = 10
	for i := 1; i <= k; i++ {
		if _, err := h.engines[0].Propose(batchOf(uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
	h.pump()
	state := types.Digest{9}
	for i := 0; i < 4; i++ {
		h.engines[i].MakeCheckpoint(k, state)
	}
	h.pump()
	if h.engines[2].StableSeq() != k {
		t.Fatalf("checkpoint did not stabilize")
	}
	// Now view-change: every replica must install view 1, not just the new
	// primary.
	for i := 1; i < 4; i++ {
		h.engines[i].StartViewChange(1)
	}
	h.pump()
	for i := 0; i < 4; i++ {
		if got := h.engines[i].View(); got != 1 {
			t.Fatalf("replica %d stuck in view %d after checkpointed view change", i, got)
		}
		if h.engines[i].InViewChange() {
			t.Fatalf("replica %d still in view change", i)
		}
	}
	// And the new view must make progress.
	if _, err := h.engines[1].Propose(batchOf(99)); err != nil {
		t.Fatal(err)
	}
	h.pump()
	for i := 0; i < 4; i++ {
		found := false
		for _, c := range h.commits[i] {
			if c.digest == batchOf(99).Digest() {
				found = true
			}
		}
		if !found {
			t.Fatalf("replica %d did not commit in the new view", i)
		}
	}
}

// TestReplyCommitReusesVoteSignature: a straggler catch-up Commit sent in
// the view the replica voted in carries the stored vote's signature, which
// is byte-identical to a fresh signature of the tuple; after a view change
// the reply is signed for the new view.
func TestReplyCommitReusesVoteSignature(t *testing.T) {
	h := newHarness(t, 4)
	if _, err := h.engines[0].Propose(batchOf(1)); err != nil {
		t.Fatal(err)
	}
	h.pump()
	e := h.engines[1]
	ent := e.log[1]
	if ent == nil || !ent.committed {
		t.Fatal("replica 1 did not commit seq 1")
	}
	reply := func(to int) *types.Message {
		t.Helper()
		h.queue = nil
		delete(ent.helped, h.engines[to].self) // the commit round may have helped it already
		e.replyCommit(h.engines[to].self, 1, ent)
		if len(h.queue) != 1 || h.queue[0].m.Type != types.MsgCommit {
			t.Fatalf("replyCommit sent %d messages, want one Commit", len(h.queue))
		}
		c := h.queue[0].m
		h.queue = nil
		if c.View != e.View() || c.Digest != ent.digest {
			t.Fatalf("reply is for view %d digest %x, want view %d digest %x", c.View, c.Digest, e.View(), ent.digest)
		}
		if fresh := crypto.SignMessage(e.auth, c); string(c.Sig) != string(fresh) {
			t.Fatal("reply signature differs from a fresh signature of its tuple")
		}
		return c
	}

	if c := reply(3); string(c.Sig) != string(ent.commits[e.self].sig) {
		t.Fatal("same-view reply does not carry the stored vote's signature")
	}

	for i := 1; i < 4; i++ {
		h.engines[i].StartViewChange(1)
	}
	h.pump()
	if e.View() != 1 || e.log[1] != ent || !ent.committed {
		t.Fatal("replica 1 did not move to view 1 with seq 1 still committed in its log")
	}
	if c := reply(3); string(c.Sig) == string(ent.commits[e.self].sig) {
		t.Fatal("reply after a view change reuses the old view's signature")
	}
}
