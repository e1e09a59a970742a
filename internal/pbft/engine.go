// Package pbft implements the intra-shard Practical Byzantine Fault
// Tolerance engine (Castro & Liskov) that RingBFT runs inside every shard
// (Section 4.1), including batching, checkpoints, and view change. The
// engine is a pure state machine: the hosting replica's event loop feeds it
// messages and timer ticks, and it emits messages through a send callback
// and consensus results through a committed callback. This is what makes
// RingBFT a *meta* protocol (goal G2): the ring layer only consumes the
// engine's commit certificates and never looks inside the phases.
//
// Message authentication follows the paper's split (Section 3): PrePrepare
// and Prepare carry pairwise MACs; Commit, Checkpoint, ViewChange, and
// NewView carry Ed25519 signatures, because nf signed Commit messages form
// the transferable commit certificate A that Forward messages present to the
// next shard (Fig 5 line 16).
package pbft

import (
	"fmt"
	"time"

	"ringbft/internal/crypto"
	"ringbft/internal/trace"
	"ringbft/internal/types"
)

// Callbacks connect the engine to its hosting replica.
type Callbacks struct {
	// Send transmits a message to one peer. Must never block.
	Send func(to types.NodeID, m *types.Message)
	// Committed fires exactly once per sequence number when the batch at
	// that sequence gathers nf Commit messages. Calls may arrive out of
	// sequence order: RingBFT's lock manager (π, k_max) restores order
	// where it matters (Fig 5 lines 17-28). cert holds the nf signed
	// Commit tuples proving the decision.
	Committed func(seq types.SeqNum, batch *types.Batch, cert []types.Signed)
	// ViewChanged fires when the replica installs a new view.
	ViewChanged func(v types.View)
	// Stabilized fires when a checkpoint becomes stable through nf matching
	// signed Checkpoint messages, with the quorum's agreed state digest.
	// The durability layer snapshots on it; the host also uses it to detect
	// that it has fallen behind (the checkpoint is proof the shard
	// progressed to seq whether or not this replica kept up). It does not
	// fire for watermark advances learned indirectly through view-change
	// messages, which carry no checkpoint quorum.
	Stabilized func(seq types.SeqNum, digest types.Digest)
	// Justify, when non-nil, gates PrePrepare acceptance on host-level
	// evidence for the batch. An unjustified proposal is parked — not
	// prepared — until ReplayParked is called after the evidence arrives.
	// RingBFT uses it to refuse cross-shard proposals at non-initiator
	// shards that no accepted Forward vouches for: a Byzantine primary can
	// otherwise commit a fabricated batch variant with its own implicit
	// vote plus f honest backups, poisoning the shard's lock table with a
	// transaction no other shard will ever execute (found by
	// internal/chaos, byz-equivocate schedules).
	Justify func(batch *types.Batch) bool
	// Justification, when non-nil, returns the transferable certificate
	// that entitles batch to be proposed at this shard (for RingBFT, the
	// previous shard's nf-signed commit certificate carried by Forward; for
	// AHL, the committee's AHLPrepare certificate). The engine attaches it
	// to PreparedProofs in ViewChange P sets and NewView re-proposals so a
	// receiver that has not locally accepted the certificate can still
	// verify the re-proposal instead of parking it forever. Nil or empty
	// for batches that need no justification.
	Justification func(batch *types.Batch) []types.Signed
	// VerifyJustification, when non-nil, checks a carried justification for
	// a batch the local Justify gate rejects. A NewView whose re-proposal
	// fails both gates is rejected wholesale — without this check a
	// Byzantine new primary injects an unjustified batch through the
	// re-proposal path that Justify blocks on the normal path.
	VerifyJustification func(batch *types.Batch, justification []types.Signed) bool
	// Equivocation, when non-nil, fires when this replica holds verifiable
	// proof that the primary proposed two different digests at one
	// (view, seq): either a directly conflicting PrePrepare pair, or the
	// accepted PrePrepare plus the first of f+1 Prepares from distinct
	// senders for a different digest (at least one of f+1 distinct senders
	// is honest and echoes what the primary sent it, so accusing the
	// primary is sound). Both messages are MAC-authenticated to this
	// replica; the host records them as evidence.
	Equivocation func(first, second *types.Message)
	// UnjustifiedNewView, when non-nil, fires when a NewView is rejected
	// because re-proposal p carries no valid justification; m is the
	// offending signed NewView.
	UnjustifiedNewView func(m *types.Message, p types.PreparedProof)
}

// commitVote is one replica's signed Commit for an entry, tagged with the
// view and digest it voted for.
type commitVote struct {
	view   types.View
	digest types.Digest
	sig    []byte
}

// entry is one slot of the consensus log. Prepare and Commit votes are
// tagged with the digest they were cast for: votes can arrive before the
// PrePrepare fixes the entry's digest, and counting digest-blind buffered
// votes toward whatever digest lands later lets an equivocating primary
// manufacture conflicting prepared states from honest votes (found by
// internal/chaos, byz-equivocate schedules).
type entry struct {
	view        types.View
	digest      types.Digest
	batch       *types.Batch
	preprepared bool
	prepares    map[types.NodeID]types.Digest
	commits     map[types.NodeID]commitVote
	prepared    bool
	committed   bool
	firstSeen   time.Time
	// helped tracks the view in which a straggler catch-up Commit was last
	// re-sent per peer (see replyCommit).
	helped map[types.NodeID]types.View
	// ppMsg retains the accepted PrePrepare so it can be paired with a
	// conflicting message as equivocation evidence; conflicts collects the
	// first Prepare per sender whose digest contradicts it, and accused
	// latches once the f+1 threshold fired the Equivocation callback.
	ppMsg     *types.Message
	conflicts map[types.NodeID]*types.Message
	accused   bool
}

// Engine is one replica's PBFT state machine for one shard. Not safe for
// concurrent use: exactly one goroutine (the replica event loop) may call
// its methods.
type Engine struct {
	shard    types.ShardID
	self     types.NodeID
	peers    []types.NodeID // all replicas of the shard, index i = replica i
	n, f     int
	nf       int
	auth     crypto.Authenticator
	verifier *crypto.Verifier
	cb       Callbacks
	now      func() time.Time
	onPhase  func(seq types.SeqNum, phase trace.Phase, at time.Time)

	view    types.View
	nextSeq types.SeqNum
	log     map[types.SeqNum]*entry

	stableSeq   types.SeqNum
	window      types.SeqNum
	checkpoints map[types.SeqNum]map[types.NodeID]cpVote

	// future stashes normal-case messages that arrived for a view we have
	// not installed yet (e.g. a PrePrepare racing ahead of its NewView);
	// they are replayed after the view installs. Bounded to keep Byzantine
	// senders from ballooning memory.
	future []*types.Message
	// parked stashes PrePrepares the Justify callback rejected (typically a
	// legitimate proposal racing ahead of this replica's Forward quorum);
	// the host replays them via ReplayParked once justification lands.
	// Bounded like future.
	parked []*types.Message

	// View-change state.
	inViewChange bool
	vcTarget     types.View
	vcStarted    time.Time
	vcTimeout    time.Duration
	vcMsgs       map[types.View]map[types.NodeID]*types.Message
	vcVotes      map[types.View]map[types.NodeID]struct{} // for f+1 join rule
}

// Options tunes an Engine.
type Options struct {
	Window      types.SeqNum  // log watermark window (default 512)
	ViewTimeout time.Duration // new-view escalation timeout (default 250ms)
	Clock       func() time.Time
	// Verifier is the host's batched signature verifier; sharing the host's
	// instance shares its worker pool and verified-signature cache. Nil
	// constructs a private serial verifier.
	Verifier *crypto.Verifier
	// OnPhase, when set, observes lifecycle transitions: PrePrepare
	// acceptance, the prepared and committed predicates, and view-change
	// entry. Timestamps come from the engine clock, so deterministic hosts
	// see virtual time. The callback must not re-enter the engine.
	OnPhase func(seq types.SeqNum, phase trace.Phase, at time.Time)
}

// New creates an engine for replica self of a shard whose members are peers
// (peers[i] must be replica index i; self must appear in peers).
func New(shard types.ShardID, self types.NodeID, peers []types.NodeID, auth crypto.Authenticator, cb Callbacks, opts Options) *Engine {
	if opts.Window == 0 {
		opts.Window = 512
	}
	if opts.ViewTimeout == 0 {
		opts.ViewTimeout = 250 * time.Millisecond
	}
	if opts.Clock == nil {
		opts.Clock = time.Now
	}
	if opts.Verifier == nil {
		opts.Verifier = crypto.NewVerifier(auth, 0)
	} else if opts.Verifier.Authenticator != auth {
		// Certificate checks and per-message checks must share key material;
		// a verifier wrapping different keys would split-brain the engine.
		panic("pbft: Options.Verifier wraps a different Authenticator than auth")
	}
	n := len(peers)
	f := (n - 1) / 3
	return &Engine{
		shard: shard,
		self:  self,
		peers: peers,
		n:     n,
		f:     f,
		nf:    n - f,
		// auth comes from the verifier so certificate checks and per-message
		// checks can never disagree on key material.
		auth:        opts.Verifier.Authenticator,
		verifier:    opts.Verifier,
		cb:          cb,
		now:         opts.Clock,
		onPhase:     opts.OnPhase,
		nextSeq:     1,
		log:         make(map[types.SeqNum]*entry),
		window:      opts.Window,
		vcTimeout:   opts.ViewTimeout,
		checkpoints: make(map[types.SeqNum]map[types.NodeID]cpVote),
		vcMsgs:      make(map[types.View]map[types.NodeID]*types.Message),
		vcVotes:     make(map[types.View]map[types.NodeID]struct{}),
	}
}

// observe reports a lifecycle transition to the host's tracer, stamped
// with the engine clock.
func (e *Engine) observe(seq types.SeqNum, phase trace.Phase) {
	if e.onPhase != nil {
		e.onPhase(seq, phase, e.now())
	}
}

// View returns the current view.
func (e *Engine) View() types.View { return e.view }

// Primary returns the primary of view v: replica v mod n.
func (e *Engine) Primary(v types.View) types.NodeID { return e.peers[int(uint64(v)%uint64(e.n))] }

// IsPrimary reports whether this replica is the primary of the current view.
func (e *Engine) IsPrimary() bool { return e.Primary(e.view) == e.self }

// InViewChange reports whether a view change is in progress.
func (e *Engine) InViewChange() bool { return e.inViewChange }

// StableSeq returns the last stable checkpoint sequence.
func (e *Engine) StableSeq() types.SeqNum { return e.stableSeq }

// NF returns the quorum size n-f.
func (e *Engine) NF() int { return e.nf }

// F returns the per-shard fault bound.
func (e *Engine) F() int { return e.f }

// Quorum reports whether the engine has committed seq.
func (e *Engine) Quorum(seq types.SeqNum) bool {
	ent, ok := e.log[seq]
	return ok && ent.committed
}

// OldestUncommitted returns the first-seen time of the oldest log entry that
// has been pre-prepared but not committed, and whether one exists. Hosts use
// it to drive the local timer (view-change trigger, attack A2).
func (e *Engine) OldestUncommitted() (time.Time, bool) {
	var oldest time.Time
	found := false
	for _, ent := range e.log {
		if ent.preprepared && !ent.committed {
			if !found || ent.firstSeen.Before(oldest) {
				oldest = ent.firstSeen
				found = true
			}
		}
	}
	return oldest, found
}

func (e *Engine) getEntry(seq types.SeqNum) *entry {
	ent, ok := e.log[seq]
	if !ok {
		ent = &entry{
			prepares:  make(map[types.NodeID]types.Digest),
			commits:   make(map[types.NodeID]commitVote),
			firstSeen: e.now(),
		}
		e.log[seq] = ent
	}
	return ent
}

// Propose assigns the next sequence number to batch and broadcasts
// PrePrepare. Only the current primary may call it; other callers receive an
// error and must route the request to the primary instead (Fig 5 line 9).
func (e *Engine) Propose(batch *types.Batch) (types.SeqNum, error) {
	if e.inViewChange {
		return 0, fmt.Errorf("pbft: view change in progress")
	}
	if !e.IsPrimary() {
		return 0, fmt.Errorf("pbft: replica %v is not the primary of view %d", e.self, e.view)
	}
	if e.nextSeq > e.stableSeq+e.window {
		return 0, fmt.Errorf("pbft: log window full (next %d, stable %d)", e.nextSeq, e.stableSeq)
	}
	seq := e.nextSeq
	e.nextSeq++
	d := batch.Digest()

	ent := e.getEntry(seq)
	ent.view = e.view
	ent.digest = d
	ent.batch = batch
	ent.preprepared = true
	// The primary's PrePrepare doubles as its Prepare vote.
	ent.prepares[e.self] = d

	m := &types.Message{
		Type: types.MsgPrePrepare, From: e.self, Shard: e.shard,
		View: e.view, Seq: seq, Digest: d, Batch: batch,
	}
	e.broadcastMAC(m)
	e.observe(seq, trace.PhasePrePrepare)
	return seq, nil
}

// broadcastMAC sends a per-recipient MAC'd copy of m to every peer except
// self (the MAC authenticator vector of PBFT). The canonical bytes are the
// same for every recipient — only the pairwise key differs — so they are
// built once for the whole broadcast.
func (e *Engine) broadcastMAC(m *types.Message) {
	var buf [types.SigBytesLen]byte
	sb := m.AppendSigBytes(buf[:0])
	for _, p := range e.peers {
		if p == e.self {
			continue
		}
		cp := *m
		cp.MAC = e.auth.MAC(p, sb)
		e.cb.Send(p, &cp)
	}
}

// broadcastSigned signs m once and sends a copy to every peer except self.
func (e *Engine) broadcastSigned(m *types.Message) {
	m.Sig = e.auth.Sign(m.SigBytes())
	for _, p := range e.peers {
		if p == e.self {
			continue
		}
		cp := *m
		e.cb.Send(p, &cp)
	}
}

func (e *Engine) isPeer(id types.NodeID) bool {
	if id.Kind != e.peers[0].Kind || id.Shard != e.shard {
		return false
	}
	return id.Index >= 0 && id.Index < e.n && e.peers[id.Index] == id
}

// OnMessage feeds one inbound intra-shard message to the state machine.
// Malformed, unauthenticated, or out-of-window messages are dropped — a
// well-formedness check is the first defence against Byzantine senders
// (Section 3, "well-formed").
func (e *Engine) OnMessage(m *types.Message) {
	if m == nil || !e.isPeer(m.From) || m.From == e.self {
		return
	}
	switch m.Type {
	case types.MsgPrePrepare, types.MsgPrepare, types.MsgCommit:
		// A message for a future view — or for the view currently being
		// installed — is stashed and replayed once the view change lands,
		// instead of being dropped (message order across a view change is
		// not guaranteed by the network).
		if m.View > e.view || (e.inViewChange && m.View == e.view) {
			if len(e.future) < 8192 {
				e.future = append(e.future, m)
			}
			return
		}
	default:
		// Only the three-phase messages are view-scoped; checkpoint and
		// view-change traffic carries its own watermarks and is never
		// stashed for a future view.
	}
	switch m.Type {
	case types.MsgPrePrepare:
		e.onPrePrepare(m)
	case types.MsgPrepare:
		e.onPrepare(m)
	case types.MsgCommit:
		e.onCommit(m)
	case types.MsgCheckpoint:
		e.onCheckpoint(m)
	case types.MsgViewChange:
		e.onViewChange(m)
	case types.MsgNewView:
		e.onNewView(m)
	default:
		// Cross-shard and client message types are routed above this layer
		// (Replica.HandleMessage); anything else inbound here is dropped as
		// malformed rather than guessed at.
	}
}

func (e *Engine) inWindow(seq types.SeqNum) bool {
	return seq > e.stableSeq && seq <= e.stableSeq+e.window
}

func (e *Engine) onPrePrepare(m *types.Message) {
	if e.inViewChange || m.View != e.view || m.From != e.Primary(e.view) {
		return
	}
	if !e.inWindow(m.Seq) || m.Batch == nil {
		return
	}
	var sb [types.SigBytesLen]byte
	if err := e.auth.VerifyMAC(m.From, m.AppendSigBytes(sb[:0]), m.MAC); err != nil {
		return
	}
	if m.Batch.Digest() != m.Digest {
		return
	}
	if e.cb.Justify != nil && !e.cb.Justify(m.Batch) {
		if len(e.parked) < 8192 {
			e.parked = append(e.parked, m)
		}
		return
	}
	ent := e.getEntry(m.Seq)
	// "r did not accept a k-th proposal from pS" (Fig 5 line 10): refuse a
	// conflicting proposal at the same (view, seq). Two MAC-valid
	// PrePrepares from one primary at one (view, seq) with different
	// digests are direct equivocation evidence.
	if ent.preprepared && (ent.view != m.View || ent.digest != m.Digest) {
		if ent.view == m.View && ent.ppMsg != nil && !ent.accused && e.cb.Equivocation != nil {
			ent.accused = true
			e.cb.Equivocation(ent.ppMsg, m)
		}
		return
	}
	if ent.preprepared {
		return // duplicate
	}
	ent.view = m.View
	ent.digest = m.Digest
	ent.batch = m.Batch
	ent.preprepared = true
	ent.ppMsg = m
	// Count the primary's PrePrepare as its Prepare, then vote ourselves.
	ent.prepares[m.From] = m.Digest
	ent.prepares[e.self] = m.Digest

	prep := &types.Message{
		Type: types.MsgPrepare, From: e.self, Shard: e.shard,
		View: m.View, Seq: m.Seq, Digest: m.Digest,
	}
	e.broadcastMAC(prep)
	e.observe(m.Seq, trace.PhasePrePrepare)
	e.maybePrepared(m.Seq, ent)
}

func (e *Engine) onPrepare(m *types.Message) {
	if e.inViewChange || m.View != e.view || !e.inWindow(m.Seq) {
		return
	}
	var sb [types.SigBytesLen]byte
	if err := e.auth.VerifyMAC(m.From, m.AppendSigBytes(sb[:0]), m.MAC); err != nil {
		return
	}
	ent := e.getEntry(m.Seq)
	if ent.preprepared && ent.digest != m.Digest {
		e.noteConflictingPrepare(ent, m)
		return
	}
	if ent.committed {
		// The sender is still running phases for a sequence this replica
		// already committed (it missed the old view's traffic; after the
		// view change, committed replicas skip the re-proposal phases).
		// Hand it this replica's Commit directly — without these replies,
		// fewer than nf stragglers can never assemble a commit quorum.
		e.replyCommit(m.From, m.Seq, ent)
		return
	}
	ent.prepares[m.From] = m.Digest
	e.maybePrepared(m.Seq, ent)
}

// noteConflictingPrepare records a MAC-valid Prepare whose digest
// contradicts the accepted PrePrepare at the same (view, seq). No single
// conflicting vote incriminates the primary — the sender itself could be
// Byzantine — but f+1 distinct conflicting senders include at least one
// honest replica echoing what the primary actually sent it, so at that
// threshold the primary provably equivocated and the Equivocation callback
// fires with the PrePrepare plus the canonically-first conflicting Prepare.
func (e *Engine) noteConflictingPrepare(ent *entry, m *types.Message) {
	if e.cb.Equivocation == nil || ent.accused || ent.ppMsg == nil || m.View != ent.view {
		return
	}
	if ent.conflicts == nil {
		ent.conflicts = make(map[types.NodeID]*types.Message)
	}
	if _, dup := ent.conflicts[m.From]; !dup {
		ent.conflicts[m.From] = m
	}
	if len(ent.conflicts) <= e.f {
		return
	}
	ent.accused = true
	first := ent.conflicts[types.SortedNodeKeys(ent.conflicts)[0]]
	e.cb.Equivocation(ent.ppMsg, first)
}

// maybePrepared transitions to prepared once the entry has a PrePrepare and
// nf distinct Prepare votes for its digest, then broadcasts a signed Commit
// (Fig 5 lines 12-13).
func (e *Engine) maybePrepared(seq types.SeqNum, ent *entry) {
	if ent.prepared || !ent.preprepared {
		return
	}
	votes := 0
	for _, d := range ent.prepares {
		if d == ent.digest {
			votes++
		}
	}
	if votes < e.nf {
		return
	}
	ent.prepared = true
	e.observe(seq, trace.PhasePrepare)
	c := &types.Message{
		Type: types.MsgCommit, From: e.self, Shard: e.shard,
		View: ent.view, Seq: seq, Digest: ent.digest,
	}
	sig := e.auth.Sign(c.SigBytes())
	ent.commits[e.self] = commitVote{view: ent.view, digest: ent.digest, sig: sig}
	c.Sig = sig
	for _, p := range e.peers {
		if p == e.self {
			continue
		}
		cp := *c
		e.cb.Send(p, &cp)
	}
	e.maybeCommitted(seq, ent)
}

func (e *Engine) onCommit(m *types.Message) {
	if !e.inWindow(m.Seq) {
		return
	}
	// PBFT discards Commits during a view change and for any view but the
	// current one; retransmission and checkpoints recover.
	if e.inViewChange || m.View != e.view {
		return
	}
	// A Commit from a sender whose vote is already recorded, or from a
	// straggler already helped in this view, has no effect, so it is dropped
	// before the signature check: a peer cannot force Ed25519 work with
	// repeated or junk Commits.
	if ent, ok := e.log[m.Seq]; ok {
		if ent.committed {
			if v, helped := ent.helped[m.From]; helped && v >= e.view {
				return
			}
		} else if _, dup := ent.commits[m.From]; dup {
			return
		}
	}
	if crypto.VerifyMessageSig(e.verifier, m) != nil {
		return
	}
	ent := e.getEntry(m.Seq)
	if ent.preprepared && ent.digest != m.Digest {
		return
	}
	if ent.committed {
		if ent.digest == m.Digest {
			e.replyCommit(m.From, m.Seq, ent) // straggler catch-up (see onPrepare)
		}
		return
	}
	ent.commits[m.From] = commitVote{view: m.View, digest: m.Digest, sig: m.Sig}
	e.maybeCommitted(m.Seq, ent)
}

// replyCommit re-sends this replica's Commit for an already-committed
// sequence, signed for the current view, directly to a peer still working
// on that sequence. After a view change, committed replicas skip the
// re-proposal phases; these targeted replies are what lets replicas that
// missed the original commit round catch up (found by internal/chaos,
// loss-storm schedules: two stragglers also starve the checkpoint quorum,
// so state transfer cannot rescue them either).
//
// At most one reply per (peer, view): a leftover Commit arriving at a
// committed replica would otherwise bounce replies between two committed
// replicas forever. In the view this replica voted in, the reply carries
// the stored vote's signature: Ed25519 is deterministic, so it is the same
// bytes a fresh signature would be.
func (e *Engine) replyCommit(to types.NodeID, seq types.SeqNum, ent *entry) {
	if ent.helped == nil {
		ent.helped = make(map[types.NodeID]types.View)
	}
	if v, ok := ent.helped[to]; ok && v >= e.view {
		return
	}
	ent.helped[to] = e.view
	c := &types.Message{
		Type: types.MsgCommit, From: e.self, Shard: e.shard,
		View: e.view, Seq: seq, Digest: ent.digest,
	}
	if own, ok := ent.commits[e.self]; ok && own.view == e.view && own.digest == ent.digest {
		c.Sig = own.sig
	} else {
		c.Sig = e.auth.Sign(c.SigBytes())
	}
	e.cb.Send(to, c)
}

// maybeCommitted fires the Committed callback once nf signed Commits match a
// prepared entry, handing the host the commit certificate A (Fig 5 line 16).
func (e *Engine) maybeCommitted(seq types.SeqNum, ent *entry) {
	if ent.committed || !ent.preprepared {
		return
	}
	votes := 0
	for _, cv := range ent.commits {
		if cv.digest == ent.digest {
			votes++
		}
	}
	if votes < e.nf {
		return
	}
	if !ent.prepared {
		// nf signed Commits are themselves proof the shard prepared this
		// digest — the same proof a Forward certificate carries to other
		// shards. A replica that missed the Prepare round (single straggler
		// after a view change: only its own and the implicit primary vote
		// remain) adopts it instead of stalling.
		ent.prepared = true
	}
	ent.committed = true
	e.observe(seq, trace.PhaseCommit)
	// Canonical voter order: the certificate travels in messages, so its
	// layout must not depend on map iteration order (replay divergence).
	cert := make([]types.Signed, 0, e.nf)
	for _, from := range types.SortedNodeKeys(ent.commits) {
		cv := ent.commits[from]
		if cv.digest != ent.digest {
			continue
		}
		cert = append(cert, types.Signed{
			From: from, Type: types.MsgCommit, Shard: e.shard,
			View: ent.view, Seq: seq, Digest: ent.digest, Sig: cv.sig,
		})
		if len(cert) == e.nf {
			break
		}
	}
	if e.cb.Committed != nil {
		e.cb.Committed(seq, ent.batch, cert)
	}
}

// VerifyCert checks a commit certificate allegedly produced by the replicas
// of shard (as carried inside a Forward message): at least quorum distinct
// valid signatures over identical (shard, view, seq, digest) Commit tuples.
// Any replica of any shard can run this check given the public keys — this
// is why cross-shard messages use DS, not MACs (non-repudiation, Section 3).
//
// The signatures are checked through the verifier: a signature that
// already verified on this node (the same Commit carried by another
// Forward copy, or received directly) costs no Ed25519 work, and misses run
// on the verifier's worker pool (serially when VerifyWorkers <= 1).
// Accept/reject decisions match checking every signature directly.
func VerifyCert(v *crypto.Verifier, shard types.ShardID, digest types.Digest, cert []types.Signed, quorum int) error {
	if len(cert) < quorum {
		return fmt.Errorf("pbft: certificate has %d signatures, need %d", len(cert), quorum)
	}

	// Structural pass (no crypto): keep entries with the right type, shard,
	// and digest, group them by (view, seq) — an honest certificate forms a
	// single group — and drop duplicate senders and non-members of shard.
	type group struct {
		view    types.View
		seq     types.SeqNum
		entries []*types.Signed
		seen    map[types.NodeID]struct{}
	}
	var groups []*group
	for i := range cert {
		s := &cert[i]
		if s.Type != types.MsgCommit || s.Shard != shard || s.Digest != digest {
			continue
		}
		if s.From.Shard != shard {
			continue
		}
		var g *group
		for _, c := range groups {
			if c.view == s.View && c.seq == s.Seq {
				g = c
				break
			}
		}
		if g == nil {
			g = &group{view: s.View, seq: s.Seq, seen: make(map[types.NodeID]struct{}, quorum)}
			groups = append(groups, g)
		}
		if _, dup := g.seen[s.From]; dup {
			continue
		}
		g.seen[s.From] = struct{}{}
		g.entries = append(g.entries, s)
	}

	bestValid, bestStructural, checked := 0, 0, false
	for _, g := range groups {
		if len(g.entries) > bestStructural {
			bestStructural = len(g.entries)
		}
		if len(g.entries) < quorum {
			continue
		}
		checked = true
		valid := v.VerifyQuorum(g.entries, quorum)
		if valid >= quorum {
			return nil
		}
		if valid > bestValid {
			bestValid = valid
		}
	}
	if !checked {
		return fmt.Errorf("pbft: certificate has only %d structurally matching entries (unverified), need %d", bestStructural, quorum)
	}
	return fmt.Errorf("pbft: certificate has %d valid signatures, need %d", bestValid, quorum)
}

// ReplayParked re-feeds PrePrepares that Justify previously rejected. The
// host calls it whenever new justification evidence arrives (e.g. a Forward
// quorum completing); still-unjustified proposals park again.
func (e *Engine) ReplayParked() {
	if len(e.parked) == 0 {
		return
	}
	replay := e.parked
	e.parked = nil
	for _, m := range replay {
		e.OnMessage(m)
	}
}

// ResumeAt positions a recovered engine: stable is the last stable
// checkpoint the replica's durable state covers and next the sequence it
// will participate from. Call once, after recovery and before any traffic —
// like ForceView, using it on a log with in-flight proposals would violate
// safety. The window anchors at stable, so the recovered replica accepts
// exactly the proposals its restored state can extend.
func (e *Engine) ResumeAt(stable, next types.SeqNum) {
	// Monotonic on purpose: besides crash recovery (fresh engine, both
	// watermarks at zero), hosts call this after an in-flight peer state
	// transfer, where the engine is live — regressing stableSeq would
	// re-open a GC'd window and regressing nextSeq would make a future
	// primary re-propose sequences the shard already committed.
	if stable > e.stableSeq {
		e.stableSeq = stable
	}
	if next <= stable {
		next = stable + 1
	}
	if next > e.nextSeq {
		e.nextSeq = next
	}
	stable = e.stableSeq
	for s := range e.log {
		if s <= stable {
			delete(e.log, s)
		}
	}
	for s := range e.checkpoints {
		if s < stable {
			delete(e.checkpoints, s)
		}
	}
	// A transfer-repositioned replica rejoins active duty in its current
	// view. If it was alone in a view change nobody else joined (a lone
	// spurious timeout keeps inViewChange forever — the shard is healthy,
	// so no NewView will arrive), staying dark would waste the fresh state
	// it just installed (found by internal/chaos, loss-storm schedules).
	e.inViewChange = false
	e.vcTarget = 0
}

// ForceView installs view v directly, without running the view-change
// protocol. It exists for multi-instance protocols (RCC) that statically
// assign each instance a distinct primary before any traffic flows; calling
// it on a log with in-flight proposals would violate safety.
func (e *Engine) ForceView(v types.View) { e.view = v }
