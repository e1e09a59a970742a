package ringbft

import (
	"crypto/sha256"

	"ringbft/internal/crypto"
	"ringbft/internal/evidence"
	"ringbft/internal/pbft"
	"ringbft/internal/trace"
	"ringbft/internal/types"
)

func sha256Sum(b []byte) types.Digest { return types.Digest(sha256.Sum256(b)) }

// mergeCarried folds the Σ fragments of one Forward/Execute copy into the
// cst's accumulated Σ, one fragment per (shard, kind) slot — kind being the
// read fragment collected at lock time or the write fragment appended at
// execution. Honest fragments for the same slot are identical (their values
// are read under sequence-ordered locks), so the first copy wins.
//
// Merging — rather than adopting the payload of whichever copy tips the f+1
// threshold — is load-bearing: copies from different senders legitimately
// carry different Σ. A replica that learned the batch through local PBFT
// replication because its own first-rotation Forward copy was lost (crash
// and partition windows make this routine) locks and forwards a Σ holding
// only its own read fragment; executing from that copy alone diverges from
// the replicas that executed with the full Σ (found by internal/chaos,
// crash-restart and wipe-rejoin schedules).
func (cs *cstState) mergeCarried(sets []types.WriteSet) {
	for _, ws := range sets {
		read := len(ws.ReadKeys) > 0
		write := len(ws.Keys) > 0
		if !read && !write {
			continue
		}
		dup := false
		for i := range cs.carried {
			have := &cs.carried[i]
			if have.Shard == ws.Shard &&
				(len(have.ReadKeys) > 0) == read && (len(have.Keys) > 0) == write {
				dup = true
				break
			}
		}
		if !dup {
			cs.carried = append(cs.carried, ws)
		}
	}
}

// sendForward implements Fig 5 line 19: after locking, replica r sends a
// signed Forward — the batch, the nf-signature commit certificate A, and the
// accumulated read sets — to the single replica of the next involved shard
// with the same index (the linear communication primitive).
func (r *Replica) sendForward(cs *cstState) {
	next, _ := cs.batch.NextInRing(r.shard)
	m := &types.Message{
		Type: types.MsgForward, From: r.self, Shard: r.shard,
		Seq: cs.seq, Digest: cs.digest,
		Batch: cs.batch, Cert: cs.cert, WriteSets: cs.carried,
	}
	m.Sig = crypto.SignMessage(r.auth, m)
	cs.forwardMsg = m
	cs.forwardSentAt = r.clock()
	r.observe(cs.seq, trace.PhaseForward)
	r.sendRing(next, m)
}

// sendRing delivers a cross-shard message under the configured
// communication primitive: one same-index replica (linear, the default) or
// every replica of the next shard (all-to-all ablation).
func (r *Replica) sendRing(next types.ShardID, m *types.Message) {
	if !r.allToAll {
		r.send(types.ReplicaNode(next, r.self.Index), m)
		return
	}
	for i := 0; i < r.cfg.ReplicasPerShard; i++ {
		r.send(types.ReplicaNode(next, i), m)
	}
}

// onForward handles a Forward from the previous shard in ring order
// (Fig 5 lines 29-39). The first same-index copy is re-shared locally
// (line 30); the message is accepted once f+1 distinct previous-shard
// replicas vouch for it (line 31), which by the linear communication
// primitive guarantees at least one copy originated at a non-faulty sender.
func (r *Replica) onForward(m *types.Message) {
	b := m.Batch
	if b == nil || len(b.Txns) == 0 || !b.IsCrossShard() {
		return
	}
	d := b.Digest()
	if d != m.Digest || !b.Involves(r.shard) {
		return
	}
	if m.From.Kind != types.KindReplica || m.From.Shard != b.PrevInRing(r.shard) || m.Shard != m.From.Shard {
		return
	}
	if crypto.VerifyMessageSig(r.verifier, m) != nil {
		return
	}
	// Detection before the certificate check: the Forward signature alone
	// binds the sender to (seq, digest), and a conflicting claim whose
	// certificate is garbage is exactly as indicting as one whose
	// certificate verifies.
	r.noteForward(m)
	// The Forward must prove the previous shard replicated the batch:
	// nf valid commit signatures from that shard (checked once per sender).
	if err := pbft.VerifyCert(r.verifier, m.From.Shard, d, m.Cert, r.cfg.NF()); err != nil {
		return
	}

	cs := r.cst(d)
	if cs.batch == nil {
		// Adopt the batch as soon as one valid Forward is seen: the remote
		// timer needs it to complain (Fig 6) even before f+1 copies arrive.
		cs.batch = b
	}
	if cs.fwdCert == nil {
		// One verified copy suffices to hold the justification certificate:
		// it is self-certifying (nf signed commits), independent of the f+1
		// copy count that gates acceptance below.
		cs.fwdCert = m.Cert
	}
	if _, dup := cs.fwdFrom[m.From]; dup {
		// Retransmission of an already-counted copy: the rotation is
		// starving somewhere. Re-share the same-index copy — the one-shot
		// relay happened while peers' copies may have been lost, and a
		// peer short of f+1 senders has no other way to complete its
		// quorum (re-sends are paced by the sender's transmit timer, and
		// only the lane owner re-relays, so there is no amplification).
		// If we already executed, the lost message is our Execute —
		// resend it down the ring.
		if m.From.Index == r.self.Index {
			for _, p := range r.peers {
				if p != r.self {
					r.send(p, m)
				}
			}
		}
		if cs.executed {
			r.sendExecute(cs)
		}
		return
	}
	cs.fwdFrom[m.From] = struct{}{}
	cs.mergeCarried(m.WriteSets)
	if cs.fwdFirst.IsZero() {
		cs.fwdFirst = r.clock() // arm the remote timer (Fig 6)
	}
	if m.From.Index == r.self.Index && !cs.fwdRelayed {
		cs.fwdRelayed = true
		for _, p := range r.peers {
			if p != r.self {
				r.send(p, m)
			}
		}
	}
	if cs.fwdAccepted || len(cs.fwdFrom) <= r.cfg.F() {
		return
	}
	cs.fwdAccepted = true
	if r.met != nil {
		// Ring-hop latency: first same-lane copy to f+1 acceptance.
		r.met.forwardQuorum.Observe(r.clock().Sub(cs.fwdFirst))
	}
	cs.fwdFirst = r.clock() // re-anchor the remote timer for rotation 2
	if cs.batch == nil {
		cs.batch = b
	}
	// The Forward quorum is the justification evidence the PBFT engine
	// gates cross-shard proposals on; re-feed any that arrived early.
	r.engine.ReplayParked()

	if cs.locked && r.shard == b.Initiator() {
		// Second rotation (Fig 5 line 32): we are the first shard in ring
		// order, our locks are held, and the Forward has travelled the full
		// ring — every involved shard holds its locks. Execute with the Σ
		// merged from every copy (see mergeCarried). The initiator check is
		// load-bearing: only there does an inbound Forward prove a full
		// rotation. A non-initiator shard can also be locked when the f+1-th
		// Forward copy arrives (commit raced ahead of retransmitted Forwards
		// across a fault window), but its Forwards are first-rotation —
		// executing on one would use a Σ missing every upstream shard's
		// fragments and diverge from the replicas that execute on the
		// second-rotation Execute message (found by internal/chaos,
		// wipe-rejoin schedules).
		r.executeCst(cs)
		return
	}
	// First rotation at a non-initiator shard: the accumulated read sets
	// are already merged into Σ; replicate the batch locally (Fig 5 lines
	// 38-39). If we are already locked, execution still waits for the
	// Execute message carrying the full Σ.
	r.enqueueProposal(b, d)
}

// noteForward records conflicting-Forward evidence: the same previous-shard
// replica signing two Forwards for one sequence with different digests. An
// honest sender cannot — its shard committed exactly one batch at that
// sequence — so the signature pair indicts the sender directly and is
// transferable (both halves are Ed25519-signed over the canonical tuple).
// Call only after the message signature verified.
func (r *Replica) noteForward(m *types.Message) {
	key := fwdKey{from: m.From, seq: m.Seq}
	prev, ok := r.fwdSeen[key]
	if !ok {
		if len(r.fwdSeen) < fwdSeenCap {
			r.fwdSeen[key] = evidence.MsgOf(m)
		}
		return
	}
	if prev.Digest == m.Digest {
		return
	}
	r.ev.Add(evidence.Record{
		Kind: evidence.KindConflictingForward, Accused: m.From,
		Shard: r.shard, Seq: m.Seq,
		First: prev, Second: evidence.MsgOf(m),
		Transferable: true,
	})
}

// executeCst executes this shard's fragment with every dependency resolved
// from the carried Σ, appends the block, releases locks, and passes the
// Execute message down the ring (Fig 5 lines 33-37).
func (r *Replica) executeCst(cs *cstState) {
	if cs.executed || cs.batch == nil || !cs.locked {
		return
	}
	remote := make(map[types.Key]types.Value)
	for _, ws := range cs.carried {
		for i, k := range ws.ReadKeys {
			remote[k] = ws.ReadValues[i]
		}
	}
	cs.results = r.executeBatch(cs.batch, remote, cs.plan)
	cs.executed = true
	r.observe(cs.seq, trace.PhaseExecute)
	r.executed[cs.digest] = cs.results
	primary := r.engine.Primary(r.engine.View())
	r.chain.Append(cs.seq, primary, cs.batch)
	r.logBlock(cs.seq, primary, cs.batch, cs.results)
	r.markExecuted(cs.seq)

	// Push this shard's updated write fragment into Σ (Fig 5 line 34).
	out := types.WriteSet{Shard: r.shard}
	for i := range cs.batch.Txns {
		t := &cs.batch.Txns[i]
		for _, k := range t.WritesAt(r.shard, r.cfg.Shards) {
			out.Keys = append(out.Keys, k)
			out.Values = append(out.Values, r.kv.Get(k))
		}
	}
	cs.mergeCarried([]types.WriteSet{out})

	r.locks.Unlock(r.localKeys(cs.batch), lockOwner(cs.batch))
	cs.released = true

	r.sendExecute(cs)
	r.drainLockQueue()
}

// executeMessage builds this replica's signed ⟨Execute(Δ, Σℑ)⟩.
func (r *Replica) executeMessage(cs *cstState) *types.Message {
	m := &types.Message{
		Type: types.MsgExecute, From: r.self, Shard: r.shard,
		Seq: cs.seq, Digest: cs.digest, WriteSets: cs.carried,
	}
	m.Sig = crypto.SignMessage(r.auth, m)
	return m
}

// sendExecute sends ⟨Execute(Δ, Σℑ)⟩ to the same-index replica of the next
// involved shard (Fig 5 line 37).
func (r *Replica) sendExecute(cs *cstState) {
	next, _ := cs.batch.NextInRing(r.shard)
	r.sendRing(next, r.executeMessage(cs))
}

// onExecute handles the second-rotation Execute message (Fig 5 lines 40-44):
// a shard that has not executed yet does so now (the carried Σ resolves its
// dependencies); the initiator — which executed at the start of rotation 2 —
// replies to the client instead.
func (r *Replica) onExecute(m *types.Message) {
	cs, ok := r.csts[m.Digest]
	if !ok || cs.batch == nil {
		// Either an unknown digest or this replica was kept in dark during
		// local replication; it cannot execute and relies on checkpoints.
		return
	}
	if m.From.Kind != types.KindReplica || m.From.Shard != cs.batch.PrevInRing(r.shard) {
		return
	}
	if crypto.VerifyMessageSig(r.verifier, m) != nil {
		return
	}
	if _, dup := cs.execFrom[m.From]; dup {
		// Mirror of the Forward dup path: a retransmitted Execute copy
		// means someone in this shard is still short of the f+1 Execute
		// quorum; re-share the lane copy.
		if m.From.Index == r.self.Index {
			for _, p := range r.peers {
				if p != r.self {
					r.send(p, m)
				}
			}
		}
		return
	}
	cs.execFrom[m.From] = struct{}{}
	cs.mergeCarried(m.WriteSets)
	if m.From.Index == r.self.Index && !cs.execRelayed {
		cs.execRelayed = true
		for _, p := range r.peers {
			if p != r.self {
				r.send(p, m)
			}
		}
	}
	if cs.execAccepted || len(cs.execFrom) <= r.cfg.F() {
		return
	}
	cs.execAccepted = true

	if cs.executed {
		if r.shard == cs.batch.Initiator() {
			// Execution completed across all shards; answer the client
			// (Section 4.3.7).
			if !cs.replied {
				cs.replied = true
				r.respond(clientOf(cs.batch), cs.digest, cs.results)
				r.observe(cs.seq, trace.PhaseReply)
			}
			return
		}
		// Already executed but not the initiator (fast-path shard):
		// keep the rotation moving.
		r.sendExecute(cs)
		return
	}
	if cs.locked {
		r.executeCst(cs)
	}
}

// onRemoteView handles the remote view-change protocol of Fig 6: replicas of
// the next shard, starved of Forward messages, ask this shard to replace its
// primary. f+1 distinct complainants trigger a local view change.
func (r *Replica) onRemoteView(m *types.Message) {
	b := m.Batch
	if b == nil || !b.Involves(r.shard) {
		return
	}
	d := b.Digest()
	if d != m.Digest {
		return
	}
	next, _ := b.NextInRing(r.shard)
	if m.From.Kind != types.KindReplica || m.From.Shard != next {
		return
	}
	if crypto.VerifyMessageSig(r.verifier, m) != nil {
		return
	}
	cs := r.cst(d)
	if cs.executed {
		// Direct catch-up, before any dedup: a single starving replica of
		// the next shard can never assemble f+1 distinct Execute senders
		// through its own ring lane alone (each retransmission reaches it
		// from the same sender), so every executed replica that hears a
		// complaint — the relay spreads it shard-wide — answers the
		// complainant with its Execute. Re-sent complaints re-trigger this,
		// paced by the complainant's remote timer (found by internal/chaos,
		// loss-storm schedules: two Execute-starved replicas also starve
		// the checkpoint quorum, blocking state transfer).
		r.send(m.From, r.executeMessage(cs))
	}
	if cs.remoteComplaints == nil {
		cs.remoteComplaints = make(map[types.NodeID]struct{})
	}
	if _, dup := cs.remoteComplaints[m.From]; dup {
		return
	}
	cs.remoteComplaints[m.From] = struct{}{}
	if m.From.Index == r.self.Index && !cs.remoteRelayed {
		cs.remoteRelayed = true
		for _, p := range r.peers {
			if p != r.self {
				r.send(p, m)
			}
		}
	}
	if len(cs.remoteComplaints) <= r.cfg.F() || cs.remoteHandled {
		return
	}
	cs.remoteHandled = true
	r.remoteViews++
	if r.met != nil {
		r.met.remoteViews.Inc()
	}
	// Make sure the (possibly new) primary has the batch to propose, then
	// support the view change (Fig 6 lines 5-6).
	if cs.batch == nil {
		cs.batch = b
	}
	if !cs.fwdAccepted && cs.fwdFirst.IsZero() {
		// Middle shard of a ring of three or more: the complaint reveals a
		// batch this shard never saw a Forward copy for. Arm the remote
		// timer so this shard complains upstream in turn — until the
		// previous shard's certificate arrives no primary here can justify
		// proposing it, so upstream pressure is the only recovery path.
		cs.fwdFirst = r.clock()
	}
	if _, done := r.proposed[d]; !done {
		if _, ok := r.awaitingProposal[d]; !ok {
			r.awaitingProposal[d] = &pendingProposal{batch: b, since: r.clock()}
		}
	}
	if cs.executed || cs.locked {
		// We already replicated it; the complaint is about lost messages,
		// not a faulty primary. Retransmit instead of view-changing: the
		// Forward (first rotation) and, if we already executed, the Execute
		// carrying Σ (second rotation).
		if cs.forwardMsg != nil {
			r.retransmits++
			if r.met != nil {
				r.met.retransmits.Inc()
			}
			r.send(types.ReplicaNode(next, r.self.Index), cs.forwardMsg)
		}
		if cs.executed {
			r.retransmits++
			if r.met != nil {
				r.met.retransmits.Inc()
			}
			r.sendExecute(cs)
		}
		return
	}
	if r.justified(b) {
		// Only view-change when a primary of this shard could actually
		// propose the batch: without the Forward quorum every view burns a
		// timeout parking the same unjustifiable proposal, while the armed
		// remote timer above already drives recovery upstream.
		r.engine.StartViewChange(r.engine.View() + 1)
	}
}
