package pbft

import (
	"time"

	"ringbft/internal/crypto"
	"ringbft/internal/trace"
	"ringbft/internal/types"
)

// StartViewChange abandons the current view and broadcasts a ViewChange
// message targeting view target (> current view). Hosts call it when the
// local timer expires: either nf Commits never arrived for a proposal, or
// the primary failed to propose a client request (attack A2), or f+1
// RemoteView messages arrived from the next shard in ring order (Fig 6).
func (e *Engine) StartViewChange(target types.View) {
	if target <= e.view {
		target = e.view + 1
	}
	if e.inViewChange && target <= e.vcTarget {
		return
	}
	e.inViewChange = true
	e.vcTarget = target
	e.vcStarted = e.now()
	e.observe(types.SeqNum(target), trace.PhaseViewChange)

	// P set: every prepared-but-unstable entry, with its batch so the new
	// primary can re-propose it.
	// The P set travels in the signed ViewChange; walk the log in canonical
	// sequence order so identically seeded replicas emit byte-identical
	// messages.
	var proofs []types.PreparedProof
	for _, seq := range types.SortedSeqKeys(e.log) {
		ent := e.log[seq]
		if ent.prepared && seq > e.stableSeq {
			p := types.PreparedProof{
				View: ent.view, Seq: seq, Digest: ent.digest, Batch: ent.batch,
			}
			// Carry the certificate that justified this batch: preparing it
			// required the local Justify gate to pass, so the host holds the
			// certificate, and the new primary's NewView must present it to
			// receivers that never accepted it themselves.
			if e.cb.Justification != nil {
				p.Justification = e.cb.Justification(ent.batch)
			}
			proofs = append(proofs, p)
		}
	}
	// Seq mirrors StableSeq because the canonical signed tuple covers Seq:
	// the NewView justification reconstructs exactly this tuple.
	m := &types.Message{
		Type: types.MsgViewChange, From: e.self, Shard: e.shard,
		View: target, Seq: e.stableSeq, StableSeq: e.stableSeq, Prepared: proofs,
	}
	e.recordViewChange(e.self, m)
	e.broadcastSigned(m)
}

func (e *Engine) onViewChange(m *types.Message) {
	if m.View <= e.view {
		return
	}
	if crypto.VerifyMessageSig(e.verifier, m) != nil {
		return
	}
	e.recordViewChange(m.From, m)

	// Join rule: seeing f+1 distinct replicas demanding a view higher than
	// our target proves at least one non-faulty replica timed out; join
	// them so the view change completes even if our own timer lags.
	votes := e.vcVotes[m.View]
	if len(votes) > e.f && (!e.inViewChange || m.View > e.vcTarget) {
		e.StartViewChange(m.View)
	}
	e.maybeNewView(m.View)
}

func (e *Engine) recordViewChange(from types.NodeID, m *types.Message) {
	msgs, ok := e.vcMsgs[m.View]
	if !ok {
		msgs = make(map[types.NodeID]*types.Message)
		e.vcMsgs[m.View] = msgs
	}
	msgs[from] = m
	votes, ok := e.vcVotes[m.View]
	if !ok {
		votes = make(map[types.NodeID]struct{})
		e.vcVotes[m.View] = votes
	}
	votes[from] = struct{}{}
}

// maybeNewView runs at the would-be primary of view v: with nf ViewChange
// messages it assembles the NewView — re-proposals for every prepared
// sequence (highest view wins) and no-op fillers for gaps — and installs the
// view.
func (e *Engine) maybeNewView(v types.View) {
	if e.Primary(v) != e.self || v <= e.view {
		return
	}
	msgs := e.vcMsgs[v]
	if len(msgs) < e.nf {
		return
	}

	// Merge P sets: for each sequence, the proof from the highest view wins
	// (PBFT's selection rule); establish the re-proposal range.
	maxStable := types.SeqNum(0)
	best := make(map[types.SeqNum]types.PreparedProof)
	maxSeq := types.SeqNum(0)
	justification := make([]types.Signed, 0, len(msgs))
	// Canonical voter order: the justification list is embedded in the
	// NewView message, so its layout must not follow map iteration order.
	for _, from := range types.SortedNodeKeys(msgs) {
		vc := msgs[from]
		if vc.StableSeq > maxStable {
			maxStable = vc.StableSeq
		}
		for _, p := range vc.Prepared {
			cur, ok := best[p.Seq]
			if !ok || p.View > cur.View {
				best[p.Seq] = p
			}
			if p.Seq > maxSeq {
				maxSeq = p.Seq
			}
		}
		justification = append(justification, types.Signed{
			From: from, Type: types.MsgViewChange, Shard: e.shard,
			View: vc.View, Seq: vc.StableSeq, Sig: vc.Sig,
		})
	}
	if maxStable > e.stableSeq {
		e.stabilize(maxStable)
	}

	// O set: re-proposals from maxStable+1..maxSeq, no-ops for gaps.
	var reproposals []types.PreparedProof
	for s := maxStable + 1; s <= maxSeq; s++ {
		if p, ok := best[s]; ok {
			// A P-set proof from a replica that never attached the
			// justification (older sender, lost field) is topped up from
			// this primary's own certificate store.
			if len(p.Justification) == 0 && e.cb.Justification != nil {
				p.Justification = e.cb.Justification(p.Batch)
			}
			reproposals = append(reproposals, p)
		} else {
			noop := &types.Batch{}
			reproposals = append(reproposals, types.PreparedProof{
				View: v, Seq: s, Digest: noop.Digest(), Batch: noop,
			})
		}
	}

	nv := &types.Message{
		Type: types.MsgNewView, From: e.self, Shard: e.shard,
		View: v, StableSeq: maxStable,
		Prepared: reproposals, ViewMsgs: justification,
	}
	e.broadcastSigned(nv)
	e.installView(v, maxStable, reproposals, true)
}

func (e *Engine) onNewView(m *types.Message) {
	if m.View <= e.view || m.From != e.Primary(m.View) {
		return
	}
	if crypto.VerifyMessageSig(e.verifier, m) != nil {
		return
	}
	if len(m.ViewMsgs) < e.nf {
		return
	}
	// Verify the justification: nf distinct signed ViewChange tuples,
	// batched on the shared verifier's worker pool (the structural filter
	// and sender dedup stay here; the verifier only spends Ed25519 work).
	seen := make(map[types.NodeID]struct{}, len(m.ViewMsgs))
	entries := make([]*types.Signed, 0, len(m.ViewMsgs))
	for i := range m.ViewMsgs {
		s := &m.ViewMsgs[i]
		if s.Type != types.MsgViewChange || s.View != m.View || s.Shard != e.shard {
			continue
		}
		if _, dup := seen[s.From]; dup {
			continue
		}
		seen[s.From] = struct{}{}
		entries = append(entries, s)
	}
	if e.verifier.VerifyQuorum(entries, e.nf) < e.nf {
		return
	}
	// Justification gate: every re-proposal this replica would adopt must
	// either pass the local Justify gate or carry a verifiable certificate.
	// One unjustified batch rejects the whole NewView — adopting the rest
	// would let a Byzantine new primary split the shard between replicas
	// that saw different NewView variants — and the view-change timer then
	// escalates past the faulty primary (Tick).
	for i := range m.Prepared {
		p := &m.Prepared[i]
		if ent, ok := e.log[p.Seq]; ok && ent.committed {
			continue // already decided locally; nothing is adopted for it
		}
		if p.Batch == nil || e.justifiedProof(p) {
			continue
		}
		if e.cb.UnjustifiedNewView != nil {
			e.cb.UnjustifiedNewView(m, *p)
		}
		return
	}
	if m.StableSeq > e.stableSeq {
		e.stabilize(m.StableSeq)
	}
	e.installView(m.View, m.StableSeq, m.Prepared, false)
}

// justifiedProof reports whether re-proposal p may be adopted: the local
// Justify gate passes (this replica holds the evidence itself), or the
// proof carries a justification the host verifies (this replica is behind —
// e.g. its Forward quorum never completed — but the certificate is
// transferable and speaks for itself).
func (e *Engine) justifiedProof(p *types.PreparedProof) bool {
	if e.cb.Justify == nil || e.cb.Justify(p.Batch) {
		return true
	}
	return e.cb.VerifyJustification != nil && e.cb.VerifyJustification(p.Batch, p.Justification)
}

// installView moves the replica into view v, resets per-view state, and
// replays the new primary's re-proposals through the ordinary three-phase
// path so that previously prepared batches commit in the new view.
func (e *Engine) installView(v types.View, stable types.SeqNum, reproposals []types.PreparedProof, isPrimary bool) {
	e.view = v
	e.inViewChange = false
	e.vcTarget = 0
	delete(e.vcMsgs, v)
	delete(e.vcVotes, v)

	// Reset un-committed entries: they must re-run phases in the new view.
	// firstSeen restarts too — the watchdog must give the new view a full
	// LocalTimeout to commit the re-proposals. Keeping the old timestamp
	// livelocks the shard: the first tick after an install sees an entry
	// "stuck" longer than the timeout and immediately starts the next view
	// change, aborting every re-proposal round forever (found by
	// internal/chaos, loss-storm and Byzantine-primary schedules).
	now := e.now()
	maxSeq := e.stableSeq
	for seq, ent := range e.log {
		if seq > maxSeq {
			maxSeq = seq
		}
		if !ent.committed {
			ent.preprepared = false
			ent.prepared = false
			ent.view = v
			ent.prepares = make(map[types.NodeID]types.Digest)
			ent.commits = make(map[types.NodeID]commitVote)
			ent.firstSeen = now
			// Equivocation evidence is per-(view, pre-prepare); the new
			// view's proposal is the NewView itself, so the pairing state
			// resets (the evidence log retains anything already recorded).
			ent.ppMsg = nil
			ent.conflicts = nil
			ent.accused = false
		}
	}
	for _, p := range reproposals {
		if p.Seq > maxSeq {
			maxSeq = p.Seq
		}
	}
	e.nextSeq = maxSeq + 1

	for _, p := range reproposals {
		ent := e.getEntry(p.Seq)
		if ent.committed {
			continue // already decided; NewView carries the same digest for honest quorums
		}
		ent.view = v
		ent.digest = p.Digest
		ent.batch = p.Batch
		ent.preprepared = true
		ent.prepares[e.Primary(v)] = p.Digest
		if !isPrimary {
			ent.prepares[e.self] = p.Digest
			prep := &types.Message{
				Type: types.MsgPrepare, From: e.self, Shard: e.shard,
				View: v, Seq: p.Seq, Digest: p.Digest,
			}
			e.broadcastMAC(prep)
		}
		e.maybePrepared(p.Seq, ent)
	}
	if e.cb.ViewChanged != nil {
		e.cb.ViewChanged(v)
	}

	// Replay stashed messages that were waiting for this view.
	replay := e.future
	e.future = nil
	for _, m := range replay {
		if m.View >= v {
			e.OnMessage(m)
		}
	}
}

// Tick drives time-based escalation: if a view change has stalled (no
// NewView within the view timeout) the replica targets the next view. Hosts
// call Tick periodically from their event loops.
func (e *Engine) Tick(now time.Time) {
	if e.inViewChange && now.Sub(e.vcStarted) > e.vcTimeout {
		e.StartViewChange(e.vcTarget + 1)
	}
}
