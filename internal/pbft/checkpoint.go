package pbft

import (
	"ringbft/internal/crypto"
	"ringbft/internal/types"
)

// MakeCheckpoint broadcasts a signed Checkpoint message vouching that this
// replica's state after executing sequence seq has digest state. Hosts call
// it every Config.CheckpointInterval executed sequences. Checkpoints serve
// two purposes (attack A3): they let replicas kept in dark by a malicious
// primary observe progress, and they advance the stable watermark so the log
// can be garbage-collected.
func (e *Engine) MakeCheckpoint(seq types.SeqNum, state types.Digest) {
	m := &types.Message{
		Type: types.MsgCheckpoint, From: e.self, Shard: e.shard,
		Seq: seq, Digest: state,
	}
	m.Sig = e.auth.Sign(m.SigBytes())
	e.recordCheckpoint(e.self, seq, state, m.Sig)
	for _, p := range e.peers {
		if p == e.self {
			continue
		}
		cp := *m
		e.cb.Send(p, &cp)
	}
}

func (e *Engine) onCheckpoint(m *types.Message) {
	if m.Seq <= e.stableSeq {
		return
	}
	if crypto.VerifyMessageSig(e.verifier, m) != nil {
		return
	}
	e.recordCheckpoint(m.From, m.Seq, m.Digest, m.Sig)
}

// cpVote is one replica's signed checkpoint vote. The signature is retained
// so a quorum can later be re-assembled into a transferable certificate
// (CheckpointCert) — peer catch-up payloads carry it so a requester that
// never observed the quorum itself can still validate against it.
type cpVote struct {
	state types.Digest
	sig   []byte
}

func (e *Engine) recordCheckpoint(from types.NodeID, seq types.SeqNum, state types.Digest, sig []byte) {
	votes, ok := e.checkpoints[seq]
	if !ok {
		votes = make(map[types.NodeID]cpVote)
		e.checkpoints[seq] = votes
	}
	votes[from] = cpVote{state: state, sig: sig}

	// Stabilize when nf replicas vouch for the same state digest. Voters are
	// walked in canonical order so the stabilize callback fires on the same
	// vote in every replay, not whichever one map iteration reached first.
	counts := make(map[types.Digest]int, 2)
	for _, from := range types.SortedNodeKeys(votes) {
		d := votes[from].state
		counts[d]++
		if counts[d] >= e.nf && seq > e.stableSeq {
			e.stabilize(seq)
			if e.cb.Stabilized != nil {
				e.cb.Stabilized(seq, d)
			}
			return
		}
	}
}

// CheckpointCert re-assembles the nf-signed checkpoint certificate at seq,
// if this replica holds a full quorum of matching votes: the agreed digest
// plus nf transferable Signed proofs. Votes are retained for the current
// stable checkpoint (stabilize GCs only below it), so a replica that
// stabilized through a vote quorum can serve the certificate to peers.
func (e *Engine) CheckpointCert(seq types.SeqNum) (types.Digest, []types.Signed, bool) {
	votes := e.checkpoints[seq]
	counts := make(map[types.Digest]int, 2)
	for _, v := range votes {
		counts[v.state]++
	}
	var agreed types.Digest
	found := false
	for _, d := range types.SortedDigestKeys(counts) {
		if counts[d] >= e.nf {
			agreed, found = d, true
			break
		}
	}
	if !found {
		return types.Digest{}, nil, false
	}
	cert := make([]types.Signed, 0, e.nf)
	for _, from := range types.SortedNodeKeys(votes) {
		v := votes[from]
		if v.state != agreed || len(v.sig) == 0 {
			continue
		}
		cert = append(cert, types.Signed{
			From: from, Type: types.MsgCheckpoint, Shard: e.shard,
			Seq: seq, Digest: agreed, Sig: v.sig,
		})
		if len(cert) == e.nf {
			break
		}
	}
	if len(cert) < e.nf {
		return types.Digest{}, nil, false
	}
	return agreed, cert, true
}

// stabilize advances the stable watermark to seq and garbage-collects log
// entries and checkpoint votes at or below it.
func (e *Engine) stabilize(seq types.SeqNum) {
	e.stableSeq = seq
	for s := range e.log {
		if s <= seq {
			delete(e.log, s)
		}
	}
	for s := range e.checkpoints {
		if s < seq {
			delete(e.checkpoints, s)
		}
	}
	if e.nextSeq <= seq {
		e.nextSeq = seq + 1
	}
}

// LogSize returns the number of live log entries (post-GC); exposed for
// tests asserting checkpoint garbage collection.
func (e *Engine) LogSize() int { return len(e.log) }

// CheckpointVotes reports, for each pending checkpoint sequence, how many
// votes have been recorded (diagnostics).
func (e *Engine) CheckpointVotes() map[types.SeqNum]int {
	out := make(map[types.SeqNum]int, len(e.checkpoints))
	for s, votes := range e.checkpoints {
		out[s] = len(votes)
	}
	return out
}

// InFlight reports how many consensus instances the engine currently has in
// flight: sequences that are pre-prepared but not yet committed inside the
// log window. This is the propose-accounting surface for pipelined hosts
// (types.Config.PipelineDepth): a primary overlapping
// PRE-PREPARE/PREPARE/COMMIT across sequence numbers gates new proposals on
// this count, while the engine's own log window (Options.Window) remains the
// hard ceiling. The scan is O(window); the window is small (default 512) and
// hosts call this at event-loop rate, far below the per-message crypto cost.
func (e *Engine) InFlight() int { return e.UncommittedInWindow() }

// UncommittedInWindow counts log entries that are preprepared but not yet
// committed (diagnostics).
func (e *Engine) UncommittedInWindow() int {
	n := 0
	for _, ent := range e.log {
		if ent.preprepared && !ent.committed {
			n++
		}
	}
	return n
}
