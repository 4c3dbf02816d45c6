package transport

import (
	"fmt"

	"ocsml/internal/checkpoint"
	"ocsml/internal/protocol"
	"ocsml/internal/trace"
)

// handleRecovery processes one RB_* frame on the node's loop goroutine.
// Recovery frames bypass the protocol stack entirely — no reliable-layer
// dedup or acks, no epoch fencing (the coordinator predates the epoch it
// is about to establish) — so every handler here must be idempotent
// against the coordinator's rebroadcast.
func (n *Node) handleRecovery(e *protocol.Envelope) {
	rb, ok := e.Payload.(protocol.RbMsg)
	if !ok {
		n.count("recovery.bad_frames", 1)
		return
	}
	switch e.CtlTag {
	case protocol.TagRbBegin:
		n.sendRb(e.Src, protocol.TagRbLine, protocol.RbMsg{
			Round: rb.Round, Epoch: n.epoch, Seqs: n.durableSeqs(),
		})
	case protocol.TagRbCommit:
		if rb.Epoch <= n.epoch {
			// Rebroadcast of a commit we already executed (or a commit
			// superseded by a newer epoch): re-ACK so a lost ACK cannot
			// stall the coordinator, but do not roll back again.
			n.sendRb(e.Src, protocol.TagRbAck, protocol.RbMsg{Round: rb.Round, Line: rb.Line, Epoch: rb.Epoch})
			return
		}
		src, ack := e.Src, protocol.RbMsg{Round: rb.Round, Line: rb.Line, Epoch: rb.Epoch}
		n.rollbackTo(rb.Line, rb.Epoch, func() {
			n.post(func() { n.sendRb(src, protocol.TagRbAck, ack) })
		})
	default:
		// RB_LINE/RB_ACK are coordinator-bound; a running node sees them
		// only as leftovers of a round it did not coordinate.
		n.count("recovery.stray_frames", 1)
	}
}

func (n *Node) sendRb(dst int, tag string, rb protocol.RbMsg) {
	n.Send(&protocol.Envelope{Dst: dst, Kind: protocol.KindCtl, CtlTag: tag, Payload: rb})
}

// durableSeqs is this process's vote in the recovery-line intersection:
// the on-disk manifest when the node has one, otherwise the in-memory
// finalized checkpoints (a diskless cluster can still agree on a line).
func (n *Node) durableSeqs() []int {
	if n.cfg.FS != nil {
		return n.cfg.FS.Manifest().Seqs
	}
	var seqs []int
	for _, rec := range n.cfg.Ckpts.Proc(n.cfg.ID).All() {
		if rec.Seq > 0 && rec.FinalizedAt != 0 {
			seqs = append(seqs, rec.Seq)
		}
	}
	return seqs
}

// rollbackTo executes a committed rollback on this node: fence the epoch,
// truncate checkpoints above the line in memory and on disk, rewind the
// protocol, and restore the application by replaying the line's durable
// message log. onDurable fires once the on-disk truncation has committed
// (immediately when the node has no store) — the signal that it is safe
// to acknowledge the coordinator.
func (n *Node) rollbackTo(line, epoch int, onDurable func()) {
	rec, ok := n.recordAt(line)
	if !ok {
		// A line this process never finalized cannot be restored; leave
		// the commit unacknowledged so the coordinator's timeout surfaces
		// the inconsistency instead of silently diverging.
		n.count("recovery.line_missing", 1)
		return
	}
	n.epoch = epoch
	n.cfg.Ckpts.Proc(n.cfg.ID).TruncateAfter(line)
	if fs := n.cfg.FS; fs != nil {
		// Disk truncation runs on the storage goroutine, after any persist
		// already in its queue, so a rolled-back checkpoint cannot be
		// written back post-truncate.
		n.postStorage(func() {
			if err := fs.TruncateAfter(line); err != nil {
				n.count("fsstore.errors", 1)
				return // no ACK: the truncation must land before we commit
			}
			n.persisted = line
			if onDurable != nil {
				onDurable()
			}
		})
	} else if onDurable != nil {
		onDurable()
	}
	rew, ok := n.cfg.Proto.(protocol.Rewinder)
	if !ok {
		panic(fmt.Sprintf("transport: protocol %q cannot roll back", n.cfg.Proto.Name()))
	}
	rew.Rollback(line)
	n.restoreApp(rec)
	n.recLine = line
	n.cfg.Rec.Record(trace.Event{T: n.Now(), Kind: trace.KRestore, Proc: n.cfg.ID, Peer: -1, Seq: line})
	n.count("recovery.rollbacks", 1)
	n.mRollbacks.Inc()
}

// recordAt fetches the checkpoint record at the recovery line, preferring
// the in-memory store and falling back to disk. Line 0 is the initial
// state and needs no record.
func (n *Node) recordAt(line int) (checkpoint.Record, bool) {
	if rec, ok := n.cfg.Ckpts.Proc(n.cfg.ID).Get(line); ok {
		return rec, true
	}
	if n.cfg.FS != nil {
		if rec, err := n.cfg.FS.Load(line); err == nil {
			return rec, true
		}
	}
	if line == 0 {
		return checkpoint.Record{}, true
	}
	return checkpoint.Record{}, false
}

// replayFold reconstructs the post-replay application state: restore the
// tentative checkpoint's fold and replay the logged messages over it —
// the paper's piecewise-deterministic recovery, validated against the
// fold recorded at finalization.
func (n *Node) replayFold(rec *checkpoint.Record) uint64 {
	fold := checkpoint.FoldLog(rec.Fold, rec.Log)
	if fold != rec.CFEFold {
		// The log does not reproduce the recorded state; resume from the
		// recorded fold (a state the process provably held) and flag the
		// divergence rather than inventing a new history.
		n.count("recovery.replay_mismatch", 1)
		return rec.CFEFold
	}
	n.count("recovery.replayed_msgs", int64(len(rec.Log)))
	n.mReplayed.Add(int64(len(rec.Log)))
	return fold
}

// restoreApp rewinds the node-held application state to the record and
// resumes the application from its recorded progress.
func (n *Node) restoreApp(rec checkpoint.Record) {
	n.fold = n.replayFold(&rec)
	n.work = rec.CFEWork
	n.stall = 0
	n.deferred = nil
	n.done.Store(false)
	ra, ok := n.cfg.App.(protocol.RewindableApp)
	if !ok {
		panic(fmt.Sprintf("transport: application on P%d cannot roll back", n.cfg.ID))
	}
	ra.Restore(nodeAppCtx{n}, rec.CFEProgress)
}
