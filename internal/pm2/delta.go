package pm2

import (
	"fmt"

	"repro/internal/bitmap"
	"repro/internal/layout"
	"repro/internal/madeleine"
)

// The delta gather (Config.Gather == GatherDelta): incremental,
// version-stamped bitmap exchange. PR 2's batched and tree gathers cut
// the wire term of the §4.4 negotiation, but the initiator still merges
// a full 7 KB map per peer per round. Here every node version-stamps its
// slot bitmap and journals the 64-bit words each ownership mutation
// dirtied (bitmap.Journal, fed from NodeSlots.SetOnChange); a
// negotiation initiator caches each peer's last-seen map plus version
// and asks only for the changes since then over chBitmapDelta. A peer
// replies:
//
//   - "unchanged" — the cached view is current; nothing shipped, nothing
//     merged;
//   - a word-indexed delta — the dirty words' absolute values, applied
//     onto the cached view and patched into the cached global OR in
//     place, charging merge cost on the delta bytes only;
//   - a full map — first contact, or the bounded journal truncated; the
//     cached view is replaced and the global OR rebuilt, at the same
//     cost a batched gather pays every round.
//
// Because every ownership mutation — local allocation, purchase,
// give-back, defragmentation install — bumps the owner's version, a
// cached view can never silently claim a slot the owner no longer has
// free: the next request's version mismatch ships the correction. The
// delta gather deliberately contacts every peer each round instead of
// hint-skipping: the "unchanged" reply is the pruning (a skipped peer's
// view would go stale and could plan doomed purchases forever), and it
// keeps every cached view coherent.

// deltaJournalWords bounds the per-node dirty-word journal. 64 words
// cover 4096 slots' worth of churn between two contacts by the same
// initiator; beyond that the journal truncates and the next request is
// answered with a full map — a pure bandwidth fallback.
const deltaJournalWords = 64

// deltaWordWireBytes is the wire footprint of one delta word: a u32
// word index plus the u64 word value.
const deltaWordWireBytes = 12

// chBitmapDelta reply statuses.
const (
	deltaReplyUnchanged uint32 = 0 // cached view is current
	deltaReplyWords     uint32 = 1 // word-indexed delta follows
	deltaReplyFull      uint32 = 2 // full map follows
)

// deltaPeerView is the initiator's cached knowledge of one peer: the
// last-seen bitmap and the version it corresponds to.
type deltaPeerView struct {
	known   bool
	version uint64
	bm      *bitmap.Bitmap
}

// gatherDelta runs one incremental gather round: every peer is asked
// for its bitmap changes since the cached version, the replies patch the
// cached views and global OR, and the purchase is planned on the result.
func (n *Node) gatherDelta(k, round int, done func(bool)) {
	if n.deltaPeers == nil {
		n.deltaPeers = make([]deltaPeerView, n.c.Nodes())
		n.deltaOr = bitmap.New(layout.SlotCount)
	}
	outstanding := 0
	for i := 0; i < n.c.Nodes(); i++ {
		if i != n.id && n.c.nodeAlive(i) {
			outstanding++
		}
	}
	if outstanding == 0 {
		n.planAndBuyDelta(k, round, done)
		return
	}
	for i := 0; i < n.c.Nodes(); i++ {
		if i == n.id || !n.c.nodeAlive(i) {
			continue
		}
		p := i
		known, version := n.deltaPeers[p].known, n.deltaPeers[p].version
		n.gatherCall(p, chBitmapDelta, func(b *madeleine.Buffer) {
			flag := uint32(0)
			if known {
				flag = 1
			}
			b.PackU32(flag).PackU64(version)
		}, func(reply *madeleine.Buffer) {
			n.applyDeltaReply(p, reply)
			outstanding--
			if outstanding == 0 {
				n.planAndBuyDelta(k, round, done)
			}
		}, func() {
			// Retries exhausted: plan on the cached view as-is. If the
			// peer's bitmap moved meanwhile, any purchase planned on the
			// stale view is declined and retried as usual.
			outstanding--
			if outstanding == 0 {
				n.planAndBuyDelta(k, round, done)
			}
		})
	}
}

// applyDeltaReply folds one peer's reply into the cached view and the
// cached global OR, charging merge cost on the bytes actually shipped.
func (n *Node) applyDeltaReply(p int, reply *madeleine.Buffer) {
	status := reply.U32()
	ver := reply.U64()
	view := &n.deltaPeers[p]
	switch status {
	case deltaReplyUnchanged:
		if view.bm == nil {
			panic(fmt.Sprintf("pm2: node %d claims unchanged on first contact", p))
		}
		// The cached view is current; nothing to merge.
	case deltaReplyWords:
		if view.bm == nil {
			panic(fmt.Sprintf("pm2: node %d sent a delta on first contact", p))
		}
		count := int(reply.U32())
		for i := 0; i < count; i++ {
			w := int(reply.U32())
			v := reply.U64()
			if w < 0 || w >= view.bm.Words() {
				panic(fmt.Sprintf("pm2: delta word %d from node %d out of range", w, p))
			}
			view.bm.SetWord(w, v)
			n.patchGlobalWord(w)
		}
		n.mergeCharge(count * deltaWordWireBytes)
	case deltaReplyFull:
		bm := n.unpackBitmap(p, reply)
		first := view.bm == nil
		view.bm = bm
		if first {
			n.deltaOr.Or(bm)
		} else {
			n.rebuildGlobalOr()
		}
		n.mergeCharge(layout.BitmapBytes)
	default:
		panic(fmt.Sprintf("pm2: bad delta-gather status %d from node %d", status, p))
	}
	if reply.Err() != nil {
		panic("pm2: corrupt delta-gather reply")
	}
	view.known = true
	view.version = ver
}

// patchGlobalWord recomputes one word of the cached global OR from the
// cached peer views — the in-place patch that replaces a full re-merge.
func (n *Node) patchGlobalWord(w int) {
	var or uint64
	for q := range n.deltaPeers {
		if q == n.id {
			continue
		}
		if bm := n.deltaPeers[q].bm; bm != nil {
			or |= bm.Word(w)
		}
	}
	n.deltaOr.SetWord(w, or)
}

// rebuildGlobalOr recomputes the cached global OR from scratch, needed
// only when a non-first-contact full map replaces a view (journal
// truncation) and stale bits may have to disappear.
func (n *Node) rebuildGlobalOr() {
	n.deltaOr = bitmap.New(layout.SlotCount)
	for q := range n.deltaPeers {
		if q == n.id {
			continue
		}
		if bm := n.deltaPeers[q].bm; bm != nil {
			n.deltaOr.Or(bm)
		}
	}
}

// planAndBuyDelta plans the purchase on the cached global view — own
// bitmap merged fresh, it is local and always current — and executes it
// through the same per-owner purchase path as the sequential and batched
// gathers, so declines and give-backs retry identically (and the retry's
// re-gather ships only the deltas the failed round caused).
func (n *Node) planAndBuyDelta(k, round int, done func(bool)) {
	// First-fit search over the global map (step 2d).
	n.actor.Charge(n.c.cfg.Model.BitmapScan(layout.BitmapBytes))
	own := n.slots.Bitmap().Clone()
	global := n.deltaOr.Clone()
	global.Or(own)
	maps := make([]*bitmap.Bitmap, n.c.Nodes())
	maps[n.id] = own
	for p := range n.deltaPeers {
		if p != n.id {
			maps[p] = n.deltaPeers[p].bm
		}
	}
	plan, ok := n.planOn(global, maps, k)
	if !ok {
		done(false)
		return
	}
	n.executePurchase(k, round, plan, done)
}

// onBitmapDeltaCall serves the incremental gather: answer with nothing,
// the dirty words, or the full map, depending on what the journal still
// knows about the caller's cached version.
func (n *Node) onBitmapDeltaCall(src int, req *madeleine.Call) {
	known := req.Msg.U32()
	since := req.Msg.U64()
	if req.Msg.Err() != nil || known > 1 {
		panic("pm2: corrupt delta-gather request")
	}
	if n.journal == nil {
		panic("pm2: delta gather served by a node without a journal")
	}
	ver := n.journal.Version()
	if known == 1 {
		if words, ok := n.journal.WordsSince(since); ok {
			if len(words) == 0 {
				req.Reply(func(b *madeleine.Buffer) {
					b.PackU32(deltaReplyUnchanged).PackU64(ver)
				})
				return
			}
			bm := n.slots.Bitmap()
			n.actor.Charge(n.c.cfg.Model.Memcpy(len(words) * deltaWordWireBytes))
			req.Reply(func(b *madeleine.Buffer) {
				b.PackU32(deltaReplyWords).PackU64(ver)
				b.PackU32(uint32(len(words)))
				for _, w := range words {
					b.PackU32(uint32(w)).PackU64(bm.Word(w))
				}
			})
			return
		}
	}
	// First contact, or the journal truncated past the caller's version:
	// fall back to the full map, exactly as a batched gather ships it.
	raw := n.slots.Bitmap().Bytes()
	n.actor.Charge(n.c.cfg.Model.Memcpy(len(raw)))
	req.Reply(func(b *madeleine.Buffer) {
		b.PackU32(deltaReplyFull).PackU64(ver)
		b.PackBytes(raw)
	})
}
