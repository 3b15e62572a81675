package pm2

import (
	"fmt"

	"repro/internal/layout"
	"repro/internal/simtime"
)

// The negotiation arbiter (Config.Arbiter) is the concurrency scheme of
// the §4.4 protocol's step 2a. The paper funnels every negotiation
// through one system-wide critical section hosted on node 0; with the
// gather payload already cut (Config.Gather), that single lock is the
// remaining serialization point. The decentralized optimistic scheme
// relaxes it: there is no lock at all. Initiators plan against their
// gathered (or delta-cached) view and stamp each purchase with the
// seller's bitmap-journal version that view corresponds to; a seller
// whose version moved since then declines the stale plan. The initiator
// gives secured shares back and re-plans after a deterministic
// per-attempt backoff, within the usual round bound; exhaustion feeds
// Stats.NegotiationFailures.
//
// A node still runs its *own* negotiations one at a time (a local
// queue replaces the global one), which keeps the give-back accounting
// and retry invariants intact; the parallelism is across initiators,
// which is where the contention was.

// ArbiterMode selects the negotiation concurrency scheme.
type ArbiterMode int

const (
	// ArbiterGlobal is the paper-faithful default: one system-wide
	// critical section hosted on node 0. Every golden trace pins it.
	ArbiterGlobal ArbiterMode = iota
	// ArbiterOptimistic takes no lock: purchases are version-stamped
	// and sellers decline plans computed against a stale bitmap view.
	ArbiterOptimistic
)

func (a ArbiterMode) String() string {
	switch a {
	case ArbiterOptimistic:
		return "optimistic"
	}
	return "global"
}

// ParseArbiterMode resolves an arbiter name. Empty selects the
// paper-faithful global lock.
func ParseArbiterMode(s string) (ArbiterMode, error) {
	switch s {
	case "", "global", "lock":
		return ArbiterGlobal, nil
	case "optimistic", "opt", "occ":
		return ArbiterOptimistic, nil
	}
	return ArbiterGlobal, fmt.Errorf("pm2: unknown arbiter %q (have %v)", s, ArbiterModeNames())
}

// ArbiterModeNames lists the canonical arbiter names.
func ArbiterModeNames() []string { return []string{"global", "optimistic"} }

// negotiationBackoffBase is the first retry's deterministic delay; each
// further attempt doubles it. The backoff breaks optimistic livelock —
// two initiators declining each other's purchases re-plan at different
// virtual times instead of re-colliding forever — and makes attempt
// counts reproducible run to run.
const negotiationBackoffBase = 25 * simtime.Microsecond

// negotiationBackoff returns the deterministic delay before re-running
// a declined round: 25 µs doubling per attempt.
func negotiationBackoff(round int) simtime.Time {
	return negotiationBackoffBase << uint(round)
}

// startLocalNegotiation runs fn now, or queues it behind this node's
// negotiation in flight. The optimistic arbiter drops the global
// queue on node 0; this local queue preserves the invariant the retry
// path relies on — one negotiation per node at a time, so give-backs of
// one round can never interleave with another round's gather.
func (n *Node) startLocalNegotiation(fn func()) {
	if n.negBusy {
		n.negQueue = append(n.negQueue, fn)
		return
	}
	n.negBusy = true
	fn()
}

// finishLocalNegotiation releases the local slot and starts the next
// queued negotiation, if any.
func (n *Node) finishLocalNegotiation() {
	if len(n.negQueue) > 0 {
		next := n.negQueue[0]
		n.negQueue = n.negQueue[:copy(n.negQueue, n.negQueue[1:])]
		next()
		return
	}
	n.negBusy = false
}

// homeOrigin returns where this node starts its run search under the
// optimistic arbiter: the slot space divided into per-rank home
// regions. Concurrent initiators therefore plan in disjoint regions,
// so their version checks rarely collide, while the wrap-around keeps
// every slot reachable when a home region is exhausted.
func (n *Node) homeOrigin() int {
	return n.id * (layout.SlotCount / n.c.Nodes())
}
