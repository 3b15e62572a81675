package bench

import (
	"fmt"

	"repro/internal/fault"
	"repro/internal/pm2"
	"repro/internal/progs"
	"repro/internal/simtime"
)

// PartitionRow is one point of the partial-failure measurement: k
// concurrent negotiations launched while one rank is partitioned away,
// each forced to abandon the unreachable peer at its RPC deadline and
// plan around its slots.
type PartitionRow struct {
	K int `json:"k"`
	// RPCTimeouts counts the deadline expiries the k negotiations (and
	// any ambient protocol traffic) burned routing around the victim.
	RPCTimeouts int `json:"rpc_timeouts"`
	// NegotiationMicros is the negotiation makespan: the slowest of the
	// k concurrent negotiations, timeout and retry stalls included.
	NegotiationMicros float64 `json:"negotiation_us"`
}

// PartitionSlowRow is one point of the slow-node companion table: a
// single negotiation against a cluster whose victim rank multiplies
// wire time by Factor — slow enough to blow deadlines, but alive, so
// nothing may be suspected or evacuated.
type PartitionSlowRow struct {
	Factor            int     `json:"factor"`
	RPCTimeouts       int     `json:"rpc_timeouts"`
	NegotiationMicros float64 `json:"negotiation_us"`
}

// PartitionReport is the BENCH_partition.json schema, written by
// `pm2bench -fig partition -json` and gated through Records against
// the committed ci/BENCH_partition.baseline.json.
type PartitionReport struct {
	Figure string `json:"figure"`
	Nodes  int    `json:"nodes"`
	// RejoinMicros is the time the live victim spends suspected: from
	// the lease expiry that routed around it to the first heartbeat
	// round after the heal — a pure protocol quantity, independent of k.
	RejoinMicros float64            `json:"rejoin_us"`
	Rows         []PartitionRow     `json:"rows"`
	SlowRows     []PartitionSlowRow `json:"slow_rows"`
}

// Records gates the rejoin latency and the RPC-timeout counts exactly —
// lease arithmetic and deadline expiries are deterministic protocol
// quantities — and the negotiation makespans within tolerance. Zero
// evacuations is asserted inside Partition itself (it panics
// otherwise), so a report that exists at all carries that property.
func (r PartitionReport) Records() []Record {
	l := ledger{figure: "partition"}
	l.add(GateExact, 0, "µs", r.RejoinMicros, "rejoin")
	for _, row := range r.Rows {
		l.add(GateExact, 0, "", float64(row.RPCTimeouts), "k=%d timeouts", row.K)
		l.add(GateTol, latencyGraceMicros, "µs", row.NegotiationMicros, "k=%d makespan", row.K)
	}
	for _, row := range r.SlowRows {
		l.add(GateExact, 0, "", float64(row.RPCTimeouts), "slow x%d timeouts", row.Factor)
		l.add(GateTol, latencyGraceMicros, "µs", row.NegotiationMicros, "slow x%d nego", row.Factor)
	}
	return l.recs
}

// Partition window and heartbeat cadence for every partition run: the
// victim is unreachable from 1 ms to 9 ms, heartbeats tick every 1 ms,
// so the default 2-miss lease suspects it at 2 ms and the 9 ms round
// clears it — 7 ms spent suspected.
const (
	partitionStartMicros = 1_000
	partitionEndMicros   = 9_000
	partitionTickMicros  = 1_000
	// partitionNegoMicros launches the negotiations inside the window
	// but before the lease expires at 2 ms: the first initiator must
	// discover the victim unreachable through RPC deadlines; the ones
	// queued behind it run after suspicion lands and route around the
	// victim for free.
	partitionNegoMicros = 1_500
)

// Partition measures partial-failure tolerance on an 8-node cluster:
// for each k it partitions the last rank away from every peer, launches
// k concurrent negotiations from distinct live initiators mid-window,
// and reports the deadline expiries and the negotiation makespan. The
// victim is alive throughout: any evacuation, declaration, or failed
// negotiation panics the measurement rather than skewing it. The slow
// table repeats the exercise against a slowed (not partitioned) rank.
func Partition(ks, slowFactors []int) PartitionReport {
	report := PartitionReport{Figure: "partition", Nodes: 8}
	for _, k := range ks {
		timeouts, nego, rejoin := partitionRun(k)
		if report.RejoinMicros == 0 {
			report.RejoinMicros = rejoin
		} else if rejoin != report.RejoinMicros {
			panic(fmt.Sprintf("bench: rejoin latency moved with k: %v vs %v µs", rejoin, report.RejoinMicros))
		}
		report.Rows = append(report.Rows, PartitionRow{K: k, RPCTimeouts: timeouts, NegotiationMicros: nego})
	}
	for _, f := range slowFactors {
		timeouts, nego := slowRun(f)
		report.SlowRows = append(report.SlowRows, PartitionSlowRow{Factor: f, RPCTimeouts: timeouts, NegotiationMicros: nego})
	}
	return report
}

// partitionRun is one staged partition: the victim cut off from every
// peer for the window, k negotiations launched mid-window before the
// lease expires. Returns the RPC-timeout count, the negotiation
// makespan and the rejoin latency (µs).
func partitionRun(k int) (timeouts int, negoMicros, rejoinMicros float64) {
	const nodes = 8
	const victim = nodes - 1
	spec := ""
	for p := 0; p < victim; p++ {
		if p > 0 {
			spec += ";"
		}
		spec += fmt.Sprintf("partition:%d-%d@%d..%d", victim, p, partitionStartMicros, partitionEndMicros)
	}
	plan, err := fault.Parse(spec)
	if err != nil {
		panic(fmt.Sprintf("bench: partition plan: %v", err))
	}
	c := pm2.New(pm2.Config{
		Nodes:      nodes,
		RPCTimeout: -1,
		Faults:     plan,
	}, progs.NewImage())
	for i := 1; i <= 64; i++ {
		c.Engine().At(simtime.Time(i*partitionTickMicros)*simtime.Microsecond, c.HeartbeatTick)
	}
	succeeded := 0
	for i := 0; i < k; i++ {
		initiator := i % victim // every live rank but never the victim
		c.Engine().At(partitionNegoMicros*simtime.Microsecond, func() {
			c.At(initiator, func(n *pm2.Node) {
				n.Negotiate(3, func(ok bool) {
					if !ok {
						panic(fmt.Sprintf("bench: partition k=%d: negotiation from node %d failed", k, initiator))
					}
					succeeded++
				})
			})
		})
	}
	c.Run(0)
	st := c.Stats()
	if succeeded != k {
		panic(fmt.Sprintf("bench: partition k=%d: %d negotiations succeeded", k, succeeded))
	}
	if st.Evacuations != 0 || c.NodeDown(victim) {
		panic(fmt.Sprintf("bench: partition k=%d: live victim evacuated or declared dead", k))
	}
	if st.Suspicions != 1 || st.Rejoins != 1 || len(st.RejoinLatencies) != 1 {
		panic(fmt.Sprintf("bench: partition k=%d: suspicions=%d rejoins=%d", k, st.Suspicions, st.Rejoins))
	}
	var makespan simtime.Time
	for _, l := range st.NegotiationLatencies {
		if l > makespan {
			makespan = l
		}
	}
	return st.RPCTimeouts, makespan.Micros(), st.RejoinLatencies[0].Micros()
}

// slowRun is one negotiation against a 4-node cluster whose last rank
// multiplies wire time by factor for the whole run. Returns the
// RPC-timeout count and the negotiation latency (µs).
func slowRun(factor int) (timeouts int, negoMicros float64) {
	const nodes = 4
	const victim = nodes - 1
	plan, err := fault.Parse(fmt.Sprintf("slow:%dx%d@0..100000", victim, factor))
	if err != nil {
		panic(fmt.Sprintf("bench: slow plan: %v", err))
	}
	c := pm2.New(pm2.Config{
		Nodes:      nodes,
		RPCTimeout: -1,
		Faults:     plan,
	}, progs.NewImage())
	for i := 1; i <= 64; i++ {
		c.Engine().At(simtime.Time(i*partitionTickMicros)*simtime.Microsecond, c.HeartbeatTick)
	}
	ok := false
	c.Engine().At(partitionTickMicros*simtime.Microsecond, func() {
		c.At(0, func(n *pm2.Node) { n.Negotiate(3, func(r bool) { ok = r }) })
	})
	c.Run(0)
	st := c.Stats()
	if !ok {
		panic(fmt.Sprintf("bench: slow x%d: negotiation failed", factor))
	}
	if st.Suspicions != 0 || st.Evacuations != 0 {
		panic(fmt.Sprintf("bench: slow x%d: suspicions=%d evacuations=%d, want 0", factor, st.Suspicions, st.Evacuations))
	}
	if len(st.NegotiationLatencies) != 1 {
		panic(fmt.Sprintf("bench: slow x%d: %d latency samples", factor, len(st.NegotiationLatencies)))
	}
	return st.RPCTimeouts, st.NegotiationLatencies[0].Micros()
}
