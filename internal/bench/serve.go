package bench

import (
	"fmt"

	"repro/internal/scenario"
	"repro/internal/scenario/serve"
)

// ServeSLOBudgetMicros is the serving SLO the saturation analyzer holds
// every cohort to: worst per-cohort p99 end-to-end latency, in virtual
// microseconds. A rate point is sustainable only when the run drains
// within budget and meets this bound.
const ServeSLOBudgetMicros = 50_000

// ServeRateScales is the canonical saturation sweep: multiples of the
// base three-tenant arrival rate (~2.35 requests per virtual ms).
func ServeRateScales() []float64 {
	return []float64{1, 2, 4, 8, 12, 16, 24, 32}
}

// ServeCohortReport is one cohort's SLO summary at the base arrival
// rate — the per-tenant serving quality the CI report records.
type ServeCohortReport struct {
	Cohort         string  `json:"cohort"`
	Requests       int     `json:"requests"`
	PlacementP50Us float64 `json:"placement_p50_us"`
	PlacementP95Us float64 `json:"placement_p95_us"`
	PlacementP99Us float64 `json:"placement_p99_us"`
	EndToEndP50Us  float64 `json:"e2e_p50_us"`
	EndToEndP95Us  float64 `json:"e2e_p95_us"`
	EndToEndP99Us  float64 `json:"e2e_p99_us"`
}

// ServeSweepPoint is one rate point of the saturation sweep.
type ServeSweepPoint struct {
	RateScale float64 `json:"rate_scale"`
	Requests  int     `json:"requests"`
	Completed int     `json:"completed"`
	// Saturated: the run was cut off by its step budget with work still
	// pending (only past-knee points run under a tightened budget).
	Saturated bool `json:"saturated"`
	// WorstP99Us is the worst per-cohort p99 end-to-end latency over
	// the requests that completed.
	WorstP99Us float64 `json:"worst_p99_us"`
	// Sustainable: drained within budget and WorstP99Us within the SLO.
	Sustainable bool `json:"sustainable"`
}

// ServeClusterReport is the serving figure for one cluster size: the
// per-cohort SLO at base rate plus the saturation sweep and its knee.
type ServeClusterReport struct {
	Nodes   int                 `json:"nodes"`
	Cohorts []ServeCohortReport `json:"cohorts"`
	Sweep   []ServeSweepPoint   `json:"sweep"`
	// KneeRateScale is the highest sustainable rate scale (0 when even
	// the base rate misses the SLO) — the throughput knee the CI gate
	// holds as a floor.
	KneeRateScale float64 `json:"knee_rate_scale"`
	// KneeThroughputPerMs is the completed requests per virtual
	// millisecond at the knee point.
	KneeThroughputPerMs float64 `json:"knee_throughput_per_ms"`
}

// ServeReport is the BENCH_serve.json schema, written by `pm2bench
// -fig serve -json` and gated through Records against the committed
// ci/BENCH_serve.baseline.json.
type ServeReport struct {
	Figure      string               `json:"figure"`
	Policy      string               `json:"policy"`
	Seed        uint64               `json:"seed"`
	SLOBudgetUs float64              `json:"slo_budget_us"`
	Clusters    []ServeClusterReport `json:"clusters"`
}

// Records holds each cluster size's saturation knee (rate scale and
// sustained throughput) as a floor: a knee that falls is lost serving
// capacity. The per-cohort base-rate percentiles are context — the SLO
// bound itself is enforced inside the knee criterion.
func (r ServeReport) Records() []Record {
	l := ledger{figure: "serve"}
	for _, c := range r.Clusters {
		l.add(GateFloor, 0, "×base rate", c.KneeRateScale, "n=%d knee", c.Nodes)
		l.add(GateFloor, 0, "req/ms", c.KneeThroughputPerMs, "n=%d knee throughput", c.Nodes)
		for _, co := range c.Cohorts {
			l.add(GateInfo, 0, "µs", co.EndToEndP50Us, "n=%d %s e2e p50", c.Nodes, co.Cohort)
			l.add(GateInfo, 0, "µs", co.EndToEndP95Us, "n=%d %s e2e p95", c.Nodes, co.Cohort)
			l.add(GateInfo, 0, "µs", co.EndToEndP99Us, "n=%d %s e2e p99", c.Nodes, co.Cohort)
		}
	}
	return l.recs
}

// serveRun replays the derived serving workload at one rate scale.
func serveRun(policy string, seed uint64, nodes int, scale float64, maxSteps int) (*scenario.Result, error) {
	sp := serve.DeriveSpec(seed, nodes)
	sp.RateScale = scale
	reqs, err := sp.Synthesize(nodes)
	if err != nil {
		return nil, err
	}
	res, err := scenario.Replay(scenario.Spec{
		Policy:         policy,
		Nodes:          nodes,
		Seed:           seed,
		MaxSteps:       maxSteps,
		AllowSaturated: true,
	}, reqs)
	if err != nil {
		return nil, err
	}
	if len(reqs) > 0 && len(res.Stats.CohortSamples) != len(reqs) {
		return nil, fmt.Errorf("bench: serve run recorded %d samples for %d requests", len(res.Stats.CohortSamples), len(reqs))
	}
	return res, nil
}

// worstP99 returns the worst per-cohort p99 end-to-end latency.
func worstP99(slos []scenario.CohortSLO) float64 {
	var worst float64
	for _, s := range slos {
		if s.EndToEnd.P99 > worst {
			worst = s.EndToEnd.P99
		}
	}
	return worst
}

// ServeFigure measures the serving workload on one cluster size: the
// per-cohort SLO at the base rate, then the ascending saturation sweep.
// The knee is the highest rate scale whose run drains and keeps every
// cohort's p99 end-to-end latency within ServeSLOBudgetMicros. Once a
// point misses the SLO the remaining (strictly worse) points run under
// a tightened step budget — twice the steps of the last sustainable
// point — so they cut off cheaply through the Saturated path instead of
// simulating a hopeless backlog to the end. Virtual steps are
// deterministic, so the cutoffs are too.
func ServeFigure(policy string, seed uint64, nodes int, scales []float64) (ServeClusterReport, error) {
	rep := ServeClusterReport{Nodes: nodes}

	base, err := serveRun(policy, seed, nodes, 1, 0)
	if err != nil {
		return rep, err
	}
	if base.Saturated {
		return rep, fmt.Errorf("bench: base-rate serve run saturated the default step budget")
	}
	if err := base.Verify(); err != nil {
		return rep, err
	}
	for _, s := range base.CohortSLOs() {
		rep.Cohorts = append(rep.Cohorts, ServeCohortReport{
			Cohort:         s.Cohort,
			Requests:       s.Requests,
			PlacementP50Us: s.Placement.P50,
			PlacementP95Us: s.Placement.P95,
			PlacementP99Us: s.Placement.P99,
			EndToEndP50Us:  s.EndToEnd.P50,
			EndToEndP95Us:  s.EndToEnd.P95,
			EndToEndP99Us:  s.EndToEnd.P99,
		})
	}

	pastKnee := false
	budget := 0 // 0 = the harness default
	var lastSustainableSteps uint64
	for _, scale := range scales {
		res, err := serveRun(policy, seed, nodes, scale, budget)
		if err != nil {
			return rep, err
		}
		slos := res.CohortSLOs()
		pt := ServeSweepPoint{RateScale: scale, Saturated: res.Saturated, WorstP99Us: worstP99(slos)}
		for _, s := range slos {
			pt.Requests += s.Requests
			pt.Completed += s.Completed
		}
		pt.Sustainable = !res.Saturated && pt.WorstP99Us <= ServeSLOBudgetMicros
		rep.Sweep = append(rep.Sweep, pt)
		if pt.Sustainable {
			rep.KneeRateScale = scale
			if virtMs := res.VirtualMicros / 1000; virtMs > 0 {
				rep.KneeThroughputPerMs = float64(pt.Completed) / virtMs
			}
			lastSustainableSteps = res.Steps
		} else if !pastKnee {
			pastKnee = true
			if lastSustainableSteps > 0 {
				budget = int(2 * lastSustainableSteps)
			}
		}
	}
	return rep, nil
}

// ServeSweep runs ServeFigure for each cluster size and assembles the
// BENCH_serve.json report.
func ServeSweep(policy string, seed uint64, nodeCounts []int) (ServeReport, error) {
	rep := ServeReport{
		Figure:      "serve",
		Policy:      policy,
		Seed:        seed,
		SLOBudgetUs: ServeSLOBudgetMicros,
	}
	for _, nodes := range nodeCounts {
		cl, err := ServeFigure(policy, seed, nodes, ServeRateScales())
		if err != nil {
			return rep, err
		}
		rep.Clusters = append(rep.Clusters, cl)
	}
	return rep, nil
}
