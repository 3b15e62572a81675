package bench

import (
	"encoding/json"
	"fmt"
)

// The bench ledger: every CI-gated figure flattens its report into
// Records, each declaring how it is gated. cmd/benchcheck is one loop
// over them, so the figure that defines a field also decides whether
// a drift in it is a regression, and a schema change is a
// compile-time event here rather than a silently neutralized gate.

// Gate says how a record's current value is held against its baseline.
type Gate string

const (
	// GateExact: a deterministic virtual quantity (an event or timeout
	// count, a protocol latency, a workload parameter); any change is a
	// behavior change, not noise.
	GateExact Gate = "exact"
	// GateTol: a cost that may rise at most Tolerance above baseline,
	// plus the record's Grace.
	GateTol Gate = "tol"
	// GateFloor: a capacity that may fall at most Tolerance below
	// baseline, minus the record's Grace.
	GateFloor Gate = "floor"
	// GateInfo: context, never compared — wall clock, speedups, byte
	// counts already pinned by unit tests.
	GateInfo Gate = "info"
)

// Tolerance is the relative slack of the tol and floor gates.
const Tolerance = 0.25

// slopeGraceMicros and latencyGraceMicros are the absolute slack of
// the tol gate on per-node slopes and on latencies, so figures measured
// in single-digit µs are not failed by sub-µs jitter in the cost
// accounting.
const (
	slopeGraceMicros   = 0.5
	latencyGraceMicros = 1.0
)

// Record is one ledger entry: a figure's named metric, its value, and
// the gate that holds it.
type Record struct {
	Figure, Metric, Unit string
	Value                float64
	// Grace is the absolute slack a tol or floor gate adds to Tolerance.
	Grace float64
	Gate  Gate
}

// Limit returns the bound a current value is held to when r is the
// baseline: the ceiling of a tol gate, the floor of a floor gate, and
// the value itself otherwise.
func (r Record) Limit() float64 {
	switch r.Gate {
	case GateTol:
		return r.Value*(1+Tolerance) + r.Grace
	case GateFloor:
		return max(0, r.Value*(1-Tolerance)-r.Grace)
	}
	return r.Value
}

// Admits reports whether cur passes the gate baseline r declares.
func (r Record) Admits(cur float64) bool {
	switch r.Gate {
	case GateExact:
		return cur == r.Value
	case GateTol:
		return cur <= r.Limit()
	case GateFloor:
		return cur >= r.Limit()
	}
	return true
}

// ledger accumulates one figure's records.
type ledger struct {
	figure string
	recs   []Record
}

// add appends a record whose metric name is formatted from metric and a.
func (l *ledger) add(g Gate, grace float64, unit string, v float64, metric string, a ...any) {
	l.recs = append(l.recs, Record{
		Figure: l.figure, Metric: fmt.Sprintf(metric, a...), Unit: unit,
		Value: v, Grace: grace, Gate: g,
	})
}

// DecodeRecords parses a pm2bench -json report of any gated figure,
// dispatching on its "figure" field, and returns its records. A report
// with no rows is refused: it would gate nothing.
func DecodeRecords(blob []byte) ([]Record, error) {
	var head struct {
		Figure string `json:"figure"`
	}
	if err := json.Unmarshal(blob, &head); err != nil {
		return nil, err
	}
	var r interface{ Records() []Record }
	var rows func() int
	switch head.Figure {
	case "negotiation":
		n := &NegotiationReport{}
		r, rows = n, func() int { return len(n.Gathers) }
	case "migration":
		m := &MigrationReport{}
		r, rows = m, func() int { return len(m.Convoy) }
	case "serve":
		s := &ServeReport{}
		r, rows = s, func() int { return len(s.Clusters) }
	case "failover":
		f := &FailoverReport{}
		r, rows = f, func() int { return len(f.Rows) }
	case "partition":
		p := &PartitionReport{}
		r, rows = p, func() int { return len(p.Rows) }
	case "scale":
		s := &ScaleReport{}
		r, rows = s, func() int { return len(s.Clusters) }
	default:
		return nil, fmt.Errorf("bench: unknown figure %q", head.Figure)
	}
	if err := json.Unmarshal(blob, r); err != nil {
		return nil, err
	}
	if rows() == 0 {
		return nil, fmt.Errorf("bench: not a %s report", head.Figure)
	}
	return r.Records(), nil
}
