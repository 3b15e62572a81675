package main

import (
	"bufio"
	"encoding/json"
	"io"
	"sync"
	"time"

	"repro/internal/policy"
)

// span is one host-clock interval the benchmark spent in a call into
// the program. Parent is the innermost span open when it began.
type span struct {
	id, parent int
	name       string
	start, end time.Duration
	args       map[string]any
}

// recorder keeps the spans of a traced repetition in memory until the
// repetition ends. A disabled recorder records nothing: begin returns 0
// and end ignores it.
type recorder struct {
	on    bool
	t0    time.Time
	mu    sync.Mutex
	spans []span
	open  []int
}

func newRecorder(on bool) *recorder { return &recorder{on: on, t0: time.Now()} }

// begin opens a span under the innermost open span and returns its id.
func (r *recorder) begin(name string) int {
	if !r.on {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	parent := 0
	if len(r.open) > 0 {
		parent = r.open[len(r.open)-1]
	}
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{id: id, parent: parent, name: name, start: time.Since(r.t0)})
	r.open = append(r.open, id)
	return id
}

// end closes span id, which must be the innermost open one.
func (r *recorder) end(id int, args map[string]any) {
	if !r.on || id == 0 {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s := &r.spans[id-1]
	s.end = time.Since(r.t0)
	s.args = args
	r.open = r.open[:len(r.open)-1]
}

// vreq is one request's virtual-time lifecycle, in microseconds.
type vreq struct {
	id                        int
	cohort                    string
	node                      int
	arrival, placed, finished float64
}

// traceEvent is one Chrome trace-event record.
type traceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// writeChrome writes the recorded host spans (process 1) and the
// per-request virtual lifecycles (process 2, one row per request id) as
// Chrome trace-event JSON, readable by chrome://tracing and Perfetto.
func (r *recorder) writeChrome(w io.Writer, res *result, meta map[string]any) error {
	evs := []traceEvent{
		{Name: "process_name", Ph: "M", Pid: 1, Args: map[string]any{"name": "host clock (perfbench calls into the layers)"}},
		{Name: "process_name", Ph: "M", Pid: 2, Args: map[string]any{"name": "virtual clock (one row per request)"}},
	}
	for _, s := range r.spans {
		args := map[string]any{"id": s.id, "parent": s.parent}
		for k, v := range s.args {
			args[k] = v
		}
		evs = append(evs, traceEvent{Name: s.name, Cat: "host", Ph: "X", Pid: 1, Tid: 1,
			Ts: float64(s.start.Nanoseconds()) / 1e3, Dur: float64((s.end - s.start).Nanoseconds()) / 1e3, Args: args})
	}
	for _, q := range res.vreqs {
		args := map[string]any{"request": q.id, "cohort": q.cohort, "node": q.node}
		evs = append(evs,
			traceEvent{Name: "request", Cat: "virtual", Ph: "X", Pid: 2, Tid: q.id, Ts: q.arrival, Dur: q.finished - q.arrival, Args: args},
			traceEvent{Name: "placement", Cat: "virtual", Ph: "X", Pid: 2, Tid: q.id, Ts: q.arrival, Dur: q.placed - q.arrival, Args: map[string]any{"request": q.id}},
			traceEvent{Name: "run", Cat: "virtual", Ph: "X", Pid: 2, Tid: q.id, Ts: q.placed, Dur: q.finished - q.placed, Args: map[string]any{"request": q.id}})
	}
	bw := bufio.NewWriter(w)
	if err := json.NewEncoder(bw).Encode(map[string]any{"traceEvents": evs, "otherData": meta}); err != nil {
		return err
	}
	return bw.Flush()
}

// policyTimer accumulates the host time of every decision call made
// through the placement policies it wraps.
type policyTimer struct {
	rec   *recorder
	mu    sync.Mutex
	calls int
	total time.Duration
}

// wrap returns a pass-through policy that times each decision call into
// p and records a span for it.
func (t *policyTimer) wrap(p policy.Policy) policy.Policy { return &timedPolicy{inner: p, t: t} }

func (t *policyTimer) timed(name string, fn func()) {
	sp := t.rec.begin(name)
	start := time.Now()
	fn()
	d := time.Since(start)
	t.rec.end(sp, nil)
	t.mu.Lock()
	t.calls++
	t.total += d
	t.mu.Unlock()
}

// meanNs is the mean host time of one decision call.
func (t *policyTimer) meanNs() float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return ratio(float64(t.total.Nanoseconds()), float64(t.calls))
}

// timedPolicy forwards every call to inner, timing the decisions. Load
// reports are forwarded untimed: they are sampling, not deciding.
type timedPolicy struct {
	inner policy.Policy
	t     *policyTimer
}

// ReroutesSpawns keeps the runtime's spawn path exactly as it is for
// the wrapped policy.
func (p *timedPolicy) ReroutesSpawns() bool { return policy.Reroutes(p.inner) }

func (p *timedPolicy) Name() string                     { return p.inner.Name() }
func (p *timedPolicy) OnLoadReport(r policy.LoadReport) { p.inner.OnLoadReport(r) }

func (p *timedPolicy) ShouldMigrate(v policy.View) (ok bool) {
	p.t.timed("policy ShouldMigrate", func() { ok = p.inner.ShouldMigrate(v) })
	return ok
}

func (p *timedPolicy) PickTarget(v policy.View) (moves []policy.Move) {
	p.t.timed("policy PickTarget", func() { moves = p.inner.PickTarget(v) })
	return moves
}

func (p *timedPolicy) PickSpawn(pref int, v policy.View) (n int) {
	p.t.timed("policy PickSpawn", func() { n = p.inner.PickSpawn(pref, v) })
	return n
}
