package main

import (
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"regexp"
	"runtime"
	"slices"
	"strconv"
	"time"

	"repro/internal/asm"
	"repro/internal/isa"
	"repro/internal/loadbal"
	ipm2 "repro/internal/pm2"
	"repro/internal/policy"
	"repro/internal/rng"
	"repro/internal/scenario"
	"repro/internal/scenario/serve"
	"repro/internal/simtime"
)

// Workload names, in the order the benchmark lists them.
const (
	wServe = "serve"
	wAlloc = "alloc"
	wRing  = "ring"
)

var workloadNames = []string{wServe, wAlloc, wRing}

// Workload sizes. Each is fixed so that one repetition does the same
// amount of work whatever the seed: the seed changes the draws, never
// the request count or the cluster.
const (
	balancePeriod = 2 * simtime.Millisecond

	serveNodes    = 64
	serveRefScale = 16
	// serveHorizonUs is DeriveSpec's arrival window; serveWork is the
	// worker iterations the reference rate offers in it on average.
	serveHorizonUs = 10_000
	serveWork      = 3_600_000
	// serveSLOUs is the latency limit the knee search holds req_tail_us to.
	serveSLOUs = 50_000

	allocNodes    = 64
	allocRequests = 800
	// allocMultiPct is the multi-slot share of alloc's requests. Below
	// half, so req_p50_us falls inside the single-slot population
	// instead of on the boundary between the two.
	allocMultiPct  = 40
	allocMeanGapUs = 20_000

	ringNodes   = 1024
	ringWorkers = 2
	ringHops    = 16
	ringSpin    = 2000
	// ringCheckpointUs is the mid-run capture instant: before the first
	// traveller exits (about 13.4 ms) and about half of the median
	// traveller's hops, so every thread is captured in flight.
	ringCheckpointUs = 13_000
)

// serveLadder is the rate ladder of the knee search, in multiples of
// the DeriveSpec base rate. The reference rate is its first rung.
var serveLadder = []float64{serveRefScale, 24, 32, 40, 48}

// request is one generated arrival: a thread running prog with arg,
// spawned at virtual time at preferring node.
type request struct {
	at     simtime.Time
	node   int
	prog   string
	arg    uint32
	cohort string
}

// ringThread is one generated ring traveller: it starts on node,
// carries payload bytes of isomalloc data and hops ringHops times.
type ringThread struct {
	node    int
	payload uint32
}

// input is everything a workload's generator draws from the seed. The
// program receives only these values.
type input struct {
	reqs []request
	ring []ringThread
	// horizon is the last arrival instant.
	horizon simtime.Time
}

// generate draws a workload's input from the seed. A positive
// rateScale asks for a knee-search rung instead of the reference serve
// stream: DeriveSpec's stream over its own window at that rate, so the
// offered work grows with the rate.
func generate(workload string, seed uint64, rateScale float64) (input, error) {
	switch workload {
	case wServe:
		// The reference stream is the seed's DeriveSpec stream at the
		// reference rate, cut after a fixed amount of worker iterations:
		// every seed then asks the same total work of the cluster, and
		// only its shape varies.
		sp := serve.DeriveSpec(seed, serveNodes)
		sp.RateScale = rateScale
		cut := rateScale == 0
		if cut {
			sp.RateScale = serveRefScale
			sp.HorizonMicros = 4 * serveHorizonUs
		}
		rs, err := sp.Synthesize(serveNodes)
		if err != nil {
			return input{}, err
		}
		in := input{}
		left := serveWork
		for _, q := range rs {
			if cut && left <= 0 {
				break
			}
			if q.Prog == "worker" {
				left -= int(q.Arg)
			}
			in.reqs = append(in.reqs, request{at: q.At, node: q.Pref, prog: q.Prog, arg: q.Arg, cohort: q.Cohort})
			in.horizon = q.At
		}
		if cut && left > 0 {
			return input{}, fmt.Errorf("serve stream too short for %d worker iterations", serveWork)
		}
		return in, nil
	case wAlloc:
		// A fixed share of the requests is multi-slot, shuffled among
		// the single-slot ones, so every seed has the same mix.
		r := rng.New(seed)
		multi := make([]bool, allocRequests)
		for i := 0; i < allocRequests*allocMultiPct/100; i++ {
			multi[i] = true
		}
		for i := len(multi) - 1; i > 0; i-- {
			j := r.Intn(i + 1)
			multi[i], multi[j] = multi[j], multi[i]
		}
		in := input{}
		t := 0.0
		for _, m := range multi {
			t += r.Exp(1.0 / allocMeanGapUs)
			q := request{at: simtime.Time(math.Floor(t)) * simtime.Microsecond, node: r.Intn(allocNodes), prog: "negostress"}
			if m {
				q.arg, q.cohort = uint32(r.Range(130_000, 250_000)), "multi"
			} else {
				q.arg, q.cohort = uint32(r.Range(4_000, 40_000)), "single"
			}
			in.reqs = append(in.reqs, q)
			in.horizon = q.at
		}
		return in, nil
	case wRing:
		r := rng.New(seed)
		in := input{ring: make([]ringThread, ringNodes/2)}
		for i := range in.ring {
			in.ring[i] = ringThread{node: 2 * i, payload: uint32(r.Range(8<<10, 32<<10)) &^ 3}
		}
		return in, nil
	}
	return input{}, fmt.Errorf("unknown workload %q (have %v)", workload, workloadNames)
}

// ringSrc is the ring traveller: it isomallocs r3 bytes, writes a
// marker derived from its id r4 into the first and last word, then
// spins r2 iterations and hops to the next node, r1 times. At the end
// it checks both markers and prints its id, the virtual exit time in
// µs and its node.
const ringSrc = `
.program ringpay
.string fmt_ok  "ring %u ok at %u on node %d\n"
.string fmt_bad "ring %u BAD marker\n"
main:
    enter 24
    store [fp-4], r1        ; hops remaining
    store [fp-8], r2        ; spin per hop
    store [fp-12], r3       ; payload bytes
    store [fp-16], r4       ; id
    mov   r1, r3
    callb isomalloc
    store [fp-20], r0
    loadi r5, 0
    beq   r0, r5, bad
    load  r5, [fp-16]
    loadi r6, 1592590336    ; 0x5EED0000
    add   r5, r5, r6
    store [fp-24], r5       ; marker
    store [r0], r5
    load  r7, [fp-12]
    add   r7, r0, r7
    store [r7-4], r5
loop:
    load  r3, [fp-8]
spin:
    loadi r4, 0
    beq   r3, r4, hop
    addi  r3, r3, -1
    br    spin
hop:
    load  r1, [fp-4]
    loadi r2, 0
    beq   r1, r2, done
    addi  r1, r1, -1
    store [fp-4], r1
    callb self_node
    addi  r1, r0, 1
    callb node_count
    mov   r2, r0
    mod   r1, r1, r2
    callb migrate
    br    loop
done:
    load  r0, [fp-20]
    load  r6, [fp-24]
    load  r5, [r0]
    bne   r5, r6, bad
    load  r7, [fp-12]
    add   r7, r0, r7
    load  r5, [r7-4]
    bne   r5, r6, bad
    load  r1, [fp-20]
    callb isofree
    callb clock
    store [fp-8], r0
    callb self_node
    mov   r4, r0
    load  r3, [fp-8]
    load  r2, [fp-16]
    loadi r1, fmt_ok
    callb printf
    leave
    halt
bad:
    load  r2, [fp-16]
    loadi r1, fmt_bad
    callb printf
    leave
    halt
`

// newImage returns the program image every workload boots: the
// scenario harness programs (worker, chain, negostress) plus ringpay.
func newImage() *isa.Image {
	im := scenario.Image()
	asm.MustAssemble(im, ringSrc)
	return im
}

// config returns the cluster configuration of a workload. workers
// overrides the ring's kernel worker count when positive.
func config(workload string, workers int, pol policy.Policy) ipm2.Config {
	switch workload {
	case wServe:
		return ipm2.Config{Nodes: serveNodes, Placement: pol}
	case wAlloc:
		return ipm2.Config{Nodes: allocNodes, Placement: pol}
	}
	if workers <= 0 {
		workers = ringWorkers
	}
	return ipm2.Config{Nodes: ringNodes, Workers: workers, Placement: pol}
}

// placementPolicy returns the workload's placement policy.
func placementPolicy(workload string) policy.Policy {
	name := "negotiation"
	if workload == wServe {
		name = "work-stealing"
	}
	p, err := policy.Parse(name)
	if err != nil {
		panic(err)
	}
	return p
}

// options selects one repetition.
type options struct {
	workload string
	seed     uint64
	traced   bool
	// invariants runs CheckInvariants at the end of each episode. It
	// is the one costly check (slots × nodes), so a run makes it on its
	// first repetition only; the others must match that one's digest.
	invariants bool
	// workers overrides the ring's kernel worker count (0 = default).
	workers int
	// rateScale selects a serve knee-search rung (0 = the reference
	// stream; see generate).
	rateScale float64
	// episodes overrides the workload's episode count (0 = default);
	// stream is the first episode's index among the seed's streams.
	episodes int
	stream   int
	// stepBudget bounds the drain (0 = drain fully); a run that hits
	// it is reported as saturated, not as failed.
	stepBudget uint64
	// traceOut receives the Chrome trace of a traced repetition.
	traceOut io.Writer
}

// ckptPhases is the host cost of one checkpoint round trip.
type ckptPhases struct {
	CaptureS     float64 `json:"capture_s"`
	EncodeS      float64 `json:"encode_s"`
	DecodeS      float64 `json:"decode_s"`
	RestoreS     float64 `json:"restore_s"`
	Bytes        int     `json:"bytes"`
	EncodeAllocs uint64  `json:"encode_allocs"`
	DecodeAllocs uint64  `json:"decode_allocs"`
}

// total is the whole round trip, the checkpoint_s metric.
func (c ckptPhases) total() float64 { return c.CaptureS + c.EncodeS + c.DecodeS + c.RestoreS }

// counter is one exact (deterministic) quantity of a repetition.
type counter struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
}

// result is one repetition's measurements.
type result struct {
	Traced    bool `json:"traced"`
	Saturated bool `json:"saturated"`
	// SetupS, RunS (the drain), Ckpt and CalS (the host speed
	// calibration made before the episode) hold one entry per episode.
	SetupS []float64    `json:"setup_s"`
	RunS   []float64    `json:"run_s"`
	Ckpt   []ckptPhases `json:"ckpt"`
	CalS   []float64    `json:"cal_s"`
	// Requests are the spawned threads; Completed the ones whose
	// completion line is present. ReqUs and PlaceUs hold the virtual
	// arrival→exit and arrival→placement latency of each completed one.
	Requests  int       `json:"requests"`
	Completed int       `json:"completed"`
	ReqUs     []float64 `json:"req_us"`
	PlaceUs   []float64 `json:"place_us"`
	// MigrationUs (freeze→resume) and NegotiationUs (§4.4 critical
	// section) are the protocol operations' virtual latencies.
	MigrationUs   []float64 `json:"migration_us"`
	NegotiationUs []float64 `json:"negotiation_us"`
	Negotiations  int       `json:"negotiations"`
	NegFailures   int       `json:"neg_failures"`
	// Problems lists every failed output check.
	Problems []string  `json:"problems"`
	Digest   string    `json:"digest"`
	Counters []counter `json:"counters"`
	// LiveHeapMB is the largest live heap sampleHeap found.
	LiveHeapMB float64 `json:"live_heap_mb"`
	// Host holds host-clock per-layer values of this repetition.
	Host map[string]float64 `json:"host"`

	vreqs []vreq
}

func (r *result) problem(format string, args ...any) {
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}

// sampleHeap runs two full collections and raises LiveHeapMB to the
// live heap they leave. An episode samples after set-up, after each
// drain and after each checkpoint round trip (both clusters alive), all
// outside the timed phases.
func (r *result) sampleHeap() {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	r.LiveHeapMB = max(r.LiveHeapMB, float64(ms.HeapAlloc)/(1<<20))
}

// pool merges the results of one repetition per stream, in stream
// order, into the run's exact record: every stream's requests,
// latencies, counters, checkpoints and failed checks, and a digest over
// the streams' digests.
func pool(rs []*result) *result {
	p := &result{Host: map[string]float64{}}
	h := fnv.New64a()
	for _, r := range rs {
		p.Requests += r.Requests
		p.Completed += r.Completed
		p.Negotiations += r.Negotiations
		p.NegFailures += r.NegFailures
		p.ReqUs = append(p.ReqUs, r.ReqUs...)
		p.PlaceUs = append(p.PlaceUs, r.PlaceUs...)
		p.MigrationUs = append(p.MigrationUs, r.MigrationUs...)
		p.NegotiationUs = append(p.NegotiationUs, r.NegotiationUs...)
		p.Ckpt = append(p.Ckpt, r.Ckpt...)
		p.Problems = append(p.Problems, r.Problems...)
		for _, c := range r.Counters {
			p.count(c.Name, c.Value)
		}
		fmt.Fprintln(h, r.Digest)
	}
	p.Digest = fmt.Sprintf("%016x", h.Sum64())
	return p
}

// count adds v to the named exact counter, summing over episodes.
func (r *result) count(name string, v float64) {
	for i := range r.Counters {
		if r.Counters[i].Name == name {
			r.Counters[i].Value += v
			return
		}
	}
	r.Counters = append(r.Counters, counter{name, v})
}

// memDelta accumulates Go allocator activity over the drain phases.
type memDelta struct {
	mallocs, bytes uint64
	gcs            uint32
	ms             runtime.MemStats
}

func (m *memDelta) begin() { runtime.ReadMemStats(&m.ms) }

func (m *memDelta) end() {
	before := m.ms
	runtime.ReadMemStats(&m.ms)
	m.mallocs += m.ms.Mallocs - before.Mallocs
	m.bytes += m.ms.TotalAlloc - before.TotalAlloc
	m.gcs += m.ms.NumGC - before.NumGC
}

// episodes is how many streams a seed of the workload has, each run on
// a cluster of its own (an episode). Serve runs near its knee, where a
// longer stream would change the regime (the backlog grows), so it
// pools three short streams instead. Alloc pools two, so that its tail
// latency rests on twice the requests and moves less from seed to
// seed. A benchmark run runs one stream per repetition, in turn.
func episodes(workload string) int {
	switch workload {
	case wServe:
		return 3
	case wAlloc:
		return 2
	}
	return 1
}

// episodeSeed derives episode e's generator seed from the run's seed.
func episodeSeed(seed uint64, e int) uint64 { return seed + uint64(e)*1_000_003 }

// hostAcc sums host-side accounting over a repetition's drains.
type hostAcc struct {
	drainS      float64
	drainEvents uint64
	mem         memDelta
	windows     simtime.WindowStats
	policy      *policyTimer
}

func (a *hostAcc) addWindows(ws simtime.WindowStats) {
	a.windows.ParallelWindows += ws.ParallelWindows
	a.windows.ParallelEvents += ws.ParallelEvents
	a.windows.Participants += ws.Participants
}

// runRep runs one repetition of a workload: for each episode generate,
// set up, drain (with the checkpoint round trip) and check; then derive
// the repetition's measurements and, when traced, probe the layers.
func runRep(o options) (*result, error) {
	n := o.episodes
	if n == 0 {
		n = episodes(o.workload)
	}
	rec := newRecorder(o.traced)
	res := &result{Traced: o.traced, Host: map[string]float64{}}
	acc := &hostAcc{}
	if o.traced {
		acc.policy = &policyTimer{rec: rec}
	}
	h := fnv.New64a()
	var (
		last   *ipm2.Cluster
		lastIn input
	)
	for e := 0; e < n; e++ {
		in, err := generate(o.workload, episodeSeed(o.seed, o.stream+e), o.rateScale)
		if err != nil {
			return nil, err
		}
		sp := rec.begin(fmt.Sprintf("episode %d", e))
		cl, err := runEpisode(o, in, res, rec, acc, h)
		rec.end(sp, nil)
		if err != nil {
			return nil, err
		}
		last, lastIn = cl, in
	}
	for _, c := range res.Counters {
		fmt.Fprintf(h, "%s %v\n", c.Name, c.Value)
	}
	res.Digest = fmt.Sprintf("%016x", h.Sum64())

	w := acc.windows
	res.Host["simtime.ns_per_event"] = acc.drainS * 1e9 / float64(max(acc.drainEvents, 1))
	res.Host["simtime.parallel_windows"] = float64(w.ParallelWindows)
	res.Host["simtime.lanes_per_window"] = ratio(float64(w.Participants), float64(w.ParallelWindows))
	res.Host["simtime.serial_event_share"] = 1 - ratio(float64(w.ParallelEvents), float64(max(acc.drainEvents, 1)))
	res.Host["go.allocs_per_event"] = ratio(float64(acc.mem.mallocs), float64(acc.drainEvents))
	res.Host["go.alloc_bytes_per_event"] = ratio(float64(acc.mem.bytes), float64(acc.drainEvents))
	res.Host["go.gc_cycles"] = float64(acc.mem.gcs)
	res.Host["core.node_setup_us"] = median(res.SetupS) * 1e6 / float64(last.Nodes())
	if p := acc.policy; p != nil {
		res.Host["policy.decide_ns"] = p.meanNs()
		res.Host["policy.calls"] = float64(p.calls)
	}
	if o.traced && !res.Saturated {
		runProbes(res, o.workload, lastIn, last, rec)
		if o.traceOut != nil {
			if err := rec.writeChrome(o.traceOut, res, hostRecord()); err != nil {
				return nil, err
			}
		}
	}
	return res, nil
}

// runEpisode runs one cluster over one generated input and returns the
// cluster the run ended on (the restored one on ring).
func runEpisode(o options, in input, res *result, rec *recorder, acc *hostAcc, h io.Writer) (*ipm2.Cluster, error) {
	runtime.GC()
	res.CalS = append(res.CalS, calibrate())
	pol := placementPolicy(o.workload)
	if acc.policy != nil {
		pol = acc.policy.wrap(pol)
	}

	// Set-up: image, cluster construction, balancer attach and the
	// scheduling of the generated load.
	sp := rec.begin("setup")
	t0 := time.Now()
	im := newImage()
	cfg := config(o.workload, o.workers, pol)
	cl, err := ipm2.NewChecked(cfg, im)
	if err != nil {
		return nil, err
	}
	var bal *loadbal.Balancer
	if o.workload != wRing {
		bal = loadbal.Attach(cl, loadbal.Config{Period: balancePeriod, KeepAliveUntil: in.horizon + 2*balancePeriod})
	}
	if err := schedule(cl, im, in); err != nil {
		return nil, err
	}
	res.SetupS = append(res.SetupS, time.Since(t0).Seconds())
	res.sampleHeap()
	rec.end(sp, map[string]any{"nodes": cfg.Nodes})

	saturated := false
	drain := func(c *ipm2.Cluster, phase string, until simtime.Time) {
		acc.mem.begin()
		e0 := c.Engine().Steps()
		t := time.Now()
		saturated = drainCluster(c, rec, phase, until, in.horizon, o.stepBudget) || saturated
		acc.drainS += time.Since(t).Seconds()
		acc.drainEvents += c.Engine().Steps() - e0
		acc.mem.end()
		res.sampleHeap()
	}

	// Ring checkpoints mid-run and the restored cluster drains the rest.
	// Serve and alloc arrivals stay pending engine events until the last
	// one, which a capture would have to drain first, so these two
	// checkpoint the drained cluster instead.
	final := cl
	var pools [2]uint64 // buffer-pool gets and hits before a restore
	r0 := acc.drainS
	if o.workload == wRing {
		drain(cl, "drain before checkpoint", ringCheckpointUs*simtime.Microsecond)
		pools[0], pools[1] = cl.BufferPoolStats()
		acc.addWindows(cl.Engine().WindowStats())
		restored, ck, err := roundTrip(cl, cfg, im, rec)
		if err != nil {
			return nil, err
		}
		res.Ckpt = append(res.Ckpt, ck)
		res.sampleHeap()
		// The captured cluster is garbage from here on, as it would be
		// for a user resuming from the image.
		final, cl = restored, nil
		drain(restored, "drain after restore", 0)
	} else {
		drain(cl, "drain", 0)
	}
	res.RunS = append(res.RunS, acc.drainS-r0)
	acc.addWindows(final.Engine().WindowStats())
	if saturated {
		// A cut-off run is only a knee-search rung: it is measured, not
		// checked, and never checkpointed.
		res.Saturated = true
		collect(res, o.workload, in, final, bal, pools, h)
		return final, nil
	}
	var restored *ipm2.Cluster
	if o.workload != wRing {
		var ck ckptPhases
		if restored, ck, err = roundTrip(cl, cfg, im, rec); err != nil {
			return nil, err
		}
		res.Ckpt = append(res.Ckpt, ck)
		res.sampleHeap()
	}

	sp = rec.begin("check")
	if restored != nil {
		restored.Run(0)
		if a, b := cl.Trace().Lines(), restored.Trace().Lines(); !slices.Equal(a, b) {
			res.problem("end-of-run checkpoint round trip changed the output (%d vs %d lines)", len(a), len(b))
		}
		if o.invariants {
			if err := restored.CheckInvariants(); err != nil {
				res.problem("restored cluster: %v", err)
			}
		}
	}
	if o.invariants {
		if err := final.CheckInvariants(); err != nil {
			res.problem("invariants: %v", err)
		}
	}
	collect(res, o.workload, in, final, bal, pools, h)
	rec.end(sp, nil)
	return final, nil
}

// schedule queues the generated load on a fresh cluster. Serve and
// alloc arrivals are engine events at their due instants, so the
// generator never lags; ring travellers are created at time zero.
func schedule(cl *ipm2.Cluster, im *isa.Image, in input) error {
	for _, q := range in.reqs {
		cl.Engine().At(q.at, func() { cl.SpawnCohort(q.node, q.prog, q.arg, q.cohort) })
	}
	if len(in.ring) == 0 {
		return nil
	}
	entry, ok := im.EntryOf("ringpay")
	if !ok {
		return fmt.Errorf("ringpay program missing from the image")
	}
	for id, rt := range in.ring {
		cl.At(rt.node, func(n *ipm2.Node) {
			th, err := n.Scheduler().Create(entry, ringHops)
			if err != nil {
				panic(fmt.Sprintf("ring thread %d on node %d: %v", id, rt.node, err))
			}
			th.Regs.R[2] = ringSpin
			th.Regs.R[3] = rt.payload
			th.Regs.R[4] = uint32(id)
			n.Kick()
		})
	}
	return nil
}

// drainCluster runs the cluster until until (0 = until the queue is
// empty or the step budget is spent) and reports whether the budget cut
// it off. A traced drain advances in fixed virtual-time slices, one span
// each, so host time is attributed to workload phases; the event
// sequence is the same either way.
func drainCluster(c *ipm2.Cluster, rec *recorder, phase string, until, horizon simtime.Time, budget uint64) bool {
	eng := c.Engine()
	if !rec.on {
		if until > 0 {
			eng.RunUntil(until)
			return false
		}
		c.Run(budget)
		return eng.Pending() > 0
	}
	slice := horizon / 8
	if until > 0 {
		slice = (until - eng.Now()) / 4
	}
	if slice <= 0 {
		slice = ringCheckpointUs * simtime.Microsecond / 4
	}
	start := eng.Steps()
	for {
		from := eng.Now()
		to := from + slice
		if until > 0 && to > until {
			to = until
		}
		name := phase
		if until == 0 && phase == "drain" {
			name = "drain arrivals"
			if from >= horizon {
				name = "drain tail"
			}
		}
		sp := rec.begin(name)
		e0 := eng.Steps()
		eng.RunUntil(to)
		rec.end(sp, map[string]any{"virt_from_us": from.Micros(), "virt_to_us": to.Micros(), "events": eng.Steps() - e0})
		if until > 0 && to >= until {
			return false
		}
		if eng.Pending() == 0 {
			return false
		}
		if budget > 0 && eng.Steps()-start >= budget {
			return true
		}
	}
}

// roundTrip checkpoints a cluster, encodes, decodes and restores the
// image, timing each phase. The returned cluster continues the run.
func roundTrip(cl *ipm2.Cluster, cfg ipm2.Config, im *isa.Image, rec *recorder) (*ipm2.Cluster, ckptPhases, error) {
	// Start the round trip from a collected heap, so its peak memory
	// does not depend on where the drain left the GC cycle.
	runtime.GC()
	var p ckptPhases
	var ms0, ms1 runtime.MemStats
	parent := rec.begin("checkpoint")

	sp := rec.begin("ckpt capture")
	t := time.Now()
	ck, err := cl.Checkpoint()
	p.CaptureS = time.Since(t).Seconds()
	rec.end(sp, nil)
	if err != nil {
		return nil, p, fmt.Errorf("checkpoint: %w", err)
	}

	runtime.ReadMemStats(&ms0)
	sp = rec.begin("ckpt encode")
	t = time.Now()
	data := ck.Encode()
	p.EncodeS = time.Since(t).Seconds()
	rec.end(sp, map[string]any{"bytes": len(data)})
	runtime.ReadMemStats(&ms1)
	p.EncodeAllocs = ms1.Mallocs - ms0.Mallocs
	p.Bytes = len(data)

	runtime.ReadMemStats(&ms0)
	sp = rec.begin("ckpt decode")
	t = time.Now()
	ck2, err := ipm2.DecodeCheckpoint(data)
	p.DecodeS = time.Since(t).Seconds()
	rec.end(sp, nil)
	runtime.ReadMemStats(&ms1)
	p.DecodeAllocs = ms1.Mallocs - ms0.Mallocs
	if err != nil {
		return nil, p, fmt.Errorf("decode checkpoint: %w", err)
	}

	sp = rec.begin("ckpt restore")
	t = time.Now()
	restored, err := ipm2.RestoreCluster(cfg, im, ck2)
	p.RestoreS = time.Since(t).Seconds()
	rec.end(sp, nil)
	rec.end(parent, map[string]any{"bytes": len(data)})
	if err != nil {
		return nil, p, fmt.Errorf("restore checkpoint: %w", err)
	}
	return restored, p, nil
}

var (
	reWorker  = regexp.MustCompile(`worker [0-9a-f]{8} finished on node \d+$`)
	reChain   = regexp.MustCompile(`chain sum = (\d+) on node \d+$`)
	reNego    = regexp.MustCompile(`negostress (\d+) freed on node \d+$`)
	reRing    = regexp.MustCompile(`ring (\d+) ok at (\d+) on node \d+$`)
	reBadLine = regexp.MustCompile(`BAD|Segmentation fault`)
)

// expectKey is the completion line a request must produce, reduced to
// what identifies it.
func expectKey(q request) string {
	switch q.prog {
	case "chain":
		n := uint64(q.arg)
		return "chain " + strconv.FormatUint(n*(n+1)/2, 10)
	case "negostress":
		return "nego " + strconv.FormatUint(uint64(q.arg), 10)
	}
	return "worker"
}

// collect checks one episode's outputs and adds its latencies, request
// lifecycles and exact counters to the repetition; everything exact is
// also written to the digest h.
func collect(res *result, workload string, in input, cl *ipm2.Cluster, bal *loadbal.Balancer, pools [2]uint64, h io.Writer) {
	st := cl.Stats()
	out := cl.Trace().Lines()
	for _, l := range out {
		fmt.Fprintln(h, l)
		if reBadLine.MatchString(l) {
			res.problem("bad output line %q", l)
		}
	}

	// Completion lines: every request's line must be present, once.
	requests, completed := 0, 0
	if workload == wRing {
		requests = len(in.ring)
		seen := make([]bool, len(in.ring))
		for _, l := range out {
			m := reRing.FindStringSubmatch(l)
			if m == nil {
				continue
			}
			id, _ := strconv.Atoi(m[1])
			at, _ := strconv.Atoi(m[2])
			if id < 0 || id >= len(seen) || seen[id] {
				res.problem("unexpected ring completion %q", l)
				continue
			}
			seen[id] = true
			completed++
			res.ReqUs = append(res.ReqUs, float64(at))
			res.PlaceUs = append(res.PlaceUs, 0)
			res.vreqs = append(res.vreqs, vreq{id: len(res.vreqs), cohort: "ring", node: in.ring[id].node, finished: float64(at)})
		}
	} else {
		requests = len(in.reqs)
		want := map[string]int{}
		for _, q := range in.reqs {
			want[expectKey(q)]++
		}
		got := map[string]int{}
		for _, l := range out {
			if reWorker.MatchString(l) {
				got["worker"]++
			} else if m := reChain.FindStringSubmatch(l); m != nil {
				got["chain "+m[1]]++
			} else if m := reNego.FindStringSubmatch(l); m != nil {
				got["nego "+m[1]]++
			}
		}
		for k, n := range got {
			if n > want[k] {
				res.problem("%d completion lines %q, want %d", n, k, want[k])
			}
		}
		missing := 0
		for k, n := range want {
			missing += max(n-got[k], 0)
		}
		if len(st.CohortSamples) != len(in.reqs) {
			res.problem("%d request records for %d requests", len(st.CohortSamples), len(in.reqs))
		}
		for i, s := range st.CohortSamples {
			fmt.Fprintf(h, "req %d %s node=%d at=%d placed=%d done=%t fin=%d\n", i, s.Cohort, s.Node, s.Arrival, s.Placed, s.Done, s.Finished)
			if !s.Done {
				continue
			}
			completed++
			res.ReqUs = append(res.ReqUs, s.EndToEndLatency().Micros())
			res.PlaceUs = append(res.PlaceUs, s.PlacementLatency().Micros())
			res.vreqs = append(res.vreqs, vreq{id: len(res.vreqs), cohort: s.Cohort, node: s.Node,
				arrival: s.Arrival.Micros(), placed: s.Placed.Micros(), finished: s.Finished.Micros()})
		}
		// A request counts as completed only with its completion line.
		completed = min(completed, requests-missing)
	}
	if completed != requests && !res.Saturated {
		res.problem("%d of %d requests completed", completed, requests)
	}
	res.Requests += requests
	res.Completed += completed

	for _, l := range st.MigrationLatencies {
		res.MigrationUs = append(res.MigrationUs, l.Micros())
		fmt.Fprintf(h, "mig %d\n", l)
	}
	for _, l := range st.NegotiationLatencies {
		res.NegotiationUs = append(res.NegotiationUs, l.Micros())
		fmt.Fprintf(h, "neg %d\n", l)
	}
	res.Negotiations += st.Negotiations
	res.NegFailures += st.NegotiationFailures

	var created, finished, faulted, dispatches, instrs uint64
	threads := 0
	for i := 0; i < cl.Nodes(); i++ {
		s := cl.Node(i).Scheduler()
		c, f, fa, d, n := s.Stats()
		created, finished, faulted, dispatches, instrs = created+c, finished+f, faulted+fa, dispatches+d, instrs+n
		threads += s.Threads()
	}
	if faulted > 0 {
		res.problem("%d threads faulted", faulted)
	}
	if threads > 0 && !res.Saturated {
		res.problem("%d threads still resident after the drain", threads)
	}
	gets, hits := cl.BufferPoolStats()
	var rounds, moves int
	if bal != nil {
		rounds, moves = bal.Rounds(), bal.Moves()
	}
	for _, c := range []counter{
		{"simtime.events", float64(cl.Engine().Steps())},
		{"vm.instructions", float64(instrs)},
		{"marcel.dispatches", float64(dispatches)},
		{"marcel.created", float64(created)},
		{"marcel.finished", float64(finished)},
		{"marcel.faulted", float64(faulted)},
		{"bip.messages", float64(st.Net.Messages)},
		{"bip.bytes", float64(st.Net.Bytes)},
		{"pm2.migrations", float64(st.Migrations)},
		{"pm2.migrated_bytes", float64(st.MigratedBytes)},
		{"pm2.negotiations", float64(st.Negotiations)},
		{"pm2.negotiation_failures", float64(st.NegotiationFailures)},
		{"pm2.negotiation_retries", float64(st.NegotiationRetries)},
		{"pm2.version_declines", float64(st.VersionDeclines)},
		{"pm2.merged_bytes", float64(st.GatherMergedBytes)},
		{"loadbal.rounds", float64(rounds)},
		{"loadbal.moves", float64(moves)},
		{"requests", float64(requests)},
		{"completed", float64(completed)},
	} {
		res.count(c.Name, c.Value)
	}
	// Buffer reuse depends on how the kernel's workers interleave, so
	// it is host accounting, kept out of the digest: on ring it differs
	// between Workers 1 and 2.
	res.Host["madeleine.pool_gets"] += float64(gets + pools[0])
	res.Host["madeleine.pool_hits"] += float64(hits + pools[1])
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// median is the median of xs (0 for none).
func median(xs []float64) float64 { return quartiles(xs)[1] }

// medianOf returns the middle value of xs (the lower middle for an even
// count), or 0 for none.
func medianOf(xs []uint32) uint32 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	return s[(len(s)-1)/2]
}
