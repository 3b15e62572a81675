package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"repro/internal/scenario/serve"
)

// Seeds. defaultSeed is what a run without -seed uses; heldOutSeed is
// kept out of tuning and confirms a claimed gain.
const (
	defaultSeed = 1
	heldOutSeed = 7919
)

// minReps is the fewest repetitions a run makes, however long each
// takes; medians need at least this many.
const minReps = 3

// maxReps bounds the repetitions of a run whose repetitions are short.
const maxReps = 200

func main() {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames, ", "))
	seed := fs.Uint64("seed", defaultSeed, fmt.Sprintf("workload seed (held-out seed for confirming claims: %d)", heldOutSeed))
	seconds := fs.Int("seconds", 30, "measure for this many seconds of host time")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced run, per-layer metrics")
	out := fs.String("out", ".bench_build", "directory for trace files")
	child := fs.Bool("child", false, "run one repetition and print its result as JSON (internal)")
	traced := fs.Bool("traced", false, "with -child: record spans")
	invariants := fs.Bool("invariants", false, "with -child: run CheckInvariants")
	stream := fs.Int("stream", 0, "with -child: run this one stream of the seed")
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	if *child {
		if err := runChild(options{workload: *workload, seed: *seed, stream: *stream, episodes: 1, traced: *traced, invariants: *invariants}, *out); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	if *trace != 0 && *trace != 1 || *seconds < 1 {
		fmt.Fprintln(os.Stderr, "perfbench: -trace must be 0 or 1 and -seconds at least 1")
		os.Exit(2)
	}
	if err := bench(*workload, *seed, *seconds, *trace == 1, *out); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// runChild runs one repetition in this process and prints its result.
func runChild(o options, out string) error {
	var f *os.File
	if o.traced {
		var err error
		if f, err = os.Create(tracePath(out, o.workload, o.seed)); err != nil {
			return err
		}
		o.traceOut = f
	}
	res, err := runRep(o)
	if f != nil {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(res)
}

func tracePath(out, workload string, seed uint64) string {
	return filepath.Join(out, fmt.Sprintf("perfbench-trace-%s-seed%d.json", workload, seed))
}

// rep is one child repetition as the parent sees it.
type rep struct {
	res    *result
	stream int
	peakMB float64
}

// runOne runs one repetition, one stream of the seed, in a child
// process, so that its peak resident memory is its own.
func runOne(workload string, seed uint64, stream int, traced, invariants bool, out string) (rep, error) {
	self, err := os.Executable()
	if err != nil {
		return rep{}, err
	}
	cmd := exec.Command(self, "-child", "-workload", workload, "-seed", fmt.Sprint(seed), "-stream", fmt.Sprint(stream),
		fmt.Sprintf("-traced=%t", traced), fmt.Sprintf("-invariants=%t", invariants), "-out", out)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return rep{}, fmt.Errorf("%s repetition: %w", workload, err)
	}
	var res result
	if err := json.Unmarshal(stdout.Bytes(), &res); err != nil {
		return rep{}, fmt.Errorf("%s repetition output: %w", workload, err)
	}
	r := rep{res: &res, stream: stream}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		r.peakMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	return r, nil
}

// metric is one printed measurement; the JSON result set carries the
// ones marked result.
type metric struct {
	name, unit string
	value      float64
	note       string
	result     bool
}

// bench runs repetitions of one workload for the given host time,
// checks them, and prints the report with the JSON result last.
func bench(workload string, seed uint64, seconds int, traced bool, out string) error {
	if _, err := generate(workload, seed, 0); err != nil {
		return err
	}
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}
	host := hostRecord()
	fmt.Printf("perfbench workload=%s seed=%d seconds=%d trace=%t\n", workload, seed, seconds, traced)
	fmt.Printf("host: %s\n", formatRecord(host))

	// A traced run alternates untraced and traced repetitions, so the
	// tracing overhead is measured under the same conditions. Each
	// repetition runs one of the seed's streams in turn, in a process
	// of its own: a process's speed varies beyond its episodes' own
	// spread, so more processes give a steadier median.
	streams := episodes(workload)
	need := max(minReps, streams)
	if traced {
		need = 2 * minReps
	}
	var plain, withSpans []rep
	checked := make([]bool, streams) // streams whose invariants ran
	start := time.Now()
	for i := 0; i < maxReps && (i < need || time.Since(start) < time.Duration(seconds)*time.Second); i++ {
		on := traced && i%2 == 1
		stream := i % streams
		if traced {
			stream = i / 2 % streams // a traced repetition repeats its untraced one's stream
		}
		r, err := runOne(workload, seed, stream, on, !checked[stream], out)
		checked[stream] = true
		if err != nil {
			return err
		}
		if on {
			withSpans = append(withSpans, r)
		} else {
			plain = append(plain, r)
		}
	}

	// The run's exact record pools the first repetition of each stream;
	// every later repetition of a stream must reproduce its digest.
	all := append(append([]rep(nil), plain...), withSpans...)
	byStream := make([]*result, streams)
	for _, r := range all {
		if byStream[r.stream] == nil {
			byStream[r.stream] = r.res
		}
	}
	first := pool(byStream)
	var problems []string
	same := true
	for _, r := range all {
		problems = append(problems, r.res.Problems...)
		if want := byStream[r.stream].Digest; r.res.Digest != want {
			same = false
			problems = append(problems, fmt.Sprintf("stream %d: virtual digest %s (traced=%t) differs from %s", r.stream, r.res.Digest, r.res.Traced, want))
		}
	}
	attempted := first.Requests + first.Negotiations
	failed := first.Requests - first.Completed + first.NegFailures
	problems = dedupe(problems)

	fmt.Printf("repetitions: %d untraced, %d traced, %.1f s\n", len(plain), len(withSpans), time.Since(start).Seconds())
	fmt.Printf("virtual digest: %s (identical across every repetition: %t)\n", first.Digest, same)
	for _, p := range problems {
		fmt.Printf("CHECK FAILED: %s\n", p)
	}
	fmt.Printf("exact counters:")
	for _, c := range first.Counters {
		fmt.Printf(" %s=%.0f", c.Name, c.Value)
	}
	fmt.Println()

	var ms []metric
	if !traced {
		ms = endToEnd(workload, seed, first, plain, attempted, failed)
	} else {
		ms = perLayer(first, plain, withSpans)
		fmt.Printf("trace file: %s\n", tracePath(out, workload, seed))
	}
	width := 0
	for _, m := range ms {
		width = max(width, len(m.name))
	}
	for _, m := range ms {
		fmt.Printf("  %-*s %14.6g %-8s %s\n", width, m.name, m.value, m.unit, m.note)
	}

	report := map[string]map[string]any{}
	for _, m := range ms {
		if !m.result {
			continue
		}
		report[m.name] = map[string]any{"value": m.value, "unit": m.unit}
	}
	line, err := json.Marshal(map[string]any{
		"correct":   len(problems) == 0,
		"attempted": attempted,
		"failed":    failed,
		"metrics":   report,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func dedupe(xs []string) []string {
	seen := map[string]bool{}
	var out []string
	for _, x := range xs {
		if !seen[x] {
			seen[x] = true
			out = append(out, x)
		}
	}
	return out
}

// endToEnd assembles the end-to-end metrics of untraced repetitions.
// Host-clock seconds are medians over every episode of every
// repetition, each scaled to the reference host by the calibration
// made before its episode; peak_rss_mb is a median over repetitions
// and live_heap_mb over the repetitions of its largest stream;
// virtual-clock values come from first, the run's pooled exact record.
// Metrics not marked result are printed but not part of the JSON: it
// carries only metrics that every workload has and that vary from seed
// to seed (a protocol latency can be one cost-model constant on every
// seed, as alloc's negotiation p50 is).
func endToEnd(workload string, seed uint64, first *result, reps []rep, attempted, failed int) []metric {
	var runs, setups, ckpts, rawRuns, cals, peaks []float64
	lives := map[int][]float64{}
	for _, r := range reps {
		for i, c := range r.res.CalS {
			k := refCalibrationS / c
			runs = append(runs, r.res.RunS[i]*k)
			setups = append(setups, r.res.SetupS[i]*k)
			ckpts = append(ckpts, r.res.Ckpt[i].total()*k)
		}
		rawRuns = append(rawRuns, r.res.RunS...)
		cals = append(cals, r.res.CalS...)
		peaks = append(peaks, r.peakMB)
		lives[r.stream] = append(lives[r.stream], r.res.LiveHeapMB)
	}
	hostMetric := func(name, unit string, xs []float64) metric {
		q := quartiles(xs)
		return metric{name, unit, q[1], fmt.Sprintf("host, median of %d, quartiles %.6g..%.6g", len(xs), q[0], q[2]), true}
	}
	scaled := func(name string, xs []float64) metric {
		m := hostMetric(name, "s", xs)
		m.note = "reference-host " + m.note
		return m
	}
	cal := quartiles(cals)
	live := 0.0
	for _, xs := range lives {
		live = max(live, median(xs))
	}
	virtual := func(name string, xs []float64, what string, result bool) []metric {
		tn, tv := tail(xs)
		return []metric{
			{name + "_p50_us", "us", percentile(xs, 0.50), fmt.Sprintf("virtual, p50 of %d %s", len(xs), what), result},
			{name + "_tail_us", "us", tv, fmt.Sprintf("virtual, %s of %d %s", tn, len(xs), what), result},
		}
	}
	ms := []metric{
		scaled("run_s", runs),
		scaled("setup_s", setups),
		{"live_heap_mb", "MB", live, "host, largest live Go heap at a phase boundary: the largest stream's median", false},
		{"peak_rss_mb", "MB", median(peaks), fmt.Sprintf("host, median of %d", len(peaks)), false},
		scaled("checkpoint_s", ckpts),
		{"raw_run_s", "s", median(rawRuns), "host, median drain on this host, unscaled", false},
		{"calibration_s", "s", cal[1], fmt.Sprintf("host, median of %d, quartiles %.6g..%.6g; %g s on the reference host", len(cals), cal[0], cal[2], refCalibrationS), false},
	}
	ms = append(ms, virtual("req", first.ReqUs, "requests", true)...)
	if workload == wAlloc {
		ms = append(ms, virtual("negotiation", first.NegotiationUs, "negotiations", false)...)
	} else {
		ms = append(ms, virtual("migration", first.MigrationUs, "migrations", false)...)
	}
	ms = append(ms, metric{"failed_ratio", "ratio", ratio(float64(failed), float64(attempted)), fmt.Sprintf("exact, %d failed of %d attempted", failed, attempted), false})
	if workload != wRing {
		ms = append(ms, metric{"generator_lag_us", "us", 0, "arrivals are engine events at their due instants", false})
	}
	if workload == wServe {
		knee, note := kneeSearch(seed)
		ms = append(ms, metric{"knee_req_per_ms", "1/ms", knee, note, false})
	}
	return ms
}

// perLayer assembles the per-layer metrics: exact counters from the
// run's pooled record, host-clock values as medians over the traced
// repetitions.
func perLayer(first *result, plain, traced []rep) []metric {
	c := func(name string) float64 { return counterOf(first, name) }
	h := func(name string) float64 {
		var xs []float64
		for _, r := range traced {
			xs = append(xs, r.res.Host[name])
		}
		return quartiles(xs)[1]
	}
	med := func(reps []rep, f func(*result) float64) float64 {
		var xs []float64
		for _, r := range reps {
			xs = append(xs, f(r.res))
		}
		return quartiles(xs)[1]
	}
	runPlain := med(plain, func(r *result) float64 { return median(r.RunS) })
	runTraced := med(traced, func(r *result) float64 { return median(r.RunS) })
	phase := func(f func(ckptPhases) float64) float64 {
		var xs []float64
		for _, r := range traced {
			for _, c := range r.res.Ckpt {
				xs = append(xs, f(c))
			}
		}
		return median(xs)
	}
	ck := first.Ckpt[0]
	neg := c("pm2.negotiations")
	return []metric{
		{"simtime.events", "count", c("simtime.events"), "exact", true},
		{"simtime.ns_per_event", "ns", h("simtime.ns_per_event"), "drain host time / drain events", true},
		{"simtime.parallel_windows", "count", h("simtime.parallel_windows"), "", true},
		{"simtime.lanes_per_window", "count", h("simtime.lanes_per_window"), "", true},
		{"simtime.serial_event_share", "ratio", h("simtime.serial_event_share"), "", true},
		{"vm.instructions", "count", c("vm.instructions"), "exact", true},
		{"vm.ns_per_instr", "ns", h("vm.ns_per_instr"), "probe: the workload's program on one node", true},
		{"vm.allocs_per_instr", "count", h("vm.allocs_per_instr"), "probe", true},
		{"marcel.dispatches", "count", c("marcel.dispatches"), "exact", true},
		{"marcel.faulted", "count", c("marcel.faulted"), "exact, must be 0", true},
		{"bip.messages", "count", c("bip.messages"), "exact", true},
		{"bip.bytes", "B", c("bip.bytes"), "exact", true},
		{"madeleine.pool_hit_ratio", "ratio", ratio(h("madeleine.pool_hits"), h("madeleine.pool_gets")), "buffer reuse, varies with kernel workers", true},
		{"madeleine.pack_ns_per_kb", "ns/KB", h("madeleine.pack_ns_per_kb"), fmt.Sprintf("probe at %.0f B", h("madeleine.probe_bytes")), true},
		{"madeleine.pack_allocs", "count", h("madeleine.pack_allocs"), "probe, per pack+unpack", true},
		{"pm2.migrations", "count", c("pm2.migrations"), "exact", true},
		{"pm2.bytes_per_migration", "B", ratio(c("pm2.migrated_bytes"), c("pm2.migrations")), "exact", true},
		{"pm2.negotiations", "count", neg, "exact", true},
		{"pm2.negotiation_useful_ratio", "ratio", ratio(neg-c("pm2.negotiation_failures"), neg+c("pm2.negotiation_retries")), "exact", true},
		{"pm2.version_declines", "count", c("pm2.version_declines"), "exact", true},
		{"pm2.merged_bytes_per_negotiation", "B", ratio(c("pm2.merged_bytes"), neg), "exact", true},
		{"pm2.messages_per_negotiation", "count", ratio(c("bip.messages"), neg), "exact, all messages / negotiations", true},
		{"pm2.placement_p50_us", "us", percentile(first.PlaceUs, 0.5), "virtual", true},
		{"bitmap.encode_ns", "ns", h("bitmap.encode_ns"), "probe on the end-state maps", true},
		{"bitmap.encode_allocs", "count", h("bitmap.encode_allocs"), "probe", true},
		{"bitmap.decode_ns", "ns", h("bitmap.decode_ns"), "probe", true},
		{"bitmap.decode_allocs", "count", h("bitmap.decode_allocs"), "probe", true},
		{"bitmap.or_ns", "ns", h("bitmap.or_ns"), "probe", true},
		{"bitmap.or_allocs", "count", h("bitmap.or_allocs"), "probe", true},
		{"core.plan_ns", "ns", h("core.plan_ns"), "probe: PlanPurchaseOn over the end-state maps", true},
		{"core.plan_allocs", "count", h("core.plan_allocs"), "probe", true},
		{"core.node_setup_us", "us", h("core.node_setup_us"), "set-up span / nodes", true},
		{"loadbal.rounds", "count", c("loadbal.rounds"), "exact", true},
		{"loadbal.moves", "count", c("loadbal.moves"), "exact", true},
		{"policy.decide_ns", "ns", h("policy.decide_ns"), fmt.Sprintf("mean of %.0f wrapped calls", h("policy.calls")), true},
		{"ckpt.bytes", "B", float64(ck.Bytes), "image size", true},
		{"ckpt.capture_s", "s", phase(func(c ckptPhases) float64 { return c.CaptureS }), "", true},
		{"ckpt.encode_s", "s", phase(func(c ckptPhases) float64 { return c.EncodeS }), "", true},
		{"ckpt.decode_s", "s", phase(func(c ckptPhases) float64 { return c.DecodeS }), "", true},
		{"ckpt.restore_s", "s", phase(func(c ckptPhases) float64 { return c.RestoreS }), "", true},
		{"ckpt.encode_allocs", "count", float64(ck.EncodeAllocs), "per encode", true},
		{"ckpt.decode_allocs", "count", float64(ck.DecodeAllocs), "per decode", true},
		{"go.allocs_per_event", "count", h("go.allocs_per_event"), "drain", true},
		{"go.alloc_bytes_per_event", "B", h("go.alloc_bytes_per_event"), "drain", true},
		{"go.gc_cycles", "count", h("go.gc_cycles"), "drain", true},
		{"trace.overhead_s", "s", runTraced - runPlain, fmt.Sprintf("traced run_s %.6g - untraced run_s %.6g", runTraced, runPlain), true},
	}
}

// kneeSearch climbs the serve rate ladder and returns the highest
// offered rate whose run drains and keeps req_tail_us within the limit.
// It stops at the first rung that misses. A rung may use 1.5 times the
// events of the last good rung scaled by the rate ratio; a run that
// needs more is cut off as saturated instead of simulated to the end.
func kneeSearch(seed uint64) (float64, string) {
	base := baseRatePerMs(seed)
	knee, lastScale := 0.0, 0.0
	var lastSteps uint64
	var notes []string
	for _, scale := range serveLadder {
		var budget uint64
		if lastSteps > 0 {
			budget = uint64(1.5 * float64(lastSteps) * scale / lastScale)
		}
		res, err := runRep(options{workload: wServe, seed: seed, rateScale: scale, stepBudget: budget, episodes: 1})
		if err != nil {
			return 0, "knee search failed: " + err.Error()
		}
		name, t := tail(res.ReqUs)
		if res.Saturated || res.Completed < res.Requests || t > serveSLOUs {
			notes = append(notes, fmt.Sprintf("%gx:%s=%.0f,saturated=%t(miss)", scale, name, t, res.Saturated))
			break
		}
		notes = append(notes, fmt.Sprintf("%gx:%s=%.0f", scale, name, t))
		knee, lastScale, lastSteps = scale*base, scale, uint64(counterOf(res, "simtime.events"))
	}
	return knee, fmt.Sprintf("virtual, DeriveSpec window, limit %d us on req tail; ladder %s", serveSLOUs, strings.Join(notes, " "))
}

// baseRatePerMs is the DeriveSpec mix's nominal offered rate at scale
// 1: each cohort's rate, weighted over its diurnal periods.
func baseRatePerMs(seed uint64) float64 {
	var sum float64
	for _, c := range serve.DeriveSpec(seed, serveNodes).Cohorts {
		if len(c.Periods) == 0 {
			sum += c.RatePerMs
			continue
		}
		var area, span float64
		for _, p := range c.Periods {
			area += p.Weight * p.DurationMicros
			span += p.DurationMicros
		}
		sum += c.RatePerMs * area / span
	}
	return sum
}

// percentile is the nearest-rank percentile of xs (0 for none).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(p*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}

// tail returns the highest of p99, p95 and p90 that has at least ten
// samples beyond it, with its name (p90 when none has).
func tail(xs []float64) (string, float64) {
	for _, p := range []struct {
		name string
		q    float64
	}{{"p99", 0.99}, {"p95", 0.95}, {"p90", 0.90}} {
		if len(xs)-int(math.Ceil(p.q*float64(len(xs)))) >= 10 {
			return p.name, percentile(xs, p.q)
		}
	}
	return "p90(<10 beyond)", percentile(xs, 0.90)
}

// quartiles returns the first quartile, median and third quartile of
// xs, as Python's statistics.quantiles(xs, n=4) and median give them.
func quartiles(xs []float64) [3]float64 {
	if len(xs) == 0 {
		return [3]float64{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	med := s[n/2]
	if n%2 == 0 {
		med = (s[n/2-1] + s[n/2]) / 2
	}
	if n == 1 {
		return [3]float64{s[0], s[0], s[0]}
	}
	q := func(j int) float64 { // exclusive method, as statistics.quantiles
		m := n + 1
		k := j * m / 4
		frac := float64(j*m%4) / 4
		k = min(max(k, 1), n-1)
		return s[k-1] + frac*(s[k]-s[k-1])
	}
	return [3]float64{q(1), med, q(3)}
}

// hostRecord describes the machine a result set was measured on.
func hostRecord() map[string]any {
	cpu := "unknown"
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, l := range strings.Split(string(data), "\n") {
			if strings.HasPrefix(l, "model name") {
				if i := strings.IndexByte(l, ':'); i >= 0 {
					cpu = strings.TrimSpace(l[i+1:])
				}
				break
			}
		}
	}
	return map[string]any{
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
		"go":         runtime.Version(),
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
		"cpu":        cpu,
	}
}

func formatRecord(m map[string]any) string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = fmt.Sprintf("%s=%v", k, m[k])
	}
	return strings.Join(parts, " ")
}
