package main

import (
	"bytes"
	"encoding/json"
	"testing"
)

func mustRep(t *testing.T, o options) *result {
	t.Helper()
	o.invariants = true
	res, err := runRep(o)
	if err != nil {
		t.Fatalf("%s: %v", o.workload, err)
	}
	if len(res.Problems) > 0 {
		t.Fatalf("%s: output checks failed: %v", o.workload, res.Problems)
	}
	if res.Completed != res.Requests || res.NegFailures != 0 {
		t.Fatalf("%s: %d of %d requests completed, %d negotiation failures", o.workload, res.Completed, res.Requests, res.NegFailures)
	}
	return res
}

// The virtual digest covers the canonical output and every exact
// counter, so two runs of one seed must agree on it.
func TestDigestIdenticalAcrossRuns(t *testing.T) {
	a := mustRep(t, options{workload: wAlloc, seed: 3})
	b := mustRep(t, options{workload: wAlloc, seed: 3})
	if a.Digest != b.Digest {
		t.Fatalf("alloc digest differs between two runs: %s vs %s", a.Digest, b.Digest)
	}
	if c := mustRep(t, options{workload: wAlloc, seed: 4}); c.Digest == a.Digest {
		t.Fatalf("alloc seeds 3 and 4 share digest %s: the seed does not reach the inputs", a.Digest)
	}
}

// The parallel kernel is trace-equivalent to the serial one, through
// the mid-run checkpoint and restore.
func TestRingDigestIdenticalAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("1024-node ring twice")
	}
	serial := mustRep(t, options{workload: wRing, seed: 2, workers: 1})
	parallel := mustRep(t, options{workload: wRing, seed: 2, workers: 2})
	if serial.Digest != parallel.Digest {
		t.Fatalf("ring digest: Workers 1 %s, Workers 2 %s", serial.Digest, parallel.Digest)
	}
}

// Tracing wraps the placement policy and cuts the drain into slices;
// both must be pass-through for the model.
func TestTracedDigestMatchesUntraced(t *testing.T) {
	for _, w := range []string{wServe, wAlloc} {
		plain := mustRep(t, options{workload: w, seed: 5, episodes: 1})
		var trace bytes.Buffer
		traced := mustRep(t, options{workload: w, seed: 5, episodes: 1, traced: true, traceOut: &trace})
		if plain.Digest != traced.Digest {
			t.Errorf("%s: traced digest %s, untraced %s", w, traced.Digest, plain.Digest)
		}
		var doc struct {
			TraceEvents []traceEvent `json:"traceEvents"`
		}
		if err := json.Unmarshal(trace.Bytes(), &doc); err != nil {
			t.Fatalf("%s: trace is not JSON: %v", w, err)
		}
		names := map[string]int{}
		for _, e := range doc.TraceEvents {
			names[e.Name]++
		}
		for _, want := range []string{"setup", "drain arrivals", "drain tail", "checkpoint", "ckpt decode", "probe vm", "probe bitmap", "policy ShouldMigrate", "request", "placement"} {
			if names[want] == 0 {
				t.Errorf("%s: trace has no %q span (have %v)", w, want, names)
			}
		}
		if names["request"] != plain.Requests {
			t.Errorf("%s: %d request spans for %d requests", w, names["request"], plain.Requests)
		}
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q != [3]float64{2.75, 5.5, 8.25} {
		t.Fatalf("quartiles(1..10) = %v", q)
	}
}

func TestTailPicksPercentileWithTenBeyond(t *testing.T) {
	xs := make([]float64, 250)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	// p99 leaves 2 samples beyond, p95 leaves 12.
	if name, v := tail(xs); name != "p95" || v != 238 {
		t.Fatalf("tail of 250 = %s %v, want p95 238", name, v)
	}
	if name, v := tail(xs[:100]); name != "p90" || v != 90 {
		t.Fatalf("tail of 1..100 = %s %v, want p90 90", name, v)
	}
	if v := percentile(xs, 0.5); v != 125 {
		t.Fatalf("p50 of 1..250 = %v", v)
	}
}

// Each episode's host seconds are scaled by the calibration made before
// it: an episode measured while the calibration loop ran twice as long
// as on the reference host counts half its seconds.
func TestHostSecondsScaledByCalibration(t *testing.T) {
	ref := refCalibrationS
	res := &result{
		LiveHeapMB: 64,
		RunS:       []float64{2, 3, 1},
		SetupS:     []float64{0.2, 0.3, 0.1},
		Ckpt:       []ckptPhases{{CaptureS: 0.4}, {EncodeS: 0.6}, {DecodeS: 0.2}},
		CalS:       []float64{2 * ref, 3 * ref, ref},
	}
	got := map[string]float64{}
	for _, m := range endToEnd(wAlloc, 1, res, []rep{{res: res}}, 1, 0) {
		got[m.name] = m.value
	}
	for name, want := range map[string]float64{"run_s": 1, "setup_s": 0.1, "checkpoint_s": 0.2, "raw_run_s": 2, "calibration_s": 2 * ref, "live_heap_mb": 64} {
		if d := got[name] - want; d > 1e-12 || d < -1e-12 {
			t.Errorf("%s = %v, want %v", name, got[name], want)
		}
	}
}
