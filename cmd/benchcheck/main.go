// benchcheck is the CI perf-regression gate: it compares freshly
// generated pm2bench -json reports against their committed baselines
// and exits non-zero when any gated figure moved past its gate.
//
// Every ci/BENCH_<figure>.baseline.json is read together with the
// BENCH_<figure>.json in the working directory. Both are flattened into
// bench.Records, and one loop keyed by (figure, metric) holds each
// current value to the gate its baseline record declares: exact, tol
// (at most bench.Tolerance above baseline plus the record's grace) or
// floor (at most bench.Tolerance below). Which metrics are gated, and
// how, is decided by each report's Records method in internal/bench;
// this command has no per-figure code. A missing current file, a
// baseline record missing from the current report, and a gated record
// present only in the current report all fail. Info records (wall
// clock, speedups, byte counts pinned elsewhere) are printed, never
// compared.
//
// Usage:
//
//	benchcheck
package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/bench"
)

func main() {
	if !run("ci", ".", os.Stdout) {
		fmt.Fprintln(os.Stderr, "benchcheck: regression beyond a gate — see report above")
		os.Exit(1)
	}
}

// run compares every baseline in baselineDir with its current report
// in currentDir, writes one line per record to w, and reports whether
// every gated record passed.
func run(baselineDir, currentDir string, w io.Writer) bool {
	paths, err := filepath.Glob(filepath.Join(baselineDir, "BENCH_*.baseline.json"))
	if err != nil || len(paths) == 0 {
		fmt.Fprintf(w, "benchcheck: no BENCH_*.baseline.json in %s\n", baselineDir)
		return false
	}
	ok := true
	var base, cur []bench.Record
	for _, bp := range paths {
		cp := filepath.Join(currentDir, strings.TrimSuffix(filepath.Base(bp), ".baseline.json")+".json")
		b, err := load(bp)
		var c []bench.Record
		if err == nil {
			c, err = load(cp)
		}
		if err != nil {
			fmt.Fprintf(w, "benchcheck: %v\n", err)
			ok = false
			continue
		}
		base, cur = append(base, b...), append(cur, c...)
	}
	return compare(base, cur, w) && ok
}

func load(path string) ([]bench.Record, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	recs, err := bench.DecodeRecords(blob)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return recs, nil
}

type key struct{ figure, metric string }

// compare holds every gated current record to its baseline record and
// reports whether all of them passed.
func compare(base, cur []bench.Record, w io.Writer) bool {
	current := make(map[key]bench.Record, len(cur))
	for _, c := range cur {
		current[key{c.Figure, c.Metric}] = c
	}
	ok := true
	counts := map[bench.Gate]int{}
	for _, b := range base {
		if b.Gate == bench.GateInfo {
			continue
		}
		k := key{b.Figure, b.Metric}
		c, found := current[k]
		delete(current, k)
		status := "ok"
		switch {
		case !found:
			fmt.Fprintf(w, "%-11s %-34s MISSING from current report\n", b.Figure, b.Metric)
			ok = false
			continue
		case !b.Admits(c.Value):
			status = "REGRESSED"
			ok = false
		}
		counts[b.Gate]++
		fmt.Fprintf(w, "%-11s %-34s %14.3f %-11s baseline %14.3f  %-5s %14.3f  %s\n",
			b.Figure, b.Metric, c.Value, b.Unit, b.Value, b.Gate, b.Limit(), status)
	}
	for _, c := range cur {
		switch _, extra := current[key{c.Figure, c.Metric}]; {
		case c.Gate == bench.GateInfo:
			fmt.Fprintf(w, "%-11s %-34s %14.3f %-11s (informational)\n", c.Figure, c.Metric, c.Value, c.Unit)
		case extra:
			fmt.Fprintf(w, "%-11s %-34s MISSING from baseline report\n", c.Figure, c.Metric)
			ok = false
		}
	}
	fmt.Fprintf(w, "benchcheck: %d exact, %d tol, %d floor records compared\n",
		counts[bench.GateExact], counts[bench.GateTol], counts[bench.GateFloor])
	return ok
}
