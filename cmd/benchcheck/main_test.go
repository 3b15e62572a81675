package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/bench"
)

const baselineDir = "../../ci"

// figures lists the committed baselines' figure names.
func figures(t *testing.T) []string {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(baselineDir, "BENCH_*.baseline.json"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no baselines in %s: %v", baselineDir, err)
	}
	var figs []string
	for _, p := range paths {
		figs = append(figs, strings.TrimSuffix(strings.TrimPrefix(filepath.Base(p), "BENCH_"), ".baseline.json"))
	}
	return figs
}

// currentDir writes every committed baseline into a fresh directory
// under its current-report name, passing each through edit first; a
// nil result from edit leaves that report out.
func currentDir(t *testing.T, edit func(fig string, blob []byte) []byte) string {
	t.Helper()
	dir := t.TempDir()
	for _, fig := range figures(t) {
		blob, err := os.ReadFile(filepath.Join(baselineDir, "BENCH_"+fig+".baseline.json"))
		if err != nil {
			t.Fatal(err)
		}
		if blob = edit(fig, blob); blob == nil {
			continue
		}
		if err := os.WriteFile(filepath.Join(dir, "BENCH_"+fig+".json"), blob, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

func unchanged(_ string, blob []byte) []byte { return blob }

// baselineRecords decodes every committed baseline.
func baselineRecords(t *testing.T) []bench.Record {
	t.Helper()
	var recs []bench.Record
	for _, fig := range figures(t) {
		r, err := load(filepath.Join(baselineDir, "BENCH_"+fig+".baseline.json"))
		if err != nil {
			t.Fatal(err)
		}
		recs = append(recs, r...)
	}
	return recs
}

// TestBaselinesPassAgainstThemselves: the committed baselines, read as
// current reports, pass every gated record — 84 exact, 34 tolerance and
// 4 floor comparisons carried over from the per-figure gates, plus the
// three workload-identity records (scale hops/spin, migration payload)
// as exact.
func TestBaselinesPassAgainstThemselves(t *testing.T) {
	var out bytes.Buffer
	if !run(baselineDir, currentDir(t, unchanged), &out) {
		t.Fatalf("baselines failed against themselves:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "benchcheck: 87 exact, 34 tol, 4 floor records compared\n") {
		t.Fatalf("unexpected comparison counts:\n%s", out.String())
	}
	if strings.Contains(out.String(), "MISSING") || strings.Contains(out.String(), "REGRESSED") {
		t.Fatalf("self-comparison flagged a record:\n%s", out.String())
	}
}

// limit recomputes a baseline record's bound from the gate rules:
// exact holds the value itself, tol allows 25% plus grace above it,
// floor 25% plus grace below it (never below zero).
func limit(b bench.Record) float64 {
	switch b.Gate {
	case bench.GateTol:
		return b.Value*1.25 + b.Grace
	case bench.GateFloor:
		return math.Max(0, b.Value*0.75-b.Grace)
	}
	return b.Value
}

// TestEveryGatedRecordTrips moves each gated baseline record, one at a
// time, to exactly its limit (must pass), just past it (must fail),
// out of the current report (must fail), and duplicates it under a
// name the baseline lacks (must fail).
func TestEveryGatedRecordTrips(t *testing.T) {
	base := baselineRecords(t)
	gated := 0
	for i, b := range base {
		if b.Gate == bench.GateInfo {
			continue
		}
		gated++
		lim := limit(b)
		past := math.Nextafter(lim, math.Inf(1))
		if b.Gate == bench.GateFloor {
			past = math.Nextafter(lim, math.Inf(-1))
		}
		cur := slices.Clone(base)
		cur[i].Value = lim
		if !compare(base, cur, io.Discard) {
			t.Errorf("%s %s: value at its %s limit %v failed", b.Figure, b.Metric, b.Gate, lim)
		}
		if b.Gate == bench.GateExact {
			if cur[i].Value = math.Nextafter(lim, math.Inf(-1)); compare(base, cur, io.Discard) {
				t.Errorf("%s %s: exact value moved below baseline passed", b.Figure, b.Metric)
			}
		}
		if cur[i].Value = past; compare(base, cur, io.Discard) {
			t.Errorf("%s %s: value %v past its %s limit %v passed", b.Figure, b.Metric, past, b.Gate, lim)
		}
		if compare(base, slices.Delete(slices.Clone(base), i, i+1), io.Discard) {
			t.Errorf("%s %s: dropped record passed", b.Figure, b.Metric)
		}
		extra := b
		extra.Metric += " extra"
		if compare(base, append(slices.Clone(base), extra), io.Discard) {
			t.Errorf("%s %s: extra gated record passed", b.Figure, b.Metric)
		}
	}
	if gated != 125 {
		t.Fatalf("%d gated baseline records, want 125", gated)
	}
}

// TestInfoRecordsAreNeverCompared: an info record may move, vanish or
// appear without failing the gate — wall clock measures the host.
func TestInfoRecordsAreNeverCompared(t *testing.T) {
	base := baselineRecords(t)
	var cur []bench.Record
	for _, r := range base {
		if r.Gate == bench.GateInfo {
			r.Value = r.Value*3 + 1
			if strings.HasSuffix(r.Metric, "wall") {
				continue
			}
		}
		cur = append(cur, r)
	}
	cur = append(cur, bench.Record{Figure: "scale", Metric: "n=64 workers=2 speedup", Gate: bench.GateInfo, Value: 2})
	if !compare(base, cur, io.Discard) {
		t.Fatal("moving, dropping or adding info records failed the gate")
	}
}

// TestMissingCurrentReportFails: each figure's current report is
// required once its baseline is committed.
func TestMissingCurrentReportFails(t *testing.T) {
	for _, fig := range figures(t) {
		dir := currentDir(t, func(f string, blob []byte) []byte {
			if f == fig {
				return nil
			}
			return blob
		})
		var out bytes.Buffer
		if run(baselineDir, dir, &out) {
			t.Errorf("missing BENCH_%s.json passed:\n%s", fig, out.String())
		}
	}
}

// TestReportRowsAreKeyed drives the gate through the JSON files: a
// convoy batch size dropped from, or added to, the current migration
// report fails, as does a current file holding another figure's report
// or an empty one.
func TestReportRowsAreKeyed(t *testing.T) {
	editMigration := func(edit func(*bench.MigrationReport)) func(string, []byte) []byte {
		return func(fig string, blob []byte) []byte {
			if fig != "migration" {
				return blob
			}
			var r bench.MigrationReport
			if err := json.Unmarshal(blob, &r); err != nil {
				t.Fatal(err)
			}
			edit(&r)
			out, err := json.Marshal(r)
			if err != nil {
				t.Fatal(err)
			}
			return out
		}
	}
	cases := map[string]func(string, []byte) []byte{
		"dropped convoy row": editMigration(func(r *bench.MigrationReport) { r.Convoy = r.Convoy[1:] }),
		"extra convoy row": editMigration(func(r *bench.MigrationReport) {
			r.Convoy = append(r.Convoy, bench.ConvoyReport{K: 16, PerThreadConvoyMicros: 600, ConvoyBytesPerThread: 65833})
		}),
		"empty report":   editMigration(func(r *bench.MigrationReport) { r.Convoy = nil }),
		"payload change": editMigration(func(r *bench.MigrationReport) { r.PayloadBytes /= 2 }),
		"wrong figure": func(fig string, blob []byte) []byte {
			if fig == "migration" {
				b, err := os.ReadFile(filepath.Join(baselineDir, "BENCH_failover.baseline.json"))
				if err != nil {
					t.Fatal(err)
				}
				return b
			}
			return blob
		},
	}
	for name, edit := range cases {
		var out bytes.Buffer
		if run(baselineDir, currentDir(t, edit), &out) {
			t.Errorf("%s passed:\n%s", name, out.String())
		}
	}
}
