package main

import (
	"runtime"
	"time"

	"repro/internal/bitmap"
	"repro/internal/core"
	"repro/internal/layout"
	"repro/internal/madeleine"
	ipm2 "repro/internal/pm2"
)

// probeTime is how long each layer probe repeats its operation.
const probeTime = 40 * time.Millisecond

// sink keeps probe results alive so the compiler cannot drop the calls.
var sink any

// probe repeats op for at least probeTime and returns its mean host
// time and Go heap allocations per call.
func probe(op func()) (nsPerOp, allocsPerOp float64) {
	op()
	var ms0, ms1 runtime.MemStats
	for n := 1; ; n *= 2 {
		runtime.ReadMemStats(&ms0)
		t := time.Now()
		for i := 0; i < n; i++ {
			op()
		}
		d := time.Since(t)
		runtime.ReadMemStats(&ms1)
		if d >= probeTime || n >= 1<<26 {
			return float64(d.Nanoseconds()) / float64(n), float64(ms1.Mallocs-ms0.Mallocs) / float64(n)
		}
	}
}

// runProbes times single-layer calls on inputs sized from the workload
// that just ran: its own program, its migration image size and its
// end-state slot bitmaps.
func runProbes(res *result, workload string, in input, cl *ipm2.Cluster, rec *recorder) {
	top := rec.begin("probes")
	defer rec.end(top, nil)
	put := func(name string, ns, allocs float64) {
		res.Host[name+"_ns"] = ns
		res.Host[name+"_allocs"] = allocs
	}

	sp := rec.begin("probe vm")
	ns, allocs := vmProbe(workload, in)
	res.Host["vm.ns_per_instr"], res.Host["vm.allocs_per_instr"] = ns, allocs
	rec.end(sp, nil)

	// Madeleine pack + unpack of one migration image's payload.
	size := int(counterOf(res, "pm2.migrated_bytes") / max(counterOf(res, "pm2.migrations"), 1))
	if size == 0 {
		size = int(meanArg(in))
	}
	sp = rec.begin("probe madeleine")
	payload := make([]byte, size)
	ns, allocs = probe(func() {
		b := madeleine.NewBuffer()
		b.PackU32(uint32(size)).PackBytes(payload)
		rd := madeleine.FromBytes(b.Bytes())
		rd.U32()
		sink = rd.BytesSection()
	})
	res.Host["madeleine.pack_ns_per_kb"] = ns / (float64(size) / 1024)
	res.Host["madeleine.pack_allocs"] = allocs
	res.Host["madeleine.probe_bytes"] = float64(size)
	rec.end(sp, map[string]any{"bytes": size})

	// The end-state slot bitmaps, one per node (7 KB each).
	maps := make([]*bitmap.Bitmap, cl.Nodes())
	raw := make([][]byte, cl.Nodes())
	for i := range maps {
		maps[i] = cl.Node(i).Slots().Bitmap()
		raw[i] = maps[i].Bytes()
	}
	k := 0
	next := func() int { k = (k + 1) % len(maps); return k }
	sp = rec.begin("probe bitmap")
	ns, allocs = probe(func() { sink = maps[next()].Bytes() })
	put("bitmap.encode", ns, allocs)
	ns, allocs = probe(func() { sink, _ = bitmap.FromBytes(layout.SlotCount, raw[next()]) })
	put("bitmap.decode", ns, allocs)
	acc := bitmap.New(layout.SlotCount)
	ns, allocs = probe(func() { _ = acc.OrBytes(raw[next()]) })
	put("bitmap.or", ns, allocs)
	rec.end(sp, map[string]any{"maps": len(maps)})

	// Purchase planning over the same maps for the workload's typical
	// multi-slot request.
	slots := 3
	if workload == wAlloc {
		var multi []uint32
		for _, q := range in.reqs {
			if q.cohort == "multi" {
				multi = append(multi, q.arg)
			}
		}
		slots = layout.SlotCeil(medianOf(multi))
	}
	sp = rec.begin("probe core")
	global := core.GlobalOr(maps)
	ns, allocs = probe(func() { sink, _ = core.PlanPurchaseOn(global, maps, slots, 0) })
	put("core.plan", ns, allocs)
	rec.end(sp, map[string]any{"slots": slots})
}

// vmProbe runs the workload's own program on a one-node cluster and
// returns host ns and Go allocations per simulated instruction.
func vmProbe(workload string, in input) (nsPerInstr, allocsPerInstr float64) {
	var elapsed time.Duration
	var instrs, mallocs uint64
	var ms0, ms1 runtime.MemStats
	for elapsed < probeTime {
		cl := ipm2.New(ipm2.Config{Nodes: 1}, newImage())
		one := input{}
		switch workload {
		case wRing:
			one.ring = []ringThread{{node: 0, payload: uint32(meanArg(in)) &^ 3}}
		default:
			// Eight requests of the median draw of the workload's
			// main program.
			prog := "negostress"
			if workload == wServe {
				prog = "worker"
			}
			var args []uint32
			for _, q := range in.reqs {
				if q.prog == prog {
					args = append(args, q.arg)
				}
			}
			for i := 0; i < 8; i++ {
				one.reqs = append(one.reqs, request{prog: prog, arg: medianOf(args), cohort: "probe"})
			}
		}
		if err := schedule(cl, cl.Image(), one); err != nil {
			panic(err)
		}
		runtime.ReadMemStats(&ms0)
		t := time.Now()
		cl.Run(0)
		elapsed += time.Since(t)
		runtime.ReadMemStats(&ms1)
		mallocs += ms1.Mallocs - ms0.Mallocs
		_, _, _, _, n := cl.Node(0).Scheduler().Stats()
		instrs += n
	}
	return ratio(float64(elapsed.Nanoseconds()), float64(instrs)), ratio(float64(mallocs), float64(instrs))
}

// meanArg is the mean payload a workload's threads carry.
func meanArg(in input) float64 {
	var sum float64
	n := 0
	for _, q := range in.reqs {
		sum += float64(q.arg)
		n++
	}
	for _, r := range in.ring {
		sum += float64(r.payload)
		n++
	}
	return ratio(sum, float64(n))
}

func counterOf(res *result, name string) float64 {
	for _, c := range res.Counters {
		if c.Name == name {
			return c.Value
		}
	}
	return 0
}
