// Command perfbench is the repository's benchmark: one command that
// runs a named workload from a seed, checks its outputs, and prints its
// end-to-end metrics (or, in a separate traced run, its per-layer
// metrics) with the JSON result set on the last line.
//
//	bash perfbench/run.sh --workload serve --seed 1 --seconds 30 --trace 0
//	bash perfbench/run.sh --workload ring --seed 1 --seconds 30 --trace 1
//
// run.sh builds the binary from the checkout's sources into
// $CARGO_TARGET_DIR (default .bench_build) and runs it from the
// repository root. perfbench is a module of its own that drives the
// program only through the repro/internal packages' exported API; it
// changes nothing outside this directory. The default seed is 1; seed
// 7919 is held out of tuning and confirms a claimed gain.
//
// # Two clocks
//
// Virtual time is the modelled 1999 cluster: request, migration and
// negotiation latencies in µs. It is exact: the same seed gives the
// same numbers on any host and at any kernel worker count. Host time is
// how long the simulator itself takes; it is measured here as medians
// over repetitions, each in its own child process so that its peak
// resident memory is its own. A seed has one stream of arrivals per
// episode (three on serve, two on alloc, one on ring); a run's
// repetitions run them in turn, one per process, because a process's
// speed varies beyond the spread of its own episodes, and the run's
// exact record pools the first repetition of each. Every result set
// starts with the host
// record (GOMAXPROCS, nproc, Go version, CPU model); a traced run also
// reports the tracing overhead.
//
// A shared host's speed drifts by a quarter or more over minutes, which
// would make the spread between runs wider than any useful bound. So
// before each episode, after a garbage collection, the benchmark times a
// fixed integer loop that touches no memory and runs none of the
// program's code (calibrate.go), and scales that episode's host seconds
// by 0.1 s over the loop's time: the end-to-end seconds are seconds on a
// host whose loop takes 0.1 s, about what it takes on the reference host
// (a 2-vCPU Xeon VM). A change to the program moves the scaled seconds
// as it moves the raw ones; drift of the host moves the loop too. The
// unscaled drain median (raw_run_s) and the loop's median time
// (calibration_s) are printed beside them.
//
// This benchmark does not check the cost model against the paper's
// figures. Those checks stay with pm2bench, its committed baselines in
// ci/, and EXPERIMENTS.md.
//
// # Workloads
//
// serve: 64 nodes, the work-stealing policy, a 2 ms balancer, and the
// open-loop three-tenant DeriveSpec mix (api, batch, deep) at 16 times
// its base rate. Each stream is cut after 3.6 M worker iterations, the
// work that rate offers in DeriveSpec's 10 ms window, so every seed asks
// the same work; a seed has three such streams (episodes), because a
// longer stream near the knee would change the regime. This is the
// serving traffic users run. Host time goes to the interpreter and
// scheduler (vm, vmem, marcel) and to policy and loadbal. It does no
// negotiation, so it is the no-change check for slot-layer work. Arrivals
// are engine events at their due instants, so the generator never lags.
// The knee search climbs a rate ladder over DeriveSpec's own window.
//
// alloc: 64 nodes with the paper's defaults (sequential gather, global
// arbiter, negotiation policy), a 2 ms balancer, and 800 open-loop
// Poisson arrivals of negostress on uniformly random nodes, 20 ms apart
// on average. 40 % are multi-slot (130-250 KB, always negotiate) and
// 60 % single-slot (4-40 KB, local); below half, so that the median
// request lies inside the single-slot population and not on the edge
// between the two. A seed has two such streams (episodes), so that
// req_tail_us rests on 1600 requests. Host time goes to pm2 gather
// and arbiter, bitmap, core planning and the 7 KB bitmap replies through
// madeleine and bip; the interpreter does little.
//
// ring: 1024 nodes, two kernel workers, no balancer. One traveller per
// two nodes carries a seed-drawn 8-32 KB isomalloc payload with a marker
// in its first and last word and hops 16 times around the ring. At 13 ms
// of virtual time, before the first traveller finishes, the cluster is
// checkpointed, encoded, decoded and restored, and the restored cluster
// drains the rest. It exercises the parallel windows over many lanes,
// the migration pack and unpack path (madeleine, vmem, bip), cluster
// construction (core.NewNodeSlots) and the checkpoint codec in both
// directions. It does no negotiation and no policy work.
//
// Serve and alloc cannot be checkpointed mid-run: their future arrivals
// are pending engine events, which a capture drains first. They
// checkpoint the drained cluster instead, and check that the restored
// copy reproduces the output.
//
// # End-to-end metrics
//
// The JSON result carries the metrics every workload has and that vary
// from seed to seed. Host seconds are medians over every episode of
// every repetition, scaled to the reference host.
//
// Memory is printed but is not part of the JSON result, because on
// ring it does not repeat between runs. A repetition's peak resident
// memory holds whatever garbage the concurrent collector had not yet
// reclaimed: ring's peaks fall into modes near 170, 225 and 250 MB, and
// which mode a whole run sees drifts with the host. Its live heap
// (live_heap_mb: two full collections after set-up, after each drain and
// after each checkpoint round trip) repeats to a tenth of a percent
// within a run, but is 83.7 MB in most runs and 117.8 MB in about a
// third, whatever the seed; the 34 MB step is about the size of the
// checkpoint image and is not explained yet.
//
//	run_s         host  drain time of one episode after its set-up,
//	                    checkpoint excluded
//	setup_s       host  image, cluster, balancer attach and scheduling
//	                    the load, per episode
//	checkpoint_s  host  capture + encode + decode + restore
//	req_p50_us    virtual  per request, arrival to exit
//	req_tail_us   virtual  highest of p99, p95, p90 with at least ten
//	                    samples beyond it; the choice and the sample
//	                    count are printed beside the value
//
// Printed beside them, with their units: migration_p50_us and
// migration_tail_us (serve, ring), negotiation_p50_us and
// negotiation_tail_us (alloc), knee_req_per_ms (serve: the highest
// ladder rate that drains with req_tail_us within 50 ms), failed_ratio
// (requests not completed plus negotiation failures, over requests
// plus negotiations) and generator_lag_us. They stay out of the JSON result because a protocol
// latency can be one cost-model constant on every seed (alloc's
// negotiation p50 is 10844.8 µs on every seed tried) and the others are
// zero by construction or apply to one workload; all of them are exact
// and covered by the virtual digest. calibration_s, the host's median
// calibration time, live_heap_mb and peak_rss_mb (a median over
// repetitions) are printed too.
//
// # Checks and the virtual digest
//
// Every repetition fails the run on any mismatch: each request's
// completion line is present once; the negostress and ring payload
// markers read back intact after migration (a bad marker prints BAD);
// the restored ring continuation finishes every thread; no thread
// faults or stays resident. The first repetition of each stream also
// runs CheckInvariants, which costs seconds at 1024 nodes; every later
// one must reproduce its digest. The digest hashes
// the program output, every request's lifecycle, every migration and
// negotiation latency and every exact counter. The run checks it is the
// same in every repetition of a stream, traced or not; the tests check it across
// two runs, across Workers 1 and 2 on ring, and between traced and
// untraced runs. Buffer-pool reuse is kept out of the digest: it is the
// one counter that differs between Workers 1 and 2.
//
// # Per-layer metrics
//
// A traced run (--trace 1) alternates untraced and traced repetitions
// and prints the per-layer metrics below. Spans are taken at the
// benchmark's own calls into the layers: set-up, the drain cut into
// fixed virtual-time slices (arrival window and tail; before the
// checkpoint and after the restore), each wrapped policy call, each
// checkpoint phase, and the probes. Each request's virtual lifecycle
// (arrival, placement, exit) is one more span, keyed by request id. The
// spans are written as Chrome trace-event JSON to
// .bench_build/perfbench-trace-<workload>-seed<seed>.json.
//
// The probes time single-layer calls on inputs sized from the workload
// and report ns/op and allocs/op: the workload's own program on one node
// (vm), pack and unpack of its mean migration image (madeleine),
// Bytes, FromBytes and OrBytes on its end-state 7 KB slot bitmaps
// (bitmap), PlanPurchaseOn over the same maps for its typical multi-slot
// request (core), and the checkpoint encode and decode themselves.
//
// Which end-to-end metric each layer metric should move, and where:
//
//	simtime.events, ns_per_event            run_s        all; most ring
//	simtime.parallel_windows, lanes_per_window,
//	  serial_event_share                    run_s        ring
//	vm.instructions, marcel.dispatches,
//	  vm.ns_per_instr                       run_s        serve
//	marcel.faulted (must be 0)              failed_ratio all
//	bip.messages, bip.bytes                 migration_p50_us, negotiation_p50_us
//	                                                     ring, alloc
//	madeleine.pool_hit_ratio, pack_ns_per_kb run_s       ring
//	pm2.migrations, bytes_per_migration     migration_p50/tail  ring, serve
//	pm2.negotiations, negotiation_useful_ratio,
//	  version_declines                      negotiation_tail_us, failed_ratio  alloc
//	pm2.merged_bytes_per_negotiation,
//	  messages_per_negotiation              negotiation_p50_us, run_s  alloc
//	pm2.placement_p50_us                    req_p50_us   alloc, serve
//	bitmap.encode_ns, decode_ns, or_ns      run_s        alloc
//	core.plan_ns                            run_s        alloc
//	core.node_setup_us                      setup_s      ring
//	loadbal.rounds, loadbal.moves,
//	  policy.decide_ns                      req_tail_us, run_s  serve
//	ckpt.bytes, capture_s, encode_s,
//	  decode_s, restore_s                   checkpoint_s ring
//	go.allocs_per_event, alloc_bytes_per_event,
//	  gc_cycles                             run_s, live_heap_mb  all; most ring
//
// pm2.messages_per_negotiation divides every message by the
// negotiations, so on alloc it includes the few balancer migrations.
package main
