package main

// metricName is a reported metric with its unit, as BENCHMARK.json lists it.
type metricName struct{ name, unit string }

// endToEndNames are the metrics of an untraced run. Every workload reports
// every one of them; see README.md for what the operation is per workload.
var endToEndNames = []metricName{
	{"setup_s", "s"},
	{"throughput", "1/s"},
	{"p50_ms", "ms"},
	{"tail_ms", "ms"},
	{"max_rss_mb", "MB"},
}

// perLayerNames are the metrics of a traced run, named after the module
// (layer) whose public calls they time or count. A workload reports 0 for
// a layer it does not exercise and says so in the detail record's notes.
var perLayerNames = []metricName{
	{"trace.e2e_throughput", "1/s"},
	{"verilog.parse_us", "us"},
	{"verilog.parse_calls", "count"},
	{"compile.compile_us", "us"},
	{"compile.flatten_us", "us"},
	{"compile.calls", "count"},
	{"sim.plan_us", "us"},
	{"sim.run2_us", "us"},
	{"sim.run4_us", "us"},
	{"sim.lanes2_us", "us"},
	{"sim.lanes4_us", "us"},
	{"sim.run2_allocs", "count"},
	{"sva.check_us", "us"},
	{"sva.check_lanes_us", "us"},
	{"formal.exhaustive_ms", "ms"},
	{"formal.directed_random_ms", "ms"},
	{"formal.directed_const_random_ms", "ms"},
	{"formal.runs", "count"},
	{"formal.allocs_per_run", "count"},
	{"bugs.enumerate_us", "us"},
	{"bugs.mutants", "count"},
	{"augment.sample_yield", "ratio"},
	{"verify.hits", "count"},
	{"verify.misses", "count"},
	{"verify.coalesced", "count"},
	{"verify.hit_ratio", "ratio"},
	{"verify.hit_us", "us"},
	{"verify.miss_ms", "ms"},
	{"verify.disk_put_us", "us"},
	{"verify.disk_get_us", "us"},
	{"verify.disk_open_ms", "ms"},
	{"verify.disk_bytes", "bytes"},
	{"model.solve_ms", "ms"},
	{"eval.judge_us", "us"},
	{"eval.judge_hit_ratio", "ratio"},
	{"serve.metrics_rtt_us", "us"},
	{"serve.check_hit_us", "us"},
	{"serve.stimulus_us", "us"},
	{"serve.lanes_per_batch", "ratio"},
	{"serve.scalar_runs", "count"},
	{"serve.rejected", "count"},
	{"go.alloc_mb", "MB"},
	{"go.allocs", "count"},
	{"go.gc_cycles", "count"},
	{"go.gc_pause_ms", "ms"},
}
