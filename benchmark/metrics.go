package main

// The metric vocabulary. BENCHMARK.json repeats these tables for the
// driver; TestBenchmarkJSONMatchesTables keeps the two in step.

type metricDef struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // end-to-end only: the relative worsening that is a regression
	kind   string  // "measured" on this machine, or "modelled" virtual time
}

// endToEnd is what a user of the system sees, reported by every workload
// from an untraced run. README.md gives each one's meaning per workload.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25, "measured"},
	{"frames_per_s", "1/s", "higher", 0.25, "measured"},
	{"cpu_ms_per_frame", "ms", "lower", 0.25, "measured"},
	{"allocs_per_frame", "count", "lower", 0.10, "measured"},
	{"heap_peak_mb", "MB", "lower", 0.15, "measured"},
	{"latency_ms_p50", "ms", "lower", 0.25, "measured"},
	{"latency_ms_tail", "ms", "lower", 0.25, "measured"},
}

// perLayer is the traced run's ladder, outside in. No bounds: these say
// where a change landed, the end-to-end metrics say whether it mattered.
var perLayer = []metricDef{
	{"tensor.conv1_ms", "ms", "lower", 0, "measured"},
	{"tensor.conv2_ms", "ms", "lower", 0, "measured"},
	{"tensor.conv3_ms", "ms", "lower", 0, "measured"},
	{"tensor.conv_gflops", "gflop/s", "higher", 0, "measured"},
	{"tensor.pool_hit_share", "share", "higher", 0, "measured"},
	{"nn.conv_infer_self_ms", "ms", "lower", 0, "measured"},
	{"synth.render_ms", "ms", "lower", 0, "measured"},
	{"rfcn.extract_ms", "ms", "lower", 0, "measured"},
	{"rfcn.detect_ms", "ms", "lower", 0, "measured"},
	{"rfcn.features_self_ms", "ms", "lower", 0, "measured"},
	{"rfcn.detect_with_features_ms", "ms", "lower", 0, "measured"},
	{"rfcn.detect_with_features_allocs", "count", "lower", 0, "measured"},
	{"detect.nms300_us", "us", "lower", 0, "measured"},
	{"regressor.predict_ms", "ms", "lower", 0, "measured"},
	{"adascale.plan_finish_us", "us", "lower", 0, "measured"},
	{"adascale.step_ms", "ms", "lower", 0, "measured"},
	{"adascale.step_allocs", "count", "lower", 0, "measured"},
	{"adascale.mean_scale", "px", "lower", 0, "measured"},
	{"adascale.step_residual_pct", "%", "lower", 0, "measured"},
	{"parallel.submit_rtt_us", "us", "lower", 0, "measured"},
	{"server.decode_us_per_frame", "us", "lower", 0, "measured"},
	{"server.ingest_self_us_per_frame", "us", "lower", 0, "measured"},
	{"server.results_us", "us", "lower", 0, "measured"},
	{"server.socket_rtt_us", "us", "lower", 0, "measured"},
	{"obs.inc_ns", "ns", "lower", 0, "measured"},
	{"obs.observe_ns", "ns", "lower", 0, "measured"},
	{"obs.prometheus_ms_100k", "ms", "lower", 0, "measured"},
	{"obs.scrape_ms_first", "ms", "lower", 0, "measured"},
	{"obs.scrape_ms_last", "ms", "lower", 0, "measured"},
	{"obs.merge_ms", "ms", "lower", 0, "measured"},
	{"serve.sched_us_per_frame_16", "us", "lower", 0, "measured"},
	{"serve.sched_us_per_frame_10k", "us", "lower", 0, "measured"},
	{"serve.genload_ms", "ms", "lower", 0, "measured"},
	{"serve.queue_wait_ms_p95_modelled", "virtual_ms", "lower", 0, "modelled"},
	{"serve.latency_ms_p99_modelled", "virtual_ms", "lower", 0, "modelled"},
	{"cluster.ring_assign_ms_30k", "ms", "lower", 0, "measured"},
	{"cluster.sim_ms_per_epoch", "ms", "lower", 0, "measured"},
	{"seqnms.apply_ms_per_snippet", "ms", "lower", 0, "measured"},
	{"eval.evaluate_ms", "ms", "lower", 0, "measured"},
	{"simclock.c0_ms", "ms", "lower", 0, "measured"},
	{"simclock.c1_ms_per_mpx", "ms", "lower", 0, "measured"},
	{"simclock.fit_err_pct", "%", "lower", 0, "measured"},
	{"go.gc_pause_ms", "ms", "lower", 0, "measured"},
	{"go.gc_cycles", "count", "lower", 0, "measured"},
	{"bench.gen_late_ms_p99", "ms", "lower", 0, "measured"},
	{"bench.trace_overhead_pct", "%", "lower", 0, "measured"},
	{"bench.speed_factor", "x", "lower", 0, "measured"},
	{"bench.failed_share", "share", "lower", 0, "measured"},
	{"bench.quality_map", "mAP", "higher", 0, "measured"},
}
