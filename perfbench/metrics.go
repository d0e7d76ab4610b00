package main

// metricDef is one reported metric: its name and unit.
type metricDef struct{ name, unit string }

// endToEnd is what every workload reports with --trace 0. For serve-mix an
// operation is one request.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"op_p50_s", "s"},
	{"alloc_mb_per_op", "MB"},
	{"peak_rss_mb", "MB"},
}

// warmDrivers are the drivers that read suites only through
// Lab.MeasureSuite: over a warm store they run no simulation.
var warmDrivers = []string{
	"table3", "table4", "fig1", "fig2", "fig3", "fig4", "fig5",
	"fig6", "fig7", "fig8", "fig9", "fig10", "crossisa",
}

// perLayer is what every workload reports with --trace 1. Counts are per
// operation. A layer the workload bypasses reads 0.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	ms := []metricDef{
		{"mem.cache_access_ns", "ns"},
		{"mem.tlb_lookup_ns", "ns"},
		{"branch.predict_ns", "ns"},
		{"mem.insert_range_ns_per_line", "ns"},
		{"sim.prewarm_ms", "ms"},
		{"sim.run_ms", "ms"},
		{"sim.derive_ms", "ms"},
		{"sim.workload_ms_p50", "ms"},
		{"sim.mips", "Minstr/s"},
		{"sim.alloc_mb_per_workload", "MB"},
		{"sim.mallocs_per_workload", "count"},
		{"sim.instructions", "count"},
		{"sim.l1d_accesses", "count"},
		{"sim.l3_accesses", "count"},
		{"sim.dram_reads", "count"},
		{"sim.jit_starts", "count"},
		{"sim.gc_triggered", "count"},
		{"core.pool_utilization", "fraction"},
		{"core.queue_wait_ms", "ms"},
		{"core.workloads", "count"},
		{"mstore.get_hit_ms", "ms"},
		{"mstore.put_ms", "ms"},
		{"mstore.bytes_read", "bytes"},
		{"mstore.hit_ratio", "fraction"},
		{"pca.fit_ms", "ms"},
		{"cluster.agglomerate_ms", "ms"},
		{"core.characterize_ms", "ms"},
	}
	for _, d := range warmDrivers {
		ms = append(ms, metricDef{"experiments.driver_ms." + d, "ms"})
	}
	return append(ms, []metricDef{
		{"experiments.memcache_hits", "count"},
		{"experiments.singleflight_coalesced", "count"},
		{"artifact.render_json_ms", "ms"},
		{"artifact.render_text_ms", "ms"},
		{"artifact.json_bytes", "bytes"},
		{"serve.queue_wait_ms_p50", "ms"},
		{"serve.queue_wait_ms_p90", "ms"},
		{"serve.handler_ms_p50", "ms"},
		{"serve.http_overhead_ms", "ms"},
		{"serve.shed", "count"},
		{"serve.abandoned", "count"},
		{"warm_req_p50_ms", "ms"},
		{"warm_req_tail_ms", "ms"},
		{"warm_req_tail_pct", "%"},
		{"warm_req_samples", "count"},
		{"cold_req_p50_ms", "ms"},
		{"cold_req_samples", "count"},
		{"req_per_s", "1/s"},
		{"error_rate", "fraction"},
		{"op_samples", "count"},
		{"attr.http_frac", "fraction"},
		{"attr.queue_frac", "fraction"},
		{"attr.driver_frac", "fraction"},
		{"attr.coalesce_frac", "fraction"},
		{"attr.mstore_frac", "fraction"},
		{"attr.pool_frac", "fraction"},
		{"attr.sim_prewarm_frac", "fraction"},
		{"attr.sim_run_frac", "fraction"},
		{"attr.sim_other_frac", "fraction"},
		{"attr.render_frac", "fraction"},
		{"attr.unexplained_frac", "fraction"},
		{"attr.traced_op_p50_s", "s"},
		{"attr.untraced_op_p50_s", "s"},
		{"attr.trace_overhead_s", "s"},
	}...)
}
