package main

// perLayer lists every metric a traced run reports, whatever the
// workload: a layer the workload does not call reports 0 (no calls, no
// time), which is itself the finding for work counts such as
// core.compiles on fig4-lazy. The comment on each group names the
// end-to-end metric it should move and on which workload.
var perLayer = []struct{ name, unit string }{
	// core, path derivation: sweep_s on fig4-lazy.
	{"core.select_ns", "ns"},
	{"core.links_ns", "ns"},
	{"core.pairs_derived", "count"},
	// core, table build: setup_s and sweep_s on faults-compiled, setup_s
	// on serve-churn; repair and patch also move serve.converge_ms.
	{"core.compile_s", "s"},
	{"core.compiled_pairs", "count"},
	{"core.compiles", "count"},
	{"core.repairer_s", "s"},
	{"core.repair_us", "us"},
	{"core.delta_patch_ms", "ms"},
	{"core.delta_patches", "count"},
	{"core.patched_pairs", "count"},
	// core.checksum_ms moves p99_ms on serve-churn, through GET /state.
	{"core.checksum_ms", "ms"},
	// flow: multi-K and optimal load move sweep_s on fig4-lazy; compiled
	// and degraded evaluation move sweep_s on faults-compiled.
	{"flow.multik_ns_per_pair", "ns"},
	{"flow.optimal_load_ms", "ms"},
	{"flow.compiled_ns_per_pair", "ns"},
	{"flow.degraded_ns_per_pair", "ns"},
	{"flow.pairs_evaluated", "count"},
	{"flow.evaluated_per_compiled", "ratio"},
	{"flow.compile_fallback_amortized", "count"},
	{"flow.repair_patched", "count"},
	{"flow.repair_lazy", "count"},
	// traffic, stats, experiments: sweep_s on fig4-lazy and
	// faults-compiled.
	{"traffic.perm_ms", "ms"},
	{"stats.samples", "count"},
	{"stats.sampler_self_s", "s"},
	{"experiments.cell_p50_s", "s"},
	{"experiments.cell_max_s", "s"},
	{"experiments.busy_ratio", "ratio"},
	// flit: route tables move setup_s, the rest sweep_s, on flit-table1.
	{"flit.route_table_ms", "ms"},
	{"flit.run_s", "s"},
	{"flit.ns_per_cycle", "ns"},
	{"flit.ns_per_flit", "ns"},
	{"flit.runs", "count"},
	{"flit.cycles", "count"},
	{"flit.flits_ejected", "count"},
	{"flit.vc_stalls", "count"},
	{"flit.msgs_unroutable", "count"},
	{"flit.wedges", "count"},
	// serve: boot moves setup_s; service times move p50_ms and the
	// path tail (serve.p90_ms, serve.p99_ms); the fault POST (journal
	// fsync) moves serve.converge_ms and the storm sweep_s; all on
	// serve-churn. serve.converge_ms and serve.sustained_qps exist on
	// this workload alone, so they cannot be gated (every workload must
	// report each gated metric); the tails are kept here ungated because
	// a noisy minute on a shared host multiplies them several times over.
	{"serve.boot_s", "s"},
	{"serve.path_us_p50", "us"},
	{"serve.path_us_tail", "us"},
	{"serve.batch_us_p50", "us"},
	{"serve.batch_us_tail", "us"},
	{"serve.maxload_us_p50", "us"},
	{"serve.maxload_us_tail", "us"},
	{"serve.state_us_p50", "us"},
	{"serve.faults_us_p50", "us"},
	{"serve.faults_us_tail", "us"},
	{"serve.queue_ms", "ms"},
	{"serve.p90_ms", "ms"},
	{"serve.p99_ms", "ms"},
	{"serve.converge_ms", "ms"},
	{"serve.sustained_qps", "1/s"},
	{"serve.queries", "count"},
	{"serve.events_accepted", "count"},
	{"serve.table_swaps", "count"},
	// loadgen: validity of the offered load, not targets.
	{"loadgen.lag_ms", "ms"},
	{"loadgen.errors", "count"},
	{"loadgen.throttled", "count"},
	// tracing itself.
	{"trace.overhead_s", "s"},
	{"trace.spans", "count"},
}

// perLayerUnits maps each per-layer metric to its unit.
var perLayerUnits = func() map[string]string {
	m := make(map[string]string, len(perLayer))
	for _, x := range perLayer {
		m[x.name] = x.unit
	}
	return m
}()
