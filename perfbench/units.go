package main

// The metric vocabulary. BENCHMARK.json at the checkout root lists the
// same names and units; TestMetricNamesMatchBenchmarkJSON keeps the two
// in step.

// endToEndMetrics are reported by every untraced run. An "op" is the
// workload's timed unit: one pass over both exhaustions (exhaust), one
// hunt (fuzz-hunt), one cell (campaign, fleet).
var endToEndMetrics = []metricSpec{
	{"setup_s", "s"},
	{"op_p50_ms", "ms"},
	{"op_p90_ms", "ms"},
	{"ops_per_s", "1/s"},
	{"peak_rss_mb", "MB"},
}

// baselineFinders are the finders of the checked-in baseline matrix,
// each of which gets its own campaign.cell_s / campaign.runs_per_s row.
var baselineFinders = []string{
	"explore", "explore-por", "explore-tb", "explore-vb", "fuzz", "noise", "pct", "race",
}

// spanLayers are the layers spans are attributed to by name prefix.
var spanLayers = []string{"harness", "op", "explore", "fuzz", "campaign", "campsvc"}

var fixedPerLayerMetrics = []metricSpec{
	{"host.pingpong_ns", "ns"},

	{"sched.run_ns", "ns"},
	{"sched.step_continue_ns", "ns"},
	{"sched.step_switch_ns", "ns"},
	{"sched.snapshot_ns", "ns"},
	{"sched.ff_step_ns", "ns"},

	{"explore.schedules", "count"},
	{"explore.useful_ratio", "ratio"},
	{"explore.steps_total", "count"},
	{"explore.replayed_frac", "ratio"},
	{"explore.restored_frac", "ratio"},
	{"explore.novel_frac", "ratio"},
	{"explore.step_ns", "ns"},
	{"explore.state_hit_ratio", "ratio"},
	{"explore.snapshot_restore_ratio", "ratio"},
	{"explore.checkpoint_hits", "count"},
	{"explore.por_pruned", "count"},
	{"explore.sleep_pruned", "count"},
	{"explore.backtracks", "count"},
	{"explore.allocs_per_schedule", "count"},

	{"fuzz.runs_per_s", "1/s"},
	{"fuzz.runs_to_bug_p50", "count"},
	{"fuzz.runs_to_bug_p90", "count"},
	{"fuzz.repair_ratio", "ratio"},
	{"fuzz.coverage_gain_ratio", "ratio"},
	{"fuzz.corpus", "count"},
	{"fuzz.coverage", "count"},
	{"fuzz.allocs_per_run", "count"},

	{"coverage.event_ns", "ns"},

	{"campaign.sandbox_us", "us"},
	{"campaign.append_us", "us"},
	{"campaign.append_sync_us", "us"},
	{"campaign.compact_ms", "ms"},
	{"campaign.gate_ms", "ms"},
	{"campaign.pool_util", "ratio"},

	{"campsvc.lease_rtt_p50_us", "us"},
	{"campsvc.lease_rtt_p90_us", "us"},
	{"campsvc.complete_rtt_p50_us", "us"},
	{"campsvc.complete_rtt_p90_us", "us"},
	{"campsvc.config_rtt_us", "us"},
	{"campsvc.empty_leases", "count"},
	{"campsvc.retry_wait_s", "s"},
	{"campsvc.worker_util", "ratio"},
	{"campsvc.duplicates", "count"},
	{"campsvc.expiries", "count"},
	{"campsvc.quarantined", "count"},
	{"campsvc.heartbeats", "count"},

	{"failed_frac", "ratio"},
	{"trace.overhead_s", "s"},
	{"trace.overhead_frac", "ratio"},
	{"trace.spans", "count"},
}

type metricSpec struct{ name, unit string }

// perLayerMetrics is the full per-layer list in BENCHMARK.json order.
func perLayerMetrics() []metricSpec {
	out := append([]metricSpec(nil), fixedPerLayerMetrics...)
	for _, f := range baselineFinders {
		out = append(out, metricSpec{"campaign.cell_s." + f, "s"})
	}
	for _, f := range baselineFinders {
		out = append(out, metricSpec{"campaign.runs_per_s." + f, "1/s"})
	}
	for _, l := range spanLayers {
		out = append(out, metricSpec{"trace.self_s." + l, "s"})
	}
	return out
}

// metricUnits maps every declared metric to its unit.
var metricUnits = func() map[string]string {
	m := map[string]string{}
	for _, s := range append(append([]metricSpec(nil), endToEndMetrics...), perLayerMetrics()...) {
		m[s.name] = s.unit
	}
	return m
}()
