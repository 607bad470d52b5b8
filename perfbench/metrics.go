package main

import "fmt"

// metricDef names one reported metric and its unit. BENCHMARK.json lists
// the same names and units (bench_test.go checks that it does).
type metricDef struct{ name, unit string }

// endToEnd is what an untraced run reports, on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"cpu_ms_per_op", "ms"},
	{"alloc_mb_per_op", "MB"},
	{"live_heap_mb", "MB"},
}

// perLayer is what a traced run reports. A metric of a layer a workload
// does not reach (service.* on the batch sweeps, the callback spans on
// serve-mix, which cannot hand the service wrapped specs) reads 0.
var perLayer = []metricDef{
	{"engine.run_ms.p50", "ms"},
	{"engine.self_ms.mean", "ms"},
	{"engine.ns_per_simop", "ns"},
	{"engine.simops_per_op", "count"},
	{"engine.scenarios_per_op", "count"},
	{"engine.direct_share", "ratio"},
	{"engine.dedup_ratio", "ratio"},
	{"engine.snapshot_kb_per_op", "KB"},
	{"engine.journal_ops_per_op", "count"},
	{"workload.makes_per_op", "count"},
	{"workload.make_us.mean", "us"},
	{"pmm.setup_ms.mean", "ms"},
	{"pmm.pre_ms.mean", "ms"},
	{"pmm.post_ms.mean", "ms"},
	{"core.detector_share", "ratio"},
	{"core.detector_rounds", "count"},
	{"vclock.epoch_hit_ratio", "ratio"},
	{"vclock.interned_per_op", "count"},
	{"suite.self_ms.mean", "ms"},
	{"report.json_ms.mean", "ms"},
	{"report.json_kb", "KB"},
	{"service.post_ms.p50", "ms"},
	{"service.queue_ms.p50", "ms"},
	{"service.run_ms.p50", "ms"},
	{"service.fetch_ms.p50", "ms"},
	{"service.hit_ms.p50", "ms"},
	{"service.cold_ms.p50", "ms"},
	{"service.hit_ratio", "ratio"},
	{"service.refused", "count"},
	{"service.budget_busy", "ratio"},
	{"service.jobs_retained", "count"},
	{"runtime.gc_per_op", "count"},
	{"runtime.gc_cpu_share", "ratio"},
	{"loadgen.late_ms.p90", "ms"},
	{"e2e.op_ms.p50", "ms"},
	{"e2e.op_ms.p90", "ms"},
	{"host.probe_ms", "ms"},
	{"trace.ops", "count"},
	{"trace.spans", "count"},
	{"trace.overhead_share", "ratio"},
}

// complete checks that o reports exactly the defs, filling the ones this
// workload does not reach with 0.
func (o *outcome) complete(defs []metricDef) error {
	known := make(map[string]bool, len(defs))
	for _, d := range defs {
		known[d.name] = true
		if m, ok := o.metrics[d.name]; !ok {
			o.set(d.name, 0, d.unit)
		} else if m.Unit != d.unit {
			return fmt.Errorf("metric %s in %s, want %s", d.name, m.Unit, d.unit)
		}
	}
	for name := range o.metrics {
		if !known[name] {
			return fmt.Errorf("metric %s is not declared", name)
		}
	}
	return nil
}
