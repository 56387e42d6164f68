package main

import (
	"fmt"
	"time"
)

// layerUnits lists every per-layer metric the traced run reports, with its
// unit. A workload that does not exercise a layer reports 0 for it: the
// layer did no measurable work there.
var layerUnits = map[string]string{
	"accel.run_s":                  "s",
	"accel.batches":                "count",
	"accel.host_us_per_batch":      "us",
	"accel.pe_util":                "ratio",
	"accel.hbm_util":               "ratio",
	"accel.reconfig_cycles":        "cycles",
	"accel.kernel_selections":      "count",
	"noc.byte_hops_per_sample":     "B",
	"mem.hbm_bytes_per_sample":     "B",
	"sched.solves":                 "count",
	"sched.solve_ms":               "ms",
	"core.bringup_s":               "s",
	"costmodel.hits":               "count",
	"costmodel.misses":             "count",
	"costmodel.hit_rate":           "ratio",
	"serve.replan_s":               "s",
	"serve.step_s":                 "s",
	"serve.batches":                "count",
	"serve.mean_batch_samples":     "samples",
	"serve.shed":                   "count",
	"serve.missed":                 "count",
	"plancache.exact_hits":         "count",
	"plancache.nearest_hits":       "count",
	"plancache.misses":             "count",
	"plancache.hit_ratio":          "ratio",
	"plancache.entries":            "count",
	"plancache.shared_hits":        "count",
	"fleet.serve_s":                "s",
	"fleet.cpu_per_wall":           "ratio",
	"fleet.replica_imbalance":      "ratio",
	"fleet.mean_affinity_dist":     "dist",
	"runner.cpu_per_wall":          "ratio",
	"workload.gen_s":               "s",
	"workload.gen_calls":           "count",
	"trace.overhead_pct":           "%",
	"trace.unattributed_pct":       "%",
	"experiments.speedup_vs_mtile": "x",
	"experiments.speedup_vs_gpu":   "x",
}

// layerSet accumulates one traced run's per-layer metrics.
type layerSet map[string]float64

// finish turns the layer set into the outcome's metrics, adding 0 for every
// layer the workload does not exercise.
func (l layerSet) finish(o *outcome) error {
	for name, v := range l {
		if _, ok := layerUnits[name]; !ok {
			return fmt.Errorf("unknown per-layer metric %q", name)
		}
		o.set(name, v, layerUnits[name])
	}
	for name, unit := range layerUnits {
		if _, ok := l[name]; !ok {
			o.set(name, 0, unit)
		}
	}
	return nil
}

// tracedPass is one traced pass over a workload's first stream or trace.
type tracedPass struct {
	tr   *tracer
	root int
	// fill records the pass's per-layer metrics from its spans and the
	// program's counters.
	fill func(l layerSet, stats map[string]*spanStat)
}

// traceRun alternates untraced and traced passes over the same work until
// the measuring time is up, at least one of each. untraced returns a pass's
// wall time. The last traced pass gives the per-layer metrics and the
// attribution table, which must account for its wall time; the tracing
// overhead compares the median traced and untraced wall times.
func traceRun(p params, o *outcome, untraced func() (float64, error), traced func() (*tracedPass, error)) error {
	var uw, tw []float64
	var last *tracedPass
	err := repeat(time.Now(), p.seconds, func() error {
		w, err := untraced()
		if err != nil {
			return err
		}
		uw = append(uw, w)
		t, err := traced()
		if err != nil {
			return err
		}
		_, wall, _ := t.tr.summary(t.root)
		tw = append(tw, wall)
		last = t
		return nil
	})
	if err != nil {
		return err
	}
	stats, wall, unattributed := last.tr.summary(last.root)
	o.checks.check(writeAttribution(p.out, stats, wall, unattributed) == nil, "attribution does not account for the traced wall time")
	untracedWall, tracedWall := median(uw), median(tw)
	fmt.Fprintf(p.out, "# median wall over %d passes each: traced %.4f s, untraced %.4f s\n", len(tw), tracedWall, untracedWall)
	l := layerSet{
		"trace.unattributed_pct": 100 * unattributed / wall,
		"trace.overhead_pct":     100 * (tracedWall - untracedWall) / untracedWall,
		"workload.gen_s":         selfOf(stats, "workload."),
	}
	last.fill(l, stats)
	return l.finish(o)
}

// withLayer wraps a pass's fill to also record one metric measured outside
// the pass.
func withLayer(fill func(layerSet, map[string]*spanStat), name string, v func() float64) func(layerSet, map[string]*spanStat) {
	return func(l layerSet, stats map[string]*spanStat) {
		l[name] = v()
		fill(l, stats)
	}
}
