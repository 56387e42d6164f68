package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/accel"
	"repro/internal/baselines"
	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/experiments"
	"repro/internal/metrics"
	"repro/internal/models"
	"repro/internal/runner"
	"repro/internal/sched"
	"repro/internal/workload"
)

// eval-matrix: the paper's evaluation as researchers run it. A closed batch:
// experiments.RunMatrix over the five paper models and the Figure 9 designs,
// on one fixed trace per seed, with one runner worker per CPU.

// evalOptions is the matrix scale: batch 32, 80 measured batches (two
// 40-batch windows, so Adyna re-plans once per model), 16 warmup batches.
func evalOptions(seed int64) experiments.Options {
	rc := core.DefaultRunConfig()
	rc.Batch = 32
	rc.Batches = 80
	rc.Warmup = 16
	rc.Seed = seed
	return experiments.Options{RC: rc, Workers: runtime.NumCPU()}
}

// matrixPoints returns the matrix's (model, design) points in RunMatrix order.
func matrixPoints() (pts [][2]string) {
	for _, m := range models.Names() {
		for _, d := range core.Figure9Designs() {
			pts = append(pts, [2]string{m, string(d)})
		}
	}
	return pts
}

// checkMatrix checks every point is present and simulated the whole trace,
// and returns the matrix's digest.
func checkMatrix(v *verdict, m *experiments.Matrix, rc core.RunConfig) string {
	var d digest
	for _, p := range matrixPoints() {
		r, ok := m.Results[p[0]][core.Design(p[1])]
		v.check(ok, "eval-matrix: point %s/%s missing", p[0], p[1])
		v.check(r.Batches == rc.Batches && r.Cycles > 0,
			"eval-matrix: point %s/%s ran %d batches in %d cycles, want %d batches", p[0], p[1], r.Batches, r.Cycles, rc.Batches)
		digestResult(&d, r)
	}
	return d.sum()
}

func digestResult(d *digest, r metrics.RunResult) {
	d.str(r.Design)
	d.str(r.Model)
	for _, x := range []int64{int64(r.Batches), r.Cycles, r.MACs, r.UsefulMACs, r.SRAMBytes, r.HBMBytes, r.NoCByteHops, r.ReconfigCycles} {
		d.int(x)
	}
	d.float(r.PEUtil)
	d.float(r.HBMUtil)
}

// addAdyna adds the Adyna design's counters over the models to sum; the
// utilisations are averaged over the models.
func addAdyna(sum *metrics.RunResult, m *experiments.Matrix) {
	for _, name := range m.Models {
		r := m.Results[name][core.DesignAdyna]
		sum.Batches += r.Batches
		sum.Cycles += r.Cycles
		sum.MACs += r.MACs
		sum.SRAMBytes += r.SRAMBytes
		sum.HBMBytes += r.HBMBytes
		sum.NoCByteHops += r.NoCByteHops
		sum.ReconfigCycles += r.ReconfigCycles
		sum.PEUtil += r.PEUtil / float64(len(m.Models))
		sum.HBMUtil += r.HBMUtil / float64(len(m.Models))
	}
}

func energyUJ(r metrics.RunResult) float64 {
	return 1e3 * energy.Of(energy.Counters{MACs: r.MACs, SRAMBytes: r.SRAMBytes, HBMBytes: r.HBMBytes, NoCByteHops: r.NoCByteHops}).Total()
}

// evalTraces is how many fixed traces (seeds derived from the run's seed) a
// run simulates the matrix on and pools for the sim metrics.
const evalTraces = 5

func runEvalMatrix(p params) (*outcome, error) {
	start := time.Now()
	o := &outcome{}
	pts := len(matrixPoints())
	var setups, heaps, sims, cpb []float64
	var adyna metrics.RunResult
	digests := make([]string, evalTraces)
	lats := map[string][]float64{} // per model: Adyna per-batch latencies

	// serveTrace simulates the matrix on trace i: set-up, then RunMatrix.
	serveTrace := func(i int) (*experiments.Matrix, error) {
		opt := evalOptions(streamSeed(p.seed, i))
		// Set-up: bring the Adyna design up on every model (build graph
		// and machine, profile the warmup, solve and load the first plan).
		t0 := time.Now()
		for _, name := range models.Names() {
			if _, err := core.Bringup(core.DesignAdyna, name, opt.RC, nil); err != nil {
				return nil, err
			}
		}
		setups = append(setups, time.Since(t0).Seconds())
		t1 := time.Now()
		m, err := experiments.RunMatrix(opt)
		sims = append(sims, float64(pts)/time.Since(t1).Seconds())
		o.attempted += int64(pts)
		if err != nil {
			return nil, err
		}
		heaps = append(heaps, heapMB())
		runtime.KeepAlive(m)
		dg := checkMatrix(&o.checks, m, opt.RC)
		if digests[i] == "" {
			digests[i] = dg
		}
		o.checks.check(dg == digests[i], "eval-matrix: trace %d repetition digest %s differs from %s", i, dg, digests[i])
		return m, nil
	}

	for i := 0; i < evalTraces; i++ {
		rc := evalOptions(streamSeed(p.seed, i)).RC
		// Per-batch latency of the Adyna design: completion time of each
		// batch of one 40-batch window submitted at once (the closed batch's
		// latency view, core.BatchLatencies).
		for _, name := range models.Names() {
			l, err := core.BatchLatencies(core.DesignAdyna, name, rc)
			o.attempted++
			if err != nil {
				return nil, err
			}
			lats[name] = append(lats[name], l...)
		}
		m, err := serveTrace(i)
		if err != nil {
			return nil, err
		}
		addAdyna(&adyna, m)
		for _, name := range m.Models {
			cpb = append(cpb, m.Results[name][core.DesignAdyna].CyclesPerBatch())
		}
	}
	// Simulate the traces again, in turn, until the measuring time is up:
	// more host samples, each of which must reproduce its trace exactly.
	runs := evalTraces
	err := repeat(start, p.seconds, func() error {
		_, err := serveTrace(runs % evalTraces)
		runs++
		return err
	})
	if err != nil {
		return nil, err
	}

	var p50s, p99s []float64
	nlat := 0
	for _, name := range models.Names() {
		s := metrics.Summarize(lats[name])
		p50s = append(p50s, s.P50)
		p99s = append(p99s, s.P99)
		nlat = s.Count
	}
	rc := evalOptions(p.seed).RC
	geo := metrics.Geomean(cpb)
	fmt.Fprintf(p.out, "# eval-matrix: closed batch (no arrival process, so no generator lateness); scale batch=%d batches=%d warmup=%d workers=%d; %d traces x %d points pooled; %d matrix runs; trace digests %v\n",
		rc.Batch, rc.Batches, rc.Warmup, evalOptions(p.seed).Workers, evalTraces, pts, runs, digests)
	fmt.Fprintf(p.out, "# eval-matrix latency: %d Adyna batch latencies per model (%d windows), percentiles per model, geomean over %d models\n",
		nlat, evalTraces, len(p50s))
	o.set("setup_s", median(setups), "s")
	o.set("host_sims_per_s", median(sims), "1/s")
	o.set("host_req_per_s", median(sims)*float64(rc.Batches*rc.Batch), "1/s")
	o.set("heap_mb", median(heaps), "MB")
	o.set("p50_cycles", metrics.Geomean(p50s), "cycles")
	o.set("p99_cycles", metrics.Geomean(p99s), "cycles")
	o.set("slo_goodput", 1, "ratio") // every simulation completed: errors abort the run
	o.set("adyna_cycles", geo, "cycles")
	o.set("max_rate", float64(rc.Batch)*1e6/geo, "1/Mcycle")
	o.set("energy_uj_per_sample", energyUJ(adyna)/float64(adyna.Batches*rc.Batch), "uJ")
	return o, nil
}

// traceEvalMatrix re-runs every matrix point through the public calls
// core.Run makes, with a span around each, and checks every result equals
// RunMatrix's.
func traceEvalMatrix(p params) (*outcome, error) {
	opt := evalOptions(streamSeed(p.seed, 0))
	o := &outcome{}
	var cpus []float64
	var ref *experiments.Matrix
	var refDigest string
	untraced := func() (float64, error) {
		c0, t0 := cpuSeconds(), time.Now()
		m, err := experiments.RunMatrix(opt)
		o.attempted += int64(len(matrixPoints()))
		if err != nil {
			return 0, err
		}
		wall := time.Since(t0).Seconds()
		cpus = append(cpus, (cpuSeconds()-c0)/wall)
		dg := checkMatrix(&o.checks, m, opt.RC)
		if ref == nil {
			ref, refDigest = m, dg
		}
		o.checks.check(dg == refDigest, "eval-matrix: untraced digest %s differs from %s", dg, refDigest)
		return wall, nil
	}
	traced := func() (*tracedPass, error) {
		t, err := traceMatrixPass(p, o, opt, ref)
		if t != nil {
			t.fill = withLayer(t.fill, "runner.cpu_per_wall", func() float64 { return median(cpus) })
		}
		return t, err
	}
	return o, traceRun(p, o, untraced, traced)
}

// traceMatrixPass re-runs every matrix point through the public calls
// core.Run makes, with a span around each, on the same runner pool, and
// checks every result equals the untraced RunMatrix's.
func traceMatrixPass(p params, o *outcome, opt experiments.Options, ref *experiments.Matrix) (*tracedPass, error) {
	rc := opt.RC
	tr := newTracer()
	meter := &genMeter{}
	pts := matrixPoints()
	traced := make([]pointTrace, len(pts))
	root := tr.begin(0, "bench.eval-matrix")
	run := tr.begin(0, "runner.map")
	workers := min(opt.Workers, len(pts))
	tr.fork(run, 1, workers)
	lanes := make(chan int, workers) // one token per worker lane
	for i := 1; i <= workers; i++ {
		lanes <- i
	}
	_, err := runner.Map(workers, len(pts), func(i int) (struct{}, error) {
		lane := <-lanes
		defer func() { lanes <- lane }()
		pt, err := tracePoint(tr, lane, meter, core.Design(pts[i][1]), pts[i][0], rc)
		traced[i] = pt
		return struct{}{}, err
	})
	tr.end(run)
	tr.end(root)
	o.attempted += int64(len(pts))
	if err != nil {
		return nil, err
	}
	m := &experiments.Matrix{Models: models.Names(), Designs: core.Figure9Designs(), Results: map[string]map[core.Design]metrics.RunResult{}}
	for i, pt := range pts {
		if m.Results[pt[0]] == nil {
			m.Results[pt[0]] = map[core.Design]metrics.RunResult{}
		}
		m.Results[pt[0]][core.Design(pt[1])] = traced[i].res
		o.checks.check(traced[i].res == ref.Results[pt[0]][core.Design(pt[1])],
			"eval-matrix: traced %s/%s differs from core.Run", pt[0], pt[1])
	}
	dg := checkMatrix(&o.checks, m, rc)
	fmt.Fprintf(p.out, "# eval-matrix traced digest %s, untraced %s\n", dg, checkMatrix(&verdict{}, ref, rc))

	fill := func(l layerSet, stats map[string]*spanStat) {
		var batches, kernels, ch, cm int64
		for _, pt := range traced {
			batches += int64(pt.stats.Batches)
			ch += pt.costHits
			cm += pt.costMisses
			if pt.res.Design == string(core.DesignAdyna) {
				kernels += pt.stats.KernelSelections
			}
		}
		var adyna metrics.RunResult
		addAdyna(&adyna, m)
		samples := float64(adyna.Batches * rc.Batch)
		runS := selfOf(stats, "accel.run")
		solves := countOf(stats, "sched.solve")
		l["accel.run_s"] = runS
		l["accel.batches"] = float64(batches)
		l["accel.host_us_per_batch"] = 1e6 * ratio(runS, float64(batches))
		l["accel.pe_util"] = adyna.PEUtil
		l["accel.hbm_util"] = adyna.HBMUtil
		l["accel.reconfig_cycles"] = float64(adyna.ReconfigCycles)
		l["accel.kernel_selections"] = float64(kernels)
		l["noc.byte_hops_per_sample"] = float64(adyna.NoCByteHops) / samples
		l["mem.hbm_bytes_per_sample"] = float64(adyna.HBMBytes) / samples
		// Every bring-up solves its first plan inside core.Bringup.
		l["sched.solves"] = float64(solves + countOf(stats, "core.bringup"))
		l["sched.solve_ms"] = 1e3 * ratio(selfOf(stats, "sched.solve"), float64(solves))
		l["core.bringup_s"] = selfOf(stats, "core.bringup")
		l["costmodel.hits"] = float64(ch)
		l["costmodel.misses"] = float64(cm)
		l["costmodel.hit_rate"] = ratio(float64(ch), float64(ch+cm))
		l["workload.gen_calls"] = float64(meter.calls.Load())
		h := experiments.Figure9Headlines(m)
		l["experiments.speedup_vs_mtile"] = h.AdynaVsMTile
		l["experiments.speedup_vs_gpu"] = h.AdynaVsGPU
		fmt.Fprintf(p.out, "# fidelity (unvalidated model; the paper's ratios are the only reference): Adyna vs M-tile %.3fx (paper 1.70x, error %+.1f%%), vs GPU %.3fx (paper 11.7x, error %+.1f%%)\n",
			h.AdynaVsMTile, 100*(h.AdynaVsMTile/1.70-1), h.AdynaVsGPU, 100*(h.AdynaVsGPU/11.7-1))
	}
	return &tracedPass{tr: tr, root: root, fill: fill}, nil
}

// pointTrace is one traced matrix point.
type pointTrace struct {
	res                  metrics.RunResult
	stats                accel.Stats
	costHits, costMisses int64
}

// tracePoint runs one (model, design) point the way core.Run does, through
// the same public calls, with a span around each.
func tracePoint(tr *tracer, lane int, meter *genMeter, d core.Design, model string, rc core.RunConfig) (pointTrace, error) {
	var pt pointTrace
	id := tr.begin(lane, "core.run")
	defer tr.end(id)
	rc.WrapGen = func(g workload.TraceGen) workload.TraceGen {
		w, _ := wrapGen(g, tr, lane, meter)
		return w
	}
	if d == core.DesignGPU || d == core.DesignMTenant {
		w, err := models.ByName(model, rc.Batch)
		if err != nil {
			return pt, err
		}
		w.Gen = rc.WrapGen(w.Gen)
		src := workload.NewSource(rc.Seed)
		w.GenTrace(src, rc.Warmup, rc.Batch)
		meas := w.GenTrace(src, rc.Batches, rc.Batch)
		tr.do(lane, "baselines.run", func() {
			if d == core.DesignGPU {
				pt.res, err = baselines.GPU(rc.HW, w, meas)
			} else {
				pt.res, err = baselines.MTenant(rc.HW, w, meas)
			}
		})
		return pt, err
	}

	var setup *core.Setup
	var err error
	tr.do(lane, "core.bringup", func() { setup, err = core.Bringup(d, model, rc, nil) })
	if err != nil {
		return pt, err
	}
	w, m, pol := setup.W, setup.M, setup.Policy
	plan := setup.Plan
	meas := w.GenTrace(setup.Src, rc.Batches, rc.Batch)
	period := pol.ResamplePeriod
	if period <= 0 {
		period = core.ExecWindow
	}
	countPlan := func() {
		h, mi := plan.CacheStats()
		pt.costHits += h
		pt.costMisses += mi
	}
	for start := 0; start < len(meas); start += period {
		end := min(start+period, len(meas))
		if start > 0 && pol.ResamplePeriod > 0 {
			var next *sched.Plan
			tr.do(lane, "sched.solve", func() { next, err = sched.Schedule(rc.HW, w.Graph, pol, m.Profiler()) })
			if err != nil {
				return pt, err
			}
			tr.do(lane, "accel.load", func() { err = m.LoadPlan(next) })
			if err != nil {
				return pt, err
			}
			countPlan()
			plan = next
			tr.do(lane, "profiler.reset", m.Profiler().Reset)
		}
		tr.do(lane, "accel.run", func() { err = m.Run(meas[start:end]) })
		if err != nil {
			return pt, err
		}
	}
	countPlan()
	st := m.Stats()
	pt.stats = st
	pt.res = metrics.RunResult{
		Design:         string(d),
		Model:          w.Name,
		Batches:        st.Batches,
		Cycles:         st.Cycles,
		MACs:           st.MACs,
		UsefulMACs:     st.UsefulMACs,
		SRAMBytes:      st.SRAMBytes,
		HBMBytes:       st.HBMBytes,
		NoCByteHops:    st.NoCByteHops,
		PEUtil:         m.PEUtilization(),
		HBMUtil:        m.HBMUtilization(),
		ReconfigCycles: st.ReconfigCycles,
	}
	return pt, nil
}
