package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/serve"
	"repro/internal/workload"
)

// fleet-gcn: four replicas of the density-aware gcn model behind the
// affinity router, fed a drifting three-class mix, sharing one plan cache.

const (
	fleetModel    = "gcn"
	fleetReplicas = 4
	fleetRequests = 200
	// fleetStreams is how many independent streams a run pools; the first
	// fleetProbe of them are served at each ladder rung.
	fleetStreams = 50
	fleetProbe   = 5
	fleetSamples = 32
	fleetSLO     = 2_000_000
	// fleetGap is the nominal mean interarrival gap in cycles.
	fleetGap = 75_000
)

// fleetLadder is the fixed ladder of mean gaps max_rate is read from, from
// the highest rate down.
var fleetLadder = []float64{18_750, 37_500, fleetGap, 150_000}

// fleetConfig is the fleet: every replica re-plans through the shared cache
// (nearest matching, AOT precompute) and each miss charges a 1M-cycle host
// solve into virtual time.
func fleetConfig(seed int64, workers int, wrap func(workload.TraceGen) workload.TraceGen) fleet.Config {
	rc := core.DefaultRunConfig()
	rc.Batch = fleetSamples
	rc.Warmup = 8
	rc.Seed = seed
	rc.WrapGen = wrap
	base := serve.Config{
		Model:             fleetModel,
		RC:                rc,
		MaxBatch:          fleetSamples,
		SLOCycles:         fleetSLO,
		Reschedule:        true,
		DriftThreshold:    0.03,
		CheckEvery:        4,
		CooldownBatches:   8,
		PlanCache:         true,
		PlanCacheNearest:  true,
		PlanCacheAOT:      true,
		HostReschedCycles: 100_000,
	}
	return fleet.Config{
		Base:     base,
		Replicas: fleet.HomogeneousSpecs(fleetReplicas, rc.HW),
		Policy:   fleet.PolicyAffinity,
		Workers:  workers,
	}
}

// fleetSource is the request stream: pre-routed 32-sample requests from a
// drifting three-class mix, density-stamped, with arrival stamps in virtual
// time.
func fleetSource(seed int64, gap float64) (*fleet.MixSource, error) {
	return fleet.NewMixSource(fleet.MixConfig{
		Model:         fleetModel,
		Classes:       3,
		Requests:      fleetRequests,
		Samples:       fleetSamples,
		MeanGapCycles: gap,
		Seed:          seed,
		MixWalkSD:     0.2,
	})
}

// fleetOutcomes gathers every replica's outcome log.
func fleetOutcomes(rep *fleet.Report) []serve.RequestResult {
	var outs []serve.RequestResult
	for _, r := range rep.Replicas {
		outs = append(outs, r.Report.Outcomes...)
	}
	return outs
}

// fleetSnaps returns the replicas' serve snapshots.
func fleetSnaps(f *fleet.Fleet) []serve.Snapshot {
	var out []serve.Snapshot
	snap := f.Snapshot()
	for _, name := range f.Replicas() {
		out = append(out, snap.Replicas[name])
	}
	return out
}

// serveFleet brings a fleet up with the given workers and generator
// wrapper and serves one stream.
func serveFleet(seed int64, gap float64, workers int, wrap func(workload.TraceGen) workload.TraceGen) (servingRun, error) {
	var r servingRun
	src, err := fleetSource(seed, gap)
	if err != nil {
		return r, err
	}
	t0 := time.Now()
	f, err := fleet.New(fleetConfig(seed, workers, wrap))
	if err != nil {
		return r, err
	}
	r.setupS = time.Since(t0).Seconds()
	t1 := time.Now()
	rep, err := f.Serve(src)
	if err != nil {
		return r, err
	}
	r.serveS = time.Since(t1).Seconds()
	r.heapMB = heapMB()
	runtime.KeepAlive(f)
	r.outcomes, r.batches, r.snaps = fleetOutcomes(rep), rep.Batches, fleetSnaps(f)
	return r, nil
}

// serveFleetOnce serves one stream with one worker per CPU.
func serveFleetOnce(seed int64, gap float64) (servingRun, error) {
	return serveFleet(seed, gap, runtime.NumCPU(), nil)
}

var fleetGCN = servingSpec{
	name:       "fleet-gcn",
	requests:   fleetRequests,
	reqSamples: fleetSamples,
	slo:        fleetSLO,
	nominal:    fleetGap,
	ladder:     fleetLadder,
	streams:    fleetStreams,
	probe:      fleetProbe,
	once:       serveFleetOnce,
}

func runFleetGCN(p params) (*outcome, error) { return fleetGCN.run(p) }

func traceFleetGCN(p params) (*outcome, error) {
	o := &outcome{}
	seed := streamSeed(p.seed, 0)
	// core.Bringup alone, as each replica's serve.New calls it.
	t0 := time.Now()
	if _, err := core.Bringup(core.DesignAdyna, fleetModel, fleetConfig(seed, 0, nil).Base.RC, nil); err != nil {
		return nil, err
	}
	bringup := time.Since(t0).Seconds()
	var ref reference
	untraced := func() (float64, error) {
		err := fleetGCN.reference(o, seed, &ref)
		return ref.walls[len(ref.walls)-1], err
	}
	traced := func() (*tracedPass, error) {
		t, err := traceFleetPass(p, o, seed, ref.digest)
		if t != nil {
			t.fill = withLayer(t.fill, "core.bringup_s", func() float64 { return bringup })
		}
		return t, err
	}
	return o, traceRun(p, o, untraced, traced)
}

// traceFleetPass serves the first stream once with the generator and the
// request source wrapped, and checks its outcome digest against the
// untraced passes'.
func traceFleetPass(p params, o *outcome, seed int64, want string) (*tracedPass, error) {
	tr := newTracer()
	meter := &genMeter{}
	cfg := fleetConfig(seed, runtime.NumCPU(), func(g workload.TraceGen) workload.TraceGen {
		w, _ := wrapGen(g, tr, 0, meter)
		return w
	})
	mix, err := fleetSource(seed, fleetGap)
	if err != nil {
		return nil, err
	}
	src := &timedSource{inner: mix, tr: tr, meter: meter}
	root := tr.begin(0, "bench.fleet-gcn")
	var f *fleet.Fleet
	tr.do(0, "fleet.new", func() { f, err = fleet.New(cfg) })
	if err != nil {
		return nil, err
	}
	var rep *fleet.Report
	c0, t1 := cpuSeconds(), time.Now()
	tr.do(0, "fleet.serve", func() { rep, err = f.Serve(src) })
	serveWall := time.Since(t1).Seconds()
	cpu := cpuSeconds() - c0
	tr.end(root)
	if err != nil {
		return nil, err
	}
	r := servingRun{outcomes: fleetOutcomes(rep)}
	r.check(&o.checks, "fleet-gcn traced", fleetRequests)
	o.attempted += fleetRequests
	o.failed += int64(fleetRequests - r.served)
	o.checks.check(r.digest == want, "fleet-gcn: traced digest %s, untraced %s", r.digest, want)
	fmt.Fprintf(p.out, "# fleet-gcn traced digest %s, untraced %s\n", r.digest, want)

	fill := func(l layerSet, stats map[string]*spanStat) {
		snaps := fleetSnaps(f)
		setMachine(l, snaps, float64((r.served+r.missed)*fleetSamples))
		setBatching(l, &r, rep.Batches, fleetSamples)
		pc := f.PlanCache().Stats()
		setPlanCache(l, pc)
		// Solves: each replica's bring-up plan, the AOT lattice, every miss.
		l["sched.solves"] = float64(fleetReplicas + pc.AOTEntries + int(pc.Misses))
		// Live plans only: a replaced plan's memo counts leave with it.
		var ch, cm float64
		for _, s := range snaps {
			ch += float64(s.Counters["costmodel_cache_hits"])
			cm += float64(s.Counters["costmodel_cache_misses"])
		}
		l["costmodel.hits"] = ch
		l["costmodel.misses"] = cm
		l["costmodel.hit_rate"] = ratio(ch, ch+cm)
		var maxRouted, routed int
		for _, rr := range rep.Replicas {
			routed += rr.Routed
			maxRouted = max(maxRouted, rr.Routed)
		}
		l["fleet.serve_s"] = selfOf(stats, "fleet.serve")
		l["fleet.cpu_per_wall"] = cpu / serveWall
		l["fleet.replica_imbalance"] = float64(maxRouted) / (float64(routed) / float64(len(rep.Replicas)))
		l["fleet.mean_affinity_dist"] = rep.MeanAffinityDist
		l["workload.gen_calls"] = float64(meter.calls.Load())
	}
	return &tracedPass{tr: tr, root: root, fill: fill}, nil
}
