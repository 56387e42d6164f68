package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/sched"
	"repro/internal/serve"
	"repro/internal/workload"
)

// serve-drift: one moe serve.Server under open-loop Poisson arrivals whose
// rate drifts, re-planning on almost every batch through the plan cache.

const (
	driftModel    = "moe"
	driftRequests = 1000
	// driftStreams is how many independent streams a run pools; the first
	// driftProbe of them are served at each ladder rung.
	driftStreams = 15
	driftProbe   = 3
	driftSLO     = 4_000_000
	// driftGap is the nominal mean interarrival gap in cycles.
	driftGap = 120_000
)

// driftLadder is the fixed ladder of mean gaps max_rate is read from, from
// the highest rate down; the nominal gap is one rung.
var driftLadder = []float64{30_000, 90_000, driftGap, 240_000}

// driftConfig is the serving configuration: drift checked on every batch
// with a hair-trigger threshold and no cooldown, the plan cache on with AOT
// precompute and nearest matching, and every cache miss charging a 1M-cycle
// host solve into virtual time.
func driftConfig(seed int64, wrap func(workload.TraceGen) workload.TraceGen) serve.Config {
	rc := core.DefaultRunConfig()
	rc.Batch = 32
	rc.Warmup = 40
	rc.Seed = seed
	rc.WrapGen = wrap
	return serve.Config{
		Model:             driftModel,
		RC:                rc,
		MaxBatch:          32,
		SLOCycles:         driftSLO,
		Reschedule:        true,
		DriftThreshold:    0.002,
		CheckEvery:        1,
		CooldownBatches:   1,
		PlanCache:         true,
		PlanCacheNearest:  true,
		PlanCacheAOT:      true,
		HostReschedCycles: 1_000_000,
	}
}

// driftSource is the request stream: single-sample requests with arrival
// stamps in virtual time, so the generator can never run late.
func driftSource(seed int64, gap float64) serve.Source {
	return serve.NewSynthetic(driftRequests, gap, seed+1, workload.NewDrift(1, 0.25, 2.5, 0.12))
}

// serveDriftOnce brings a server up and serves one stream through Serve.
func serveDriftOnce(seed int64, gap float64) (servingRun, error) {
	var r servingRun
	t0 := time.Now()
	srv, err := serve.New(driftConfig(seed, nil))
	if err != nil {
		return r, err
	}
	r.setupS = time.Since(t0).Seconds()
	t1 := time.Now()
	rep, err := srv.Serve(driftSource(seed, gap))
	if err != nil {
		return r, err
	}
	r.serveS = time.Since(t1).Seconds()
	r.heapMB = heapMB()
	runtime.KeepAlive(srv)
	r.outcomes, r.batches = rep.Outcomes, rep.Batches
	r.snaps = []serve.Snapshot{srv.Snapshot()}
	return r, nil
}

var serveDrift = servingSpec{
	name:       "serve-drift",
	requests:   driftRequests,
	reqSamples: 1,
	slo:        driftSLO,
	nominal:    driftGap,
	ladder:     driftLadder,
	streams:    driftStreams,
	probe:      driftProbe,
	once:       serveDriftOnce,
}

func runServeDrift(p params) (*outcome, error) { return serveDrift.run(p) }

// driftMarks turns the serving loop's observable events into spans: a batch
// runs on the machine from the moment its dyn values are drawn until the
// next event; a re-plan runs from the plan-cache gate to the next generator
// call.
type driftMarks struct {
	tr   *tracer
	open int // open accel.run or serve.replan span, or -1
	// replan bookkeeping: the cache's miss count at the gate, and each
	// re-plan's duration split by cache outcome.
	srv          *serve.Server
	missesAtGate int64
	replanStart  time.Time
	inReplan     bool
	missS        []float64
	hitS         []float64
	// plans seen live, for cost-model memo counts.
	plans map[*sched.Plan][2]int64
}

func (m *driftMarks) close() {
	if m.open >= 0 {
		m.tr.end(m.open)
		m.open = -1
	}
	if m.inReplan {
		d := time.Since(m.replanStart).Seconds()
		if m.srv.PlanCacheStats().Misses > m.missesAtGate {
			m.missS = append(m.missS, d)
		} else {
			m.hitS = append(m.hitS, d)
		}
		m.inReplan = false
	}
}

func (m *driftMarks) notePlan() {
	pl := m.srv.Setup().Plan
	h, mi := pl.CacheStats()
	m.plans[pl] = [2]int64{h, mi}
}

func (m *driftMarks) gate() {
	m.close()
	m.notePlan()
	m.missesAtGate = m.srv.PlanCacheStats().Misses
	m.replanStart = time.Now()
	m.inReplan = true
	m.open = m.tr.begin(0, "serve.replan")
}

func (m *driftMarks) drawn() {
	m.close()
	m.open = m.tr.begin(0, "accel.run")
}

func traceServeDrift(p params) (*outcome, error) {
	o := &outcome{}
	seed := streamSeed(p.seed, 0)
	// core.Bringup alone, as serve.New calls it.
	t0 := time.Now()
	if _, err := core.Bringup(core.DesignAdyna, driftModel, driftConfig(seed, nil).RC, nil); err != nil {
		return nil, err
	}
	bringup := time.Since(t0).Seconds()
	var ref reference
	untraced := func() (float64, error) {
		err := serveDrift.reference(o, seed, &ref)
		return ref.walls[len(ref.walls)-1], err
	}
	traced := func() (*tracedPass, error) {
		t, err := traceDriftPass(p, o, seed, ref.digest)
		if t != nil {
			t.fill = withLayer(t.fill, "core.bringup_s", func() float64 { return bringup })
		}
		return t, err
	}
	return o, traceRun(p, o, untraced, traced)
}

// traceDriftPass serves the first stream once through the session API with
// every hook installed, and checks its outcome digest against the untraced
// passes'.
func traceDriftPass(p params, o *outcome, seed int64, want string) (*tracedPass, error) {
	tr := newTracer()
	meter := &genMeter{}
	var gen *timedGen
	cfg := driftConfig(seed, func(g workload.TraceGen) workload.TraceGen {
		w, t := wrapGen(g, tr, 0, meter)
		gen = t
		return w
	})
	marks := &driftMarks{tr: tr, open: -1, plans: map[*sched.Plan][2]int64{}}
	cfg.PlanCacheGate = marks.gate
	root := tr.begin(0, "bench.serve-drift")
	var srv *serve.Server
	var err error
	tr.do(0, "serve.new", func() { srv, err = serve.New(cfg) })
	if err != nil {
		return nil, err
	}
	marks.srv = srv
	gen.hooks = &genHooks{enter: marks.close, drawn: marks.drawn}
	src := &timedSource{inner: driftSource(seed, driftGap), tr: tr, meter: meter}
	step := func(fn func() error) error {
		id := tr.begin(0, "serve.step")
		err := fn()
		marks.close()
		tr.end(id)
		return err
	}
	srv.Begin()
	for req, more := src.Next(); more; req, more = src.Next() {
		if err := step(func() error { return srv.StepTo(req.Arrival) }); err != nil {
			return nil, err
		}
		srv.Enqueue(req)
	}
	if err := step(srv.Drain); err != nil {
		return nil, err
	}
	rep := srv.Finish()
	tr.end(root)
	marks.notePlan()
	r := servingRun{outcomes: rep.Outcomes}
	r.check(&o.checks, "serve-drift traced", driftRequests)
	o.attempted += driftRequests
	o.failed += int64(driftRequests - r.served)
	o.checks.check(r.digest == want, "serve-drift: traced digest %s, untraced %s", r.digest, want)
	fmt.Fprintf(p.out, "# serve-drift traced digest %s, untraced %s\n", r.digest, want)

	fill := func(l layerSet, stats map[string]*spanStat) {
		setMachine(l, []serve.Snapshot{srv.Snapshot()}, float64(r.served+r.missed))
		setBatching(l, &r, rep.Batches, 1)
		pc := srv.PlanCacheStats()
		setPlanCache(l, pc)
		runS := selfOf(stats, "accel.run")
		l["accel.run_s"] = runS
		l["accel.host_us_per_batch"] = 1e6 * ratio(runS, float64(rep.Batches))
		// Solves: the bring-up plan, every AOT lattice point, every miss.
		l["sched.solves"] = float64(1 + pc.AOTEntries + int(pc.Misses))
		l["sched.solve_ms"] = 1e3 * ratio(sum(marks.missS), float64(len(marks.missS)))
		var ch, cm int64
		for _, c := range marks.plans {
			ch += c[0]
			cm += c[1]
		}
		l["costmodel.hits"] = float64(ch)
		l["costmodel.misses"] = float64(cm)
		l["costmodel.hit_rate"] = ratio(float64(ch), float64(ch+cm))
		l["serve.replan_s"] = selfOf(stats, "serve.replan")
		l["serve.step_s"] = selfOf(stats, "serve.step")
		l["workload.gen_calls"] = float64(meter.calls.Load())
	}
	return &tracedPass{tr: tr, root: root, fill: fill}, nil
}
