package main

import (
	"sync/atomic"

	"repro/internal/graph"
	"repro/internal/serve"
	"repro/internal/workload"
)

// genMeter counts the workload layer's calls across every wrapper of a run.
type genMeter struct {
	calls atomic.Int64
}

// genHooks lets the serve-drift trace mark batch boundaries: enter runs as a
// generator call starts, drawn once a batch's dynamic values are all drawn
// (its routing and, for density-aware models, its density).
type genHooks struct {
	enter, drawn func()
}

// timedGen wraps a model's trace generator, timing each call as a
// workload.gen span on its lane.
type timedGen struct {
	inner workload.TraceGen
	tr    *tracer
	lane  int
	meter *genMeter
	hooks *genHooks // nil outside the serve-drift serving phase
	// density is set when the wrapped generator also draws densities: the
	// batch is then complete only after NextDensity.
	density bool
}

// Next implements workload.TraceGen.
func (g *timedGen) Next(src *workload.Source, batchUnits int) graph.BatchRouting {
	g.start()
	id := g.tr.begin(g.lane, "workload.gen")
	rt := g.inner.Next(src, batchUnits)
	g.tr.end(id)
	if !g.density && g.hooks != nil {
		g.hooks.drawn()
	}
	return rt
}

func (g *timedGen) start() {
	g.meter.calls.Add(1)
	if g.hooks != nil {
		g.hooks.enter()
	}
}

// timedDensityGen is timedGen over a workload.DensityGen. It exists so the
// wrapper still satisfies DensityGen: callers type-assert for it, and a
// plain TraceGen wrapper would silently turn a density-aware model dense.
type timedDensityGen struct {
	*timedGen
	dg workload.DensityGen
}

// NextDensity implements workload.DensityGen.
func (g *timedDensityGen) NextDensity(src *workload.Source) float64 {
	g.start()
	id := g.tr.begin(g.lane, "workload.gen")
	d := g.dg.NextDensity(src)
	g.tr.end(id)
	if g.hooks != nil {
		g.hooks.drawn()
	}
	return d
}

// wrapGen returns gen wrapped for timing, forwarding workload.DensityGen
// when gen implements it. The *timedGen is returned for hook installation.
func wrapGen(gen workload.TraceGen, tr *tracer, lane int, meter *genMeter) (workload.TraceGen, *timedGen) {
	t := &timedGen{inner: gen, tr: tr, lane: lane, meter: meter}
	if dg, ok := gen.(workload.DensityGen); ok {
		t.density = true
		return &timedDensityGen{timedGen: t, dg: dg}, t
	}
	return t, t
}

// timedSource wraps a request stream, timing each Next as a workload.source
// span on lane 0.
type timedSource struct {
	inner serve.Source
	tr    *tracer
	meter *genMeter
}

// Next implements serve.Source.
func (s *timedSource) Next() (serve.Request, bool) {
	s.meter.calls.Add(1)
	id := s.tr.begin(0, "workload.source")
	req, ok := s.inner.Next()
	s.tr.end(id)
	return req, ok
}
