package main

import (
	"fmt"
	"time"

	"repro/internal/energy"
	"repro/internal/metrics"
	"repro/internal/plancache"
	"repro/internal/serve"
)

// servingSpec describes one of the two serving workloads. Arrivals are open
// loop in virtual time: every request carries its arrival stamp and latency
// runs from that stamp, so the generator can never run late.
type servingSpec struct {
	name       string
	requests   int     // requests per stream
	reqSamples int     // samples per request
	slo        float64 // per-request deadline in cycles
	nominal    float64 // nominal mean interarrival gap in cycles
	// ladder is the fixed ladder of mean gaps max_rate is read from, highest
	// rate first; the nominal gap is one rung.
	ladder []float64
	// streams is how many independent request streams a run serves at the
	// nominal rate and pools for the sim metrics; the first probe of them
	// are served at each ladder rung.
	streams, probe int
	// once brings a server (or fleet) up and serves one stream.
	once func(seed int64, gap float64) (servingRun, error)
}

// streamSeed derives the seed of a run's i-th stream.
func streamSeed(seed int64, i int) int64 { return seed*100 + int64(i) }

// servingRun is one measured serve: host times plus its outcomes and the
// machine counters.
type servingRun struct {
	setupS, serveS float64
	heapMB         float64
	outcomes       []serve.RequestResult
	batches        int
	snaps          []serve.Snapshot

	// Filled by check.
	digest               string
	served, missed, shed int
}

// check checks request conservation — every sent ID recorded exactly once,
// served + missed + shed = sent — and records the outcome digest and counts.
func (r *servingRun) check(v *verdict, label string, sent int) {
	r.digest, r.served, r.missed, r.shed = checkOutcomes(v, label, r.outcomes, sent)
}

// latencies returns the completion latency of every executed request.
func (r *servingRun) latencies() []float64 {
	var out []float64
	for _, o := range r.outcomes {
		if o.Outcome != serve.Shed {
			out = append(out, float64(o.Latency()))
		}
	}
	return out
}

// checkOutcomes checks request conservation and returns the outcome digest
// (over requests in ID order) and the per-outcome counts.
func checkOutcomes(v *verdict, label string, outs []serve.RequestResult, sent int) (dg string, served, missed, shed int) {
	byID := make([]*serve.RequestResult, sent)
	for i := range outs {
		r := &outs[i]
		if r.ID < 0 || r.ID >= sent {
			v.check(false, "%s: request ID %d outside [0,%d)", label, r.ID, sent)
			continue
		}
		v.check(byID[r.ID] == nil, "%s: request %d recorded twice", label, r.ID)
		byID[r.ID] = r
		switch r.Outcome {
		case serve.Served:
			served++
		case serve.DeadlineMissed:
			missed++
		case serve.Shed:
			shed++
		}
	}
	v.check(served+missed+shed == sent, "%s: served %d + missed %d + shed %d != sent %d", label, served, missed, shed, sent)
	var d digest
	for id, r := range byID {
		v.check(r != nil, "%s: request %d never recorded", label, id)
		if r != nil {
			d.int(int64(r.ID))
			d.int(r.Arrival)
			d.int(r.Done)
			d.int(int64(r.Outcome))
		}
	}
	return d.sum(), served, missed, shed
}

// machineTotals sums the machine counters of serve snapshots.
type machineTotals struct {
	energy.Counters
	cycles, batches int64
}

func sumSnaps(snaps []serve.Snapshot) machineTotals {
	var t machineTotals
	for _, s := range snaps {
		t.MACs += s.Counters["machine_macs"]
		t.SRAMBytes += s.Counters["machine_sram_bytes"]
		t.HBMBytes += s.Counters["machine_hbm_bytes"]
		t.NoCByteHops += s.Counters["machine_noc_byte_hops"]
		t.cycles += s.Counters["machine_cycles"]
		t.batches += s.Counters["machine_batches"]
	}
	return t
}

// serveStream serves stream i at a gap, checks it, and prints its line.
func (s servingSpec) serveStream(p params, v *verdict, i int, gap float64) (servingRun, error) {
	seed := streamSeed(p.seed, i)
	r, err := s.once(seed, gap)
	if err != nil {
		return r, err
	}
	r.check(v, fmt.Sprintf("%s stream %d gap %.0f", s.name, i, gap), s.requests)
	lat := metrics.Summarize(r.latencies())
	fmt.Fprintf(p.out, "# %s stream %d (seed %d) at %.3f/Mcycle: p50 %.0f p99 %.0f over %d samples, served %d missed %d shed %d, digest %s; set-up %.3f s, serve %.3f s\n",
		s.name, i, seed, 1e6/gap, lat.P50, lat.P99, lat.Count, r.served, r.missed, r.shed, r.digest, r.setupS, r.serveS)
	return r, nil
}

// rung serves the first probe streams at a gap and reports whether their
// pooled p99 meets the SLO with nothing shed.
func (s servingSpec) rung(p params, v *verdict, gap float64) ([]servingRun, bool, error) {
	var runs []servingRun
	var lats []float64
	shed := 0
	for i := 0; i < s.probe; i++ {
		r, err := s.serveStream(p, v, i, gap)
		if err != nil {
			return nil, false, err
		}
		runs = append(runs, r)
		lats = append(lats, r.latencies()...)
		shed += r.shed
	}
	lat := metrics.Summarize(lats)
	ok := lat.P99 <= s.slo && shed == 0
	fmt.Fprintf(p.out, "# %s ladder rung %.3f/Mcycle (gap %.0f, %d streams): p99 %.0f over %d samples, shed %d, meets SLO %v\n",
		s.name, 1e6/gap, gap, s.probe, lat.P99, lat.Count, shed, ok)
	return runs, ok, nil
}

func (s servingSpec) run(p params) (*outcome, error) {
	start := time.Now()
	o := &outcome{}

	// max_rate: walk the ladder from the highest rate down, serving the
	// first probe streams at each rung; the first rung whose pooled p99
	// meets the SLO with nothing shed is the highest. Serves at rungs other
	// than the nominal one are probes: they do not count as attempted.
	var maxRate float64
	var runs []servingRun // the streams served at the nominal rate
	for _, gap := range s.ladder {
		rs, ok, err := s.rung(p, &o.checks, gap)
		if err != nil {
			return nil, err
		}
		if gap == s.nominal {
			runs = rs
		}
		if ok {
			maxRate = 1e6 / gap
			break
		}
	}
	// The sim metrics pool every stream served at the nominal rate.
	for i := len(runs); i < s.streams; i++ {
		r, err := s.serveStream(p, &o.checks, i, s.nominal)
		if err != nil {
			return nil, err
		}
		runs = append(runs, r)
	}
	pooled := append([]servingRun(nil), runs...)

	// Serve the streams again, in turn, until the measuring time is up:
	// more host samples, each of which must reproduce its stream exactly.
	err := repeat(start, p.seconds, func() error {
		i := len(runs) % s.streams
		r, err := s.once(streamSeed(p.seed, i), s.nominal)
		if err != nil {
			return err
		}
		r.check(&o.checks, fmt.Sprintf("%s stream %d repetition", s.name, i), s.requests)
		o.checks.check(r.digest == pooled[i].digest, "%s: stream %d repetition digest %s differs from %s", s.name, i, r.digest, pooled[i].digest)
		runs = append(runs, r)
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Host throughput is the run's requests (and machine batch runs) over
	// its serving seconds; set-up time and heap are medians over the serves.
	var setups, heaps, lats []float64
	var serveS, batches float64
	for _, r := range runs {
		setups = append(setups, r.setupS)
		heaps = append(heaps, r.heapMB)
		serveS += r.serveS
		batches += float64(r.batches)
		o.attempted += int64(s.requests)
		o.failed += int64(s.requests - r.served)
	}
	var served, executed int
	var snaps []serve.Snapshot
	for _, r := range pooled {
		lats = append(lats, r.latencies()...)
		served += r.served
		executed += r.served + r.missed
		snaps = append(snaps, r.snaps...)
	}
	lat := metrics.Summarize(lats)
	mt := sumSnaps(snaps)
	fmt.Fprintf(p.out, "# %s: open loop in virtual time (arrival stamps fixed up front, so the generator is never late); nominal %.3f requests/Mcycle; %d streams x %d requests pooled (%d latency samples); %d measured serves\n",
		s.name, 1e6/s.nominal, len(pooled), s.requests, lat.Count, len(runs))
	o.set("setup_s", median(setups), "s")
	o.set("host_req_per_s", float64(len(runs)*s.requests)/serveS, "1/s")
	o.set("host_sims_per_s", batches/serveS, "1/s")
	o.set("heap_mb", median(heaps), "MB")
	o.set("p50_cycles", lat.P50, "cycles")
	o.set("p99_cycles", lat.P99, "cycles")
	o.set("slo_goodput", float64(served)/float64(len(pooled)*s.requests), "ratio")
	o.set("max_rate", maxRate, "1/Mcycle")
	o.set("energy_uj_per_sample", 1e3*energy.Of(mt.Counters).Total()/float64(executed*s.reqSamples), "uJ")
	o.set("adyna_cycles", float64(mt.cycles)/float64(mt.batches), "cycles")
	return o, nil
}

// reference holds a traced run's untraced passes over the first stream.
type reference struct {
	walls  []float64 // set-up plus serving, per pass
	digest string
}

// reference serves the first stream untraced once more: the traced run
// compares its wall time and outcome digest against these passes.
func (s servingSpec) reference(o *outcome, seed int64, ref *reference) error {
	r, err := s.once(seed, s.nominal)
	if err != nil {
		return err
	}
	r.check(&o.checks, s.name+" untraced", s.requests)
	o.attempted += int64(s.requests)
	o.failed += int64(s.requests - r.served)
	if ref.digest == "" {
		ref.digest = r.digest
	}
	o.checks.check(r.digest == ref.digest, "%s: untraced digest %s differs from %s", s.name, r.digest, ref.digest)
	ref.walls = append(ref.walls, r.setupS+r.serveS)
	return nil
}

// setPlanCache records the plan cache's lifetime counters.
func setPlanCache(l layerSet, pc plancache.Stats) {
	l["plancache.exact_hits"] = float64(pc.ExactHits)
	l["plancache.nearest_hits"] = float64(pc.NearestHits)
	l["plancache.misses"] = float64(pc.Misses)
	l["plancache.hit_ratio"] = ratio(float64(pc.Hits()), float64(pc.Hits()+pc.Misses))
	l["plancache.entries"] = float64(pc.Entries)
	l["plancache.shared_hits"] = float64(pc.SharedHits)
}

// setMachine records the machine-layer counters of a traced serve.
func setMachine(l layerSet, snaps []serve.Snapshot, executedSamples float64) {
	mt := sumSnaps(snaps)
	var pe, bw, reconf, kern float64
	for _, s := range snaps {
		pe += s.Gauges["pe_utilization"] / float64(len(snaps))
		bw += s.Gauges["hbm_utilization"] / float64(len(snaps))
		reconf += float64(s.Counters["machine_reconfig_cycles"])
		kern += float64(s.Counters["machine_kernel_selections"])
	}
	l["accel.batches"] = float64(mt.batches)
	l["accel.pe_util"] = pe
	l["accel.hbm_util"] = bw
	l["accel.reconfig_cycles"] = reconf
	l["accel.kernel_selections"] = kern
	l["noc.byte_hops_per_sample"] = float64(mt.NoCByteHops) / executedSamples
	l["mem.hbm_bytes_per_sample"] = float64(mt.HBMBytes) / executedSamples
}

// setBatching records the serving layer's batching counters.
func setBatching(l layerSet, r *servingRun, batches int, reqSamples int) {
	executed := float64((r.served + r.missed) * reqSamples)
	l["serve.batches"] = float64(batches)
	l["serve.mean_batch_samples"] = ratio(executed, float64(batches))
	l["serve.shed"] = float64(r.shed)
	l["serve.missed"] = float64(r.missed)
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}
