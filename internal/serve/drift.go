package serve

import (
	"math"

	"repro/internal/graph"
	"repro/internal/profiler"
)

// DriftDetector watches the on-chip profiler for distribution drift relative
// to the profile the current plan was scheduled from. It snapshots two
// per-branch statistics at plan time — the unit share (the volume statistic
// frequency-weighted allocation is built from) and the batch-active fraction
// (what tile sharing and branch grouping key on) — and reports how far the
// live profile has moved from that snapshot. The single-tenant re-scheduler
// and the multi-tenant controller trigger on the same statistic.
type DriftDetector struct {
	prof *profiler.Profiler
	sws  []graph.OpID
	nb   []int
	// baseShare / baseActive are the per-switch per-branch snapshots taken by
	// the last Rebase, indexed like sws.
	baseShare  [][]float64
	baseActive [][]float64
	// hasDensity gates the density drift part: graphs with density-aware
	// operators additionally snapshot the windowed density mean, so a
	// density-only shift (routing unchanged, batches sparser or denser)
	// triggers a re-plan like any routing drift.
	hasDensity  bool
	baseDensity float64
}

// NewDriftDetector snapshots the profiler's current statistics as the drift
// reference (call right after the plan built from that profile is installed).
func NewDriftDetector(g *graph.Graph, prof *profiler.Profiler) *DriftDetector {
	d := &DriftDetector{prof: prof, sws: g.Switches(), hasDensity: len(g.DensityOps()) > 0}
	d.nb = make([]int, len(d.sws))
	d.baseShare = make([][]float64, len(d.sws))
	d.baseActive = make([][]float64, len(d.sws))
	for i, sw := range d.sws {
		d.nb[i] = g.Op(sw).NumBranches
		d.baseShare[i] = make([]float64, d.nb[i])
		d.baseActive[i] = make([]float64, d.nb[i])
	}
	d.Rebase()
	return d
}

// Rebase snapshots the current profile as the new reference — called right
// after a plan computed from that profile is installed.
func (d *DriftDetector) Rebase() {
	for i, sw := range d.sws {
		for k := 0; k < d.nb[i]; k++ {
			d.baseShare[i][k] = d.prof.BranchUnitShare(sw, k)
			d.baseActive[i][k] = d.prof.BranchActiveFraction(sw, k)
		}
	}
	if d.hasDensity {
		d.baseDensity = d.prof.OpDensityMean()
	}
}

// Divergence returns the drift of the live profile since the last Rebase:
// the largest of the statistics Evaluate returns. 0 for static graphs.
func (d *DriftDetector) Divergence() float64 {
	_, _, _, div := d.Evaluate()
	return div
}

// Evaluate computes one drift check: the mean absolute unit-share difference
// (volume), the mean absolute active-fraction difference (presence), the
// absolute density-mean difference (sparsity; 0 for graphs without
// density-aware operators), and their max, div. The telemetry drift-eval
// events record every part, so a trace shows which statistic triggered (or
// failed to trigger) a re-plan.
func (d *DriftDetector) Evaluate() (share, active, density, div float64) {
	n := 0
	for i, sw := range d.sws {
		for k := 0; k < d.nb[i]; k++ {
			share += math.Abs(d.prof.BranchUnitShare(sw, k) - d.baseShare[i][k])
			active += math.Abs(d.prof.BranchActiveFraction(sw, k) - d.baseActive[i][k])
			n++
		}
	}
	if n > 0 {
		share /= float64(n)
		active /= float64(n)
	}
	if d.hasDensity {
		density = math.Abs(d.prof.OpDensityMean() - d.baseDensity)
	}
	return share, active, density, math.Max(math.Max(share, active), density)
}
