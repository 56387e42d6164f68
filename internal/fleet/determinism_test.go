package fleet

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/sim/simtest"
)

// TestFleetDeterminismWall is the 50-seed property wall: randomized small
// scenarios (drift thresholds, routing policies, fault schedules, and
// arrival mixes all seed-derived) each run once as the reference and once
// more with the replica spec in reversed bring-up order at a seed-cycled
// GOMAXPROCS of 1, 4 or 8. Every variant must be byte-identical to its
// reference: outcome logs, snapshots and, on every tenth seed, traces.
func TestFleetDeterminismWall(t *testing.T) {
	const replicas = 3
	gomax := []int{1, 4, 8}
	for seed := int64(1); seed <= 50; seed++ {
		mix := MixConfig{
			Model: "skipnet", Classes: 2 + int(seed%2), Requests: 48, Samples: 4,
			MeanGapCycles: 40_000, Seed: seed, MixWalkSD: 0.10 * float64(seed%3),
		}
		base := fleetBase("skipnet")
		base.RC.Warmup = 4
		base.PlanCache = true
		base.PlanCacheNearest = seed%2 == 0
		base.PlanCacheMaxDist = 0.10
		base.HostReschedCycles = 200_000
		base.DriftThreshold = 0.02 + 0.02*float64(seed%4)
		base.CheckEvery = 2
		base.CooldownBatches = 4
		cfg := Config{
			Base:     base,
			Replicas: HomogeneousSpecs(replicas, base.RC.HW),
			Policy:   Policies()[int(seed)%len(Policies())],
		}
		if seed%3 == 0 {
			span := int64(float64(mix.Requests) * mix.MeanGapCycles)
			cfg.ReplicaFaults = chaosSchedule(seed, replicas, span)
		}
		variant := cfg
		specs := append([]ReplicaSpec{}, cfg.Replicas...)
		for i, j := 0, len(specs)-1; i < j; i, j = i+1, j-1 {
			specs[i], specs[j] = specs[j], specs[i]
		}
		variant.Replicas = specs
		procs := gomax[int(seed)%len(gomax)]
		trace := seed%10 == 0

		ref := fleetArtifacts(t, cfg, mix, trace)
		old := runtime.GOMAXPROCS(procs)
		got := fleetArtifacts(t, variant, mix, trace)
		runtime.GOMAXPROCS(old)
		simtest.Diff(t, fmt.Sprintf("seed %d (reversed, GOMAXPROCS=%d)", seed, procs), ref, got)
	}
}
