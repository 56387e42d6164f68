package mtserve

import (
	"flag"
	"path/filepath"
	"testing"

	"repro/internal/faults"
	"repro/internal/sim/simtest"
)

var update = flag.Bool("update", false, "rewrite testdata/golden_digests.txt")

// TestGoldenDigests pins the rendered report (per-tenant outcome logs
// included) and the trace of one small scenario per sharing mode to digests
// recorded in testdata. The SLO is tight enough that every mode serves,
// misses and sheds, and every mode loses the first 24 tiles mid-stream, so
// the per-tenant fault path is pinned too. A fourth run, cached-repartition,
// pins the plan-cache re-plan path: the cached three-tenant scenario at half
// length with a host-solve charge on every miss, so cache hits, misses, AOT
// fault windows and the charge all land in the digests.
// Regenerate with: go test ./internal/mtserve -run GoldenDigests -update
func TestGoldenDigests(t *testing.T) {
	runs := map[string]simtest.Artifacts{}
	for _, mode := range []Mode{ModeStatic, ModeTimeSlice, ModeRepartition} {
		runs[mode.String()] = mtArtifacts(t, goldenFaultConfig(mode), true)
	}
	cached := cachedConfig(ModeRepartition)
	for i := range cached.Tenants {
		cached.Tenants[i].Requests /= 2
	}
	cached.HostReschedCycles = 200_000
	runs["cached-repartition"] = mtArtifacts(t, cached, true)
	simtest.GoldenDigests(t, filepath.Join("testdata", "golden_digests.txt"), *update, runs)
}

// goldenFaultConfig is the golden fault scenario: the headline tenants at an
// eighth of their stream length under a 1M-cycle SLO, losing the first 24
// tiles of the chip at cycle 3M.
func goldenFaultConfig(mode Mode) Config {
	cfg := headlineConfig(mode)
	for i := range cfg.Tenants {
		cfg.Tenants[i].Requests /= 8
		cfg.Tenants[i].SLOCycles = 1_000_000
	}
	tiles := make([]int, 24)
	for i := range tiles {
		tiles[i] = i
	}
	cfg.Faults = &faults.Schedule{Events: []faults.Event{
		{At: 3_000_000, Kind: faults.TileFail, Tiles: tiles},
	}}
	return cfg
}

// TestReschedulesSumTenantPlanSwaps checks that the report's Reschedules is
// the sum of the per-tenant plan swaps in every mode — fault re-plans
// included, which the controller never sees — and that the golden fault
// scenario's tile loss makes every mode re-plan at least once per tenant.
func TestReschedulesSumTenantPlanSwaps(t *testing.T) {
	for _, mode := range []Mode{ModeStatic, ModeTimeSlice, ModeRepartition} {
		rep := mustServe(t, goldenFaultConfig(mode))
		sum := 0
		for _, tr := range rep.Tenants {
			sum += tr.Reschedules
		}
		t.Logf("%s: reschedules=%d tenant sum=%d", mode, rep.Reschedules, sum)
		if rep.Reschedules != sum {
			t.Errorf("%s: report Reschedules %d, tenant plan swaps sum to %d", mode, rep.Reschedules, sum)
		}
		if sum < len(rep.Tenants) {
			t.Errorf("%s: %d plan swaps across %d tenants, but the tile loss re-plans every tenant", mode, sum, len(rep.Tenants))
		}
	}
}
