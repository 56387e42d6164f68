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
// the per-tenant fault path is pinned too.
// Regenerate with: go test ./internal/mtserve -run GoldenDigests -update
func TestGoldenDigests(t *testing.T) {
	runs := map[string]simtest.Artifacts{}
	for _, mode := range []Mode{ModeStatic, ModeTimeSlice, ModeRepartition} {
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
		runs[mode.String()] = mtArtifacts(t, cfg, true)
	}
	simtest.GoldenDigests(t, filepath.Join("testdata", "golden_digests.txt"), *update, runs)
}
