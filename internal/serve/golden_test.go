package serve

import (
	"bytes"
	"flag"
	"path/filepath"
	"testing"

	"repro/internal/faults"
	"repro/internal/models"
	"repro/internal/sim/simtest"
	"repro/internal/workload"
)

var update = flag.Bool("update", false, "rewrite testdata/golden_digests.txt")

// replaySource serves a recorded skipnet trace: every request is pre-routed
// and runs as its own batch.
func replaySource(t *testing.T, batches int, gap float64) Source {
	t.Helper()
	w, err := models.ByName("skipnet", 16)
	if err != nil {
		t.Fatal(err)
	}
	rec := workload.Record("skipnet", 16, 11, w.GenTrace(workload.NewSource(11), batches, 16))
	var buf bytes.Buffer
	if err := rec.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := workload.LoadRecording(&buf)
	if err != nil {
		t.Fatal(err)
	}
	src, err := NewReplay(loaded, gap, 2)
	if err != nil {
		t.Fatal(err)
	}
	return src
}

// TestGoldenDigests pins the serving scenarios' outcome log, counters
// snapshot and trace to digests recorded in testdata, so a change that shifts
// any of their bytes fails here even when it is internally deterministic.
// Regenerate with: go test ./internal/serve -run GoldenDigests -update
func TestGoldenDigests(t *testing.T) {
	drift := driftConfig("moe")
	drift.PlanCache = true
	drift.PlanCacheNearest = true
	drift.PlanCacheAOT = true
	drift.PlanCacheMaxDist = 0.02
	drift.HostReschedCycles = 2_000_000

	fault := faultConfig("skipnet", true, &faults.Schedule{Events: []faults.Event{
		{At: 3_000_000, Kind: faults.TileFail, Tiles: tileRange(0, 36)},
	}})

	replay := quickConfig("skipnet")
	replay.RC.Batch = 16
	replay.MaxBatch = 16

	simtest.GoldenDigests(t, filepath.Join("testdata", "golden_digests.txt"), *update, map[string]simtest.Artifacts{
		"drift-plancache": serveArtifacts(t, drift,
			NewSynthetic(900, 28_000, 13, workload.NewDrift(1, 0.25, 2.5, 0.12)), true),
		"fault-36tile":    serveArtifacts(t, fault, NewSynthetic(200, 80_000, 2, nil), true),
		"replay":          serveArtifacts(t, replay, replaySource(t, 12, 100_000), true),
		"pipeline-depth4": serveArtifacts(t, burstConfig("skipnet", 4), NewSynthetic(160, 30_000, 9, nil), true),
	})
}
