package fleet

import (
	"flag"
	"path/filepath"
	"testing"

	"repro/internal/sim/simtest"
	"repro/internal/telemetry"
)

var update = flag.Bool("update", false, "rewrite testdata/golden_digests.txt")

// fleetArtifacts runs one fleet scenario and captures everything the
// determinism guarantee covers: the per-replica outcome logs, the full
// counters snapshot (fleet + replicas + shared plan cache), and — when trace
// is set — the validated telemetry JSON.
func fleetArtifacts(t *testing.T, cfg Config, mix MixConfig, trace bool) simtest.Artifacts {
	t.Helper()
	var tr *telemetry.Trace
	if trace {
		tr = telemetry.NewTrace()
		cfg.Base.RC.Trace = tr
	}
	src, err := NewMixSource(mix)
	if err != nil {
		t.Fatalf("NewMixSource: %v", err)
	}
	f := mustFleet(t, cfg)
	rep, err := f.Serve(src)
	if err != nil {
		t.Fatalf("Serve: %v", err)
	}
	return simtest.Artifacts{
		Outcomes: fleetLog(rep),
		Snapshot: simtest.Render(t, f.Snapshot()),
		Trace:    simtest.TraceBytes(t, tr),
	}
}

// TestGoldenDigests pins a small affinity-routed fleet run — outcome logs,
// fleet snapshot and trace — to digests recorded in testdata, so a change
// in the replicas' serving loop that shifts any byte fails here.
// Regenerate with: go test ./internal/fleet -run GoldenDigests -update
func TestGoldenDigests(t *testing.T) {
	mix := headlineMix()
	mix.Requests = 120
	simtest.GoldenDigests(t, filepath.Join("testdata", "golden_digests.txt"), *update, map[string]simtest.Artifacts{
		"affinity": fleetArtifacts(t, headlineConfig(PolicyAffinity), mix, true),
	})
}
