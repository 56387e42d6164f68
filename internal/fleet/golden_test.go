package fleet

import (
	"flag"
	"path/filepath"
	"testing"

	"repro/internal/sim/simtest"
)

var update = flag.Bool("update", false, "rewrite testdata/golden_digests.txt")

// TestGoldenDigests pins a small affinity-routed fleet run — outcome logs,
// fleet snapshot and trace — to digests recorded in testdata, so a change
// in the replicas' serving loop that shifts any byte fails here.
// Regenerate with: go test ./internal/fleet -run GoldenDigests -update
func TestGoldenDigests(t *testing.T) {
	mix := headlineMix()
	mix.Requests = 120
	simtest.GoldenDigests(t, filepath.Join("testdata", "golden_digests.txt"), *update, map[string]simtest.Artifacts{
		"affinity": fleetArtifacts(t, headlineConfig(PolicyAffinity), mix, 1, true),
	})
}
