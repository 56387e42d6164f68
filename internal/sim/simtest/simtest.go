// Package simtest is the equivalence test harness for the parallel engine:
// it renders a scenario's observable artifacts — outcome logs, counter
// snapshots, telemetry traces — to canonical bytes and asserts that two
// runs (sequential vs parallel, or any other pair that must be
// indistinguishable) are byte-identical, reporting the first divergence
// with context when they are not.
//
// The package sits below the serving layers on purpose: serve, mtserve and
// fleet tests import it, never the reverse, so any scenario at any layer
// can be pinned with the same differ.
package simtest

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/telemetry"
)

// Artifacts is one run's observable output: everything the repo's
// determinism guarantee covers. A nil/empty field is simply not compared
// against its counterpart's content — but presence must match (one side
// tracing while the other does not is itself a divergence).
type Artifacts struct {
	// Outcomes is the rendered per-request outcome log.
	Outcomes []byte
	// Snapshot is the rendered counters/gauges snapshot.
	Snapshot []byte
	// Trace is the serialized telemetry trace JSON (already validated when
	// built via TraceBytes).
	Trace []byte
}

// Render canonicalizes any value to deterministic bytes via encoding/json
// (map keys sorted, struct fields in declaration order). Reports, outcome
// slices, and snapshots all render through here so byte comparison means
// structural equality.
func Render(t testing.TB, v any) []byte {
	t.Helper()
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		t.Fatalf("simtest: rendering %T: %v", v, err)
	}
	return b
}

// TraceBytes serializes a telemetry trace to its canonical JSON and
// validates it (well-formed events, sorted recorders, monotonic spans per
// telemetry.Validate). A nil trace yields nil bytes.
func TraceBytes(t testing.TB, tr *telemetry.Trace) []byte {
	t.Helper()
	if tr == nil {
		return nil
	}
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatalf("simtest: serializing trace: %v", err)
	}
	if _, err := telemetry.Validate(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("simtest: trace invalid: %v", err)
	}
	return buf.Bytes()
}

// Diff asserts two artifact sets are byte-identical, failing the test with
// first-divergence context otherwise. label names the comparison in the
// failure message ("workers=4 vs sequential").
func Diff(t testing.TB, label string, a, b Artifacts) {
	t.Helper()
	if err := Equal(a, b); err != nil {
		t.Fatalf("simtest: %s: %v", label, err)
	}
}

// Equal compares two artifact sets and returns a description of the first
// divergence (nil when byte-identical).
func Equal(a, b Artifacts) error {
	if err := diffBytes("outcomes", a.Outcomes, b.Outcomes); err != nil {
		return err
	}
	if err := diffBytes("snapshot", a.Snapshot, b.Snapshot); err != nil {
		return err
	}
	return diffBytes("trace", a.Trace, b.Trace)
}

// diffBytes compares one artifact and renders the first divergence with a
// context window on each side.
func diffBytes(kind string, a, b []byte) error {
	if (a == nil) != (b == nil) {
		return fmt.Errorf("%s: present on one side only (a=%d bytes, b=%d bytes)", kind, len(a), len(b))
	}
	if bytes.Equal(a, b) {
		return nil
	}
	i := 0
	for i < len(a) && i < len(b) && a[i] == b[i] {
		i++
	}
	return fmt.Errorf("%s: diverges at byte %d (a=%d bytes, b=%d bytes)\n a: %s\n b: %s",
		kind, i, len(a), len(b), window(a, i), window(b, i))
}

// window extracts the bytes around the divergence point with a caret-ish
// prefix so the mismatch is readable in test logs.
func window(b []byte, i int) string {
	start := i - 60
	if start < 0 {
		start = 0
	}
	end := i + 60
	if end > len(b) {
		end = len(b)
	}
	return fmt.Sprintf("...%q...", b[start:end])
}

// GoldenDigests pins named artifact sets across commits: it renders one
// SHA-256 digest per artifact ("<scenario> <artifact> <hex>", absent artifacts
// as "-") and compares the lines against the golden file at path, rewriting
// the file instead when update is set. Within-commit comparisons (Diff) catch
// nondeterminism; a golden digest catches a refactor that shifts bytes. A
// mismatch names the scenario and the artifact that moved.
func GoldenDigests(t testing.TB, path string, update bool, runs map[string]Artifacts) {
	t.Helper()
	names := make([]string, 0, len(runs))
	for name := range runs {
		names = append(names, name)
	}
	sort.Strings(names)
	var got strings.Builder
	for _, name := range names {
		a := runs[name]
		for _, art := range []struct {
			kind string
			b    []byte
		}{{"outcomes", a.Outcomes}, {"snapshot", a.Snapshot}, {"trace", a.Trace}} {
			d := "-"
			if art.b != nil {
				d = fmt.Sprintf("%x", sha256.Sum256(art.b))
			}
			fmt.Fprintf(&got, "%s %s %s\n", name, art.kind, d)
		}
	}
	if update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("simtest: missing golden digests (run with -update to create): %v", err)
	}
	want := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		if f := strings.Fields(line); len(f) == 3 {
			want[f[0]+" "+f[1]] = f[2]
		}
	}
	for _, line := range strings.Split(strings.TrimSpace(got.String()), "\n") {
		f := strings.Fields(line)
		key := f[0] + " " + f[1]
		w, ok := want[key]
		switch {
		case !ok:
			t.Errorf("simtest: scenario %s: %s has no golden digest (regenerate with -update)", f[0], f[1])
		case w != f[2]:
			t.Errorf("simtest: scenario %s: %s digest differs from golden\n got: %s\nwant: %s", f[0], f[1], f[2], w)
		}
		delete(want, key)
	}
	for key := range want {
		t.Errorf("simtest: golden digest %q has no scenario producing it", key)
	}
}
