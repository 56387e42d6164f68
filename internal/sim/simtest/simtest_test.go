package simtest

import (
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/telemetry"
)

// TestEqualReportsFirstDivergence pins the differ's own contract: identical
// artifacts compare clean, a one-sided artifact is a presence divergence,
// and mismatched bytes report the first diverging offset with context.
func TestEqualReportsFirstDivergence(t *testing.T) {
	a := Artifacts{Outcomes: []byte("abcdef"), Snapshot: []byte("{}")}
	if err := Equal(a, a); err != nil {
		t.Fatalf("identical artifacts diverged: %v", err)
	}
	b := a
	b.Trace = []byte("[]")
	err := Equal(a, b)
	if err == nil || !strings.Contains(err.Error(), "present on one side only") {
		t.Fatalf("one-sided trace not flagged: %v", err)
	}
	c := a
	c.Outcomes = []byte("abcXef")
	err = Equal(a, c)
	if err == nil || !strings.Contains(err.Error(), "diverges at byte 3") {
		t.Fatalf("wrong divergence report: %v", err)
	}
}

// TestRenderAndTraceBytesCanonical checks the render paths: Render produces
// deterministic JSON for comparable values, a nil trace yields nil bytes
// (compared as absent), and a real trace round-trips through validation.
func TestRenderAndTraceBytesCanonical(t *testing.T) {
	v := struct {
		N int
		S string
	}{7, "x"}
	if string(Render(t, v)) != string(Render(t, v)) {
		t.Fatal("Render is not deterministic")
	}
	if TraceBytes(t, nil) != nil {
		t.Fatal("nil trace must render as absent")
	}
	tr := telemetry.NewTrace()
	rec := tr.Recorder("simtest")
	tk := rec.Track("t")
	rec.Instant(tk, "test", "e", 1)
	got := TraceBytes(t, tr)
	if len(got) == 0 {
		t.Fatal("traced run rendered empty")
	}
	Diff(t, "trace self-compare", Artifacts{Trace: got}, Artifacts{Trace: got})
}

// errRecorder captures the failures a helper reports instead of failing the
// enclosing test.
type errRecorder struct {
	testing.TB
	errs []string
}

func (r *errRecorder) Helper() {}
func (r *errRecorder) Errorf(format string, args ...any) {
	r.errs = append(r.errs, fmt.Sprintf(format, args...))
}
func (r *errRecorder) Fatalf(format string, args ...any) { r.Errorf(format, args...) }

// TestGoldenDigestsNamesTheArtifact checks the cross-commit pin: an update
// writes digests that a rerun matches, and a changed artifact is reported by
// scenario and artifact name.
func TestGoldenDigestsNamesTheArtifact(t *testing.T) {
	path := filepath.Join(t.TempDir(), "golden.txt")
	runs := map[string]Artifacts{"a": {Outcomes: []byte("x"), Trace: []byte("t")}}
	GoldenDigests(t, path, true, runs)
	GoldenDigests(t, path, false, runs)

	rec := &errRecorder{TB: t}
	GoldenDigests(rec, path, false, map[string]Artifacts{"a": {Outcomes: []byte("x"), Trace: []byte("u")}})
	if len(rec.errs) != 1 || !strings.Contains(rec.errs[0], "scenario a: trace digest differs") {
		t.Fatalf("changed trace not named: %q", rec.errs)
	}
}
