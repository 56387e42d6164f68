package main

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/models"
	"repro/internal/serve"
	"repro/internal/workload"
)

// TestWrappedGeneratorForwardsDensity checks the timing wrapper keeps a
// density-aware generator density-aware: it must still satisfy
// workload.DensityGen and draw the same (sparse) values as the bare model,
// or gcn's warmup and batches would silently run dense.
func TestWrappedGeneratorForwardsDensity(t *testing.T) {
	bare, err := models.ByName("gcn", 32)
	if err != nil {
		t.Fatal(err)
	}
	timed, err := models.ByName("gcn", 32)
	if err != nil {
		t.Fatal(err)
	}
	meter := &genMeter{}
	wrapped, _ := wrapGen(timed.Gen, newTracer(), 0, meter)
	if !isDensityGen(wrapped) {
		t.Fatal("wrapped gcn generator does not implement workload.DensityGen")
	}
	want := bare.GenTrace(workload.NewSource(7), 50, 32)
	timed.Gen = wrapped
	got := timed.GenTrace(workload.NewSource(7), 50, 32)
	sparse := 0
	for i := range want {
		if got[i].Density != want[i].Density {
			t.Fatalf("batch %d: wrapped density %v, bare %v", i, got[i].Density, want[i].Density)
		}
		if got[i].Density < 1 {
			sparse++
		}
	}
	if sparse == 0 {
		t.Fatal("wrapped gcn generator drew no density below 1")
	}
	if n := meter.calls.Load(); n != 100 {
		t.Fatalf("meter counted %d calls, want 100 (50 routings + 50 densities)", n)
	}

	moe, err := models.ByName("moe", 32)
	if err != nil {
		t.Fatal(err)
	}
	if w, _ := wrapGen(moe.Gen, nil, 0, meter); isDensityGen(w) {
		t.Fatal("wrapping a routing-only generator made it density-aware")
	}
}

// fleetDigest serves fleet-gcn's nominal stream and returns its digest.
func fleetDigest(t *testing.T, seed int64, workers int, wrap func(workload.TraceGen) workload.TraceGen) string {
	t.Helper()
	r, err := serveFleet(seed, fleetGap, workers, wrap)
	if err != nil {
		t.Fatal(err)
	}
	var v verdict
	r.check(&v, "fleet-gcn", fleetRequests)
	if len(v.failures) > 0 {
		t.Fatal(v.failures)
	}
	return r.digest
}

// TestFleetGCNDigestTracedEqualsUntraced checks the traced run's generator
// wrapper changes nothing the fleet computes.
func TestFleetGCNDigestTracedEqualsUntraced(t *testing.T) {
	workers := runtime.NumCPU()
	plain := fleetDigest(t, 3, workers, nil)
	tr := newTracer()
	meter := &genMeter{}
	traced := fleetDigest(t, 3, workers, func(g workload.TraceGen) workload.TraceGen {
		w, _ := wrapGen(g, tr, 0, meter)
		return w
	})
	if plain != traced {
		t.Fatalf("traced digest %s, untraced %s", traced, plain)
	}
	if meter.calls.Load() == 0 {
		t.Fatal("the wrapped generator was never called")
	}
}

// TestFleetGCNDigestWorkerInvariant checks parallel replica stepping does
// not change fleet-gcn's results.
func TestFleetGCNDigestWorkerInvariant(t *testing.T) {
	one := fleetDigest(t, 4, 1, nil)
	for _, workers := range []int{runtime.NumCPU(), fleetReplicas} {
		if got := fleetDigest(t, 4, workers, nil); got != one {
			t.Fatalf("workers %d digest %s, workers 1 digest %s", workers, got, one)
		}
	}
}

// TestCheckOutcomesConservation checks the conservation check catches a
// lost and a duplicated request.
func TestCheckOutcomesConservation(t *testing.T) {
	outs := []serve.RequestResult{
		{ID: 0, Outcome: serve.Served},
		{ID: 1, Outcome: serve.Shed},
		{ID: 2, Outcome: serve.DeadlineMissed},
	}
	var ok verdict
	if _, served, missed, shed := checkOutcomes(&ok, "ok", outs, 3); len(ok.failures) > 0 || served != 1 || missed != 1 || shed != 1 {
		t.Fatalf("clean log: failures %v, counts %d/%d/%d", ok.failures, served, missed, shed)
	}
	var lost verdict
	checkOutcomes(&lost, "lost", outs[:2], 3)
	if len(lost.failures) == 0 {
		t.Fatal("a lost request passed the check")
	}
	var dup verdict
	checkOutcomes(&dup, "dup", append(outs[:2:2], outs[1]), 3)
	if len(dup.failures) == 0 {
		t.Fatal("a duplicated request passed the check")
	}
}

// TestAttributionAccountsForWall checks self times weighted by lane share
// plus the unattributed remainder sum to the root's wall time, with a
// parallel section.
func TestAttributionAccountsForWall(t *testing.T) {
	tr := newTracer()
	root := tr.begin(0, "bench.test")
	tr.do(0, "a.x", func() { time.Sleep(2 * time.Millisecond) })
	par := tr.begin(0, "runner.map")
	tr.fork(par, 1, 2)
	done := make(chan struct{})
	for lane := 1; lane <= 2; lane++ {
		go func(lane int) {
			tr.do(lane, "b.y", func() {
				tr.do(lane, "c.z", func() { time.Sleep(3 * time.Millisecond) })
			})
			done <- struct{}{}
		}(lane)
	}
	<-done
	<-done
	tr.end(par)
	time.Sleep(time.Millisecond)
	tr.end(root)
	stats, wall, unattributed := tr.summary(root)
	if err := writeAttribution(&testWriter{t}, stats, wall, unattributed); err != nil {
		t.Fatal(err)
	}
	if stats["c.z"].count != 2 || stats["c.z"].self < 0.006 {
		t.Fatalf("c.z: %+v", *stats["c.z"])
	}
	if unattributed < 0.001 {
		t.Fatalf("unattributed %.6f s, want the 1 ms sleep", unattributed)
	}
}

func isDensityGen(g workload.TraceGen) bool {
	_, ok := g.(workload.DensityGen)
	return ok
}

type testWriter struct{ t *testing.T }

func (w *testWriter) Write(b []byte) (int, error) {
	w.t.Log(string(b))
	return len(b), nil
}
