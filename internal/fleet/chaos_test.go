package fleet

import (
	"math/rand"
	"sort"
	"testing"

	"repro/internal/faults"
	"repro/internal/serve"
	"repro/internal/sim/simtest"
)

// chaosSchedule builds a random replica-level fault schedule from a seed:
// 1..k-1 distinct victims struck mid-run with permanent kills or brown-outs,
// always leaving at least one replica that never fails.
func chaosSchedule(seed int64, k int, span int64) *faults.Schedule {
	rng := rand.New(rand.NewSource(seed))
	nkills := 1 + rng.Intn(k-1)
	perm := rng.Perm(k)
	var events []faults.Event
	for i := 0; i < nkills; i++ {
		at := span/8 + rng.Int63n(span*3/4)
		if rng.Intn(2) == 0 {
			events = append(events, faults.Event{
				At: at, Kind: faults.TileFail, Tiles: []int{perm[i]},
			})
		} else {
			events = append(events, faults.Event{
				At: at, Kind: faults.TileBrownout, Tiles: []int{perm[i]},
				Until: at + span/10 + rng.Int63n(span/2),
			})
		}
	}
	sort.Slice(events, func(i, j int) bool { return events[i].At < events[j].At })
	return &faults.Schedule{Events: events}
}

// TestFleetChaosConservation is the chaos property test: 50 seeded random
// fault schedules kill (or brown-out) 1..K-1 replicas mid-run, cycling
// through every routing policy. Under every schedule each request must
// terminate exactly once — served, shed, or deadline-missed — across the
// fleet: re-routing must neither lose nor duplicate work.
func TestFleetChaosConservation(t *testing.T) {
	const (
		k        = 3
		requests = 90
		gap      = 40_000
		span     = int64(requests * gap)
	)
	for seed := int64(1); seed <= 50; seed++ {
		sched := chaosSchedule(seed, k, span)
		base := fleetBase("skipnet")
		base.Reschedule = false
		pol := Policies()[int(seed)%len(Policies())]
		src, err := NewMixSource(MixConfig{
			Model: "skipnet", Classes: 2, Requests: requests, Samples: 4,
			MeanGapCycles: gap, Seed: seed,
		})
		if err != nil {
			t.Fatalf("seed %d: NewMixSource: %v", seed, err)
		}
		f, err := New(Config{
			Base:          base,
			Replicas:      HomogeneousSpecs(k, base.RC.HW),
			Policy:        pol,
			ReplicaFaults: sched,
		})
		if err != nil {
			t.Fatalf("seed %d: New: %v", seed, err)
		}
		rep, err := f.Serve(src)
		if err != nil {
			t.Fatalf("seed %d (%s, %d fault events): Serve: %v", seed, pol, len(sched.Events), err)
		}
		checkConservation(t, rep, requests)
		if rep.ReplicaFailures == 0 {
			t.Errorf("seed %d: schedule with %d events caused no replica failure", seed, len(sched.Events))
		}
	}
}

// TestDeratedReplicaUnderChipFaults covers a heterogeneous fleet whose
// replicas also carry a chip-level fault schedule: one replica is built with
// half its NoC and HBM bandwidth, and every replica sees an HBM brownout
// followed by a permanent tile loss. The faults compose with the static
// derate on that replica, which must still re-plan for them; no request may
// be lost, duplicated or completed before it arrived; and the run must be
// reproducible byte for byte.
func TestDeratedReplicaUnderChipFaults(t *testing.T) {
	const derated = "slow"
	base := fleetBase("skipnet")
	base.RC.Warmup = 4
	fs, err := faults.ParseSpec("hbm@1e6:factor=0.5,until=3e6;fail@4e6:tiles=0-17")
	if err != nil {
		t.Fatalf("faults.ParseSpec: %v", err)
	}
	base.Faults = fs
	specs, err := ParseSpec("fast-a,fast-b,"+derated+":noc=0.5:hbm=0.5", base.RC.HW)
	if err != nil {
		t.Fatalf("ParseSpec: %v", err)
	}
	cfg := Config{Base: base, Replicas: specs, Policy: PolicyRR}
	mix := MixConfig{
		Model: "skipnet", Classes: 2, Requests: 120, Samples: 4,
		MeanGapCycles: 60_000, Seed: 5, MixWalkSD: 0.1,
	}

	src, err := NewMixSource(mix)
	if err != nil {
		t.Fatalf("NewMixSource: %v", err)
	}
	rep := mustFleetServe(t, cfg, src)
	checkConservation(t, rep, mix.Requests)
	for _, rr := range rep.Replicas {
		for _, o := range rr.Report.Outcomes {
			if o.Outcome == serve.Shed {
				if o.Done != 0 {
					t.Errorf("%s: shed request %d has completion cycle %d", rr.Name, o.ID, o.Done)
				}
				continue
			}
			if o.Done < o.Arrival {
				t.Errorf("%s: request %d done at %d before its arrival at %d", rr.Name, o.ID, o.Done, o.Arrival)
			}
		}
		t.Logf("%s: served=%d missed=%d shed=%d fault-events=%d health-reschedules=%d",
			rr.Name, rr.Report.Served, rr.Report.Missed, rr.Report.Shed, rr.Report.FaultEvents, rr.Report.HealthReschedules)
		if rr.Name == derated && rr.Report.HealthReschedules == 0 {
			t.Errorf("derated replica %s never re-planned for the chip faults (%d fault events)",
				rr.Name, rr.Report.FaultEvents)
		}
	}

	simtest.Diff(t, "second run", fleetArtifacts(t, cfg, mix, true), fleetArtifacts(t, cfg, mix, true))
}
