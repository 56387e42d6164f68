package sim

import (
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestScheduleOrdering(t *testing.T) {
	env := NewEnv()
	var got []int
	env.Schedule(10, func() { got = append(got, 2) })
	env.Schedule(5, func() { got = append(got, 1) })
	env.Schedule(10, func() { got = append(got, 3) }) // same time: FIFO by seq
	env.Schedule(20, func() { got = append(got, 4) })
	end := env.Run()
	if end != 20 {
		t.Fatalf("end time = %d, want 20", end)
	}
	want := []int{1, 2, 3, 4}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
}

func TestRunUntilStopsAtHorizon(t *testing.T) {
	env := NewEnv()
	fired := 0
	env.Schedule(5, func() { fired++ })
	env.Schedule(50, func() { fired++ })
	env.RunUntil(10)
	if fired != 1 {
		t.Fatalf("fired = %d, want 1", fired)
	}
	if env.Now() != 10 {
		t.Fatalf("now = %d, want 10", env.Now())
	}
	if env.Pending() != 1 {
		t.Fatalf("pending = %d, want 1", env.Pending())
	}
	env.Run()
	if fired != 2 || env.Now() != 50 {
		t.Fatalf("after full run: fired=%d now=%d", fired, env.Now())
	}
}

// TestStepToLeavesHorizonPending pins the difference from RunUntil: an event
// at exactly the horizon stays queued, and NextEvent reports it.
func TestStepToLeavesHorizonPending(t *testing.T) {
	env := NewEnv()
	if _, ok := env.NextEvent(); ok {
		t.Fatal("empty env reports a pending event")
	}
	fired := 0
	env.Schedule(5, func() { fired++ })
	env.Schedule(10, func() { fired++ })
	env.StepTo(10)
	if fired != 1 || env.Now() != 10 {
		t.Fatalf("after StepTo(10): fired=%d now=%d, want 1 and 10", fired, env.Now())
	}
	if at, ok := env.NextEvent(); !ok || at != 10 {
		t.Fatalf("NextEvent = %d,%v, want 10,true", at, ok)
	}
	env.StepTo(3) // a horizon in the past leaves the clock alone
	if env.Now() != 10 {
		t.Fatalf("StepTo into the past moved the clock to %d", env.Now())
	}
}

func TestNegativeDelayPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on negative delay")
		}
	}()
	NewEnv().Schedule(-1, func() {})
}

func TestAtPastPanics(t *testing.T) {
	env := NewEnv()
	env.Schedule(10, func() {
		defer func() {
			if recover() == nil {
				t.Error("expected panic scheduling in the past")
			}
		}()
		env.At(5, func() {})
	})
	env.Run()
}

func TestProcessWait(t *testing.T) {
	env := NewEnv()
	var times []Time
	env.Go("w", func(p *Proc) {
		times = append(times, p.Now())
		p.Wait(7)
		times = append(times, p.Now())
		p.Wait(3)
		times = append(times, p.Now())
	})
	env.Run()
	want := []Time{0, 7, 10}
	if len(times) != len(want) {
		t.Fatalf("times = %v, want %v", times, want)
	}
	for i := range want {
		if times[i] != want[i] {
			t.Fatalf("times = %v, want %v", times, want)
		}
	}
}

func TestProcessesInterleaveDeterministically(t *testing.T) {
	env := NewEnv()
	var order []string
	env.Go("a", func(p *Proc) {
		p.Wait(1)
		order = append(order, "a1")
		p.Wait(2)
		order = append(order, "a3")
	})
	env.Go("b", func(p *Proc) {
		p.Wait(2)
		order = append(order, "b2")
		p.Wait(2)
		order = append(order, "b4")
	})
	env.Run()
	want := []string{"a1", "b2", "a3", "b4"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestSignalBroadcast(t *testing.T) {
	env := NewEnv()
	sig := NewSignal(env)
	var woke []string
	env.Go("w1", func(p *Proc) {
		sig.Await(p)
		woke = append(woke, "w1")
	})
	env.Go("w2", func(p *Proc) {
		sig.Await(p)
		woke = append(woke, "w2")
	})
	env.Go("firer", func(p *Proc) {
		p.Wait(5)
		sig.Fire()
	})
	env.Run()
	if len(woke) != 2 {
		t.Fatalf("woke = %v, want both waiters", woke)
	}
	if env.Now() != 5 {
		t.Fatalf("now = %d, want 5", env.Now())
	}
	// A fired signal does not block.
	released := false
	env.Go("late", func(p *Proc) {
		sig.Await(p)
		released = true
	})
	env.Run()
	if !released {
		t.Fatal("late waiter blocked on fired signal")
	}
}

func TestSignalReset(t *testing.T) {
	env := NewEnv()
	sig := NewSignal(env)
	sig.Fire()
	if !sig.Fired() {
		t.Fatal("signal should be fired")
	}
	sig.Reset()
	if sig.Fired() {
		t.Fatal("signal should be reset")
	}
}

func TestStoreFIFO(t *testing.T) {
	env := NewEnv()
	st := NewStore(env, 0)
	var got []int
	env.Go("producer", func(p *Proc) {
		for i := 1; i <= 5; i++ {
			p.Wait(1)
			st.Put(p, i)
		}
	})
	env.Go("consumer", func(p *Proc) {
		for i := 0; i < 5; i++ {
			got = append(got, st.Get(p).(int))
		}
	})
	env.Run()
	for i, v := range got {
		if v != i+1 {
			t.Fatalf("got %v, want 1..5 in order", got)
		}
	}
}

func TestStoreBackpressure(t *testing.T) {
	env := NewEnv()
	st := NewStore(env, 2)
	var putDone Time
	env.Go("producer", func(p *Proc) {
		st.Put(p, 1)
		st.Put(p, 2)
		st.Put(p, 3) // must block until consumer frees a slot at t=10
		putDone = p.Now()
	})
	env.Go("consumer", func(p *Proc) {
		p.Wait(10)
		_ = st.Get(p)
	})
	env.Run()
	if putDone != 10 {
		t.Fatalf("third Put completed at %d, want 10 (backpressure)", putDone)
	}
}

func TestStoreTryPut(t *testing.T) {
	env := NewEnv()
	st := NewStore(env, 1)
	if !st.TryPut("x") {
		t.Fatal("first TryPut should succeed")
	}
	if st.TryPut("y") {
		t.Fatal("TryPut into a full store should fail")
	}
	if st.Len() != 1 {
		t.Fatalf("len = %d, want 1", st.Len())
	}
}

func TestServerQueueing(t *testing.T) {
	env := NewEnv()
	srv := NewServer(env, 10) // 10 bytes/cycle
	var done []Time
	for i := 0; i < 3; i++ {
		env.Go("client", func(p *Proc) {
			srv.Serve(p, 100) // 10 cycles of service each
			done = append(done, p.Now())
		})
	}
	env.Run()
	want := []Time{10, 20, 30}
	for i := range want {
		if done[i] != want[i] {
			t.Fatalf("done = %v, want %v", done, want)
		}
	}
	if srv.BusyCycles() != 30 {
		t.Fatalf("busy = %d, want 30", srv.BusyCycles())
	}
	if srv.ServedBytes() != 300 {
		t.Fatalf("bytes = %v, want 300", srv.ServedBytes())
	}
	if srv.ServedCount() != 3 {
		t.Fatalf("count = %d, want 3", srv.ServedCount())
	}
}

func TestServerZeroBytesFree(t *testing.T) {
	env := NewEnv()
	srv := NewServer(env, 1)
	env.Go("c", func(p *Proc) {
		if got := srv.Serve(p, 0); got != 0 {
			t.Errorf("zero-byte serve took time: %d", got)
		}
	})
	env.Run()
}

func TestServerReserve(t *testing.T) {
	env := NewEnv()
	srv := NewServer(env, 4)
	if got := srv.Reserve(40); got != 10 {
		t.Fatalf("first reserve done at %d, want 10", got)
	}
	if got := srv.Reserve(40); got != 20 {
		t.Fatalf("second reserve done at %d, want 20", got)
	}
}

func TestServerMinimumOneCycle(t *testing.T) {
	env := NewEnv()
	srv := NewServer(env, 1000)
	if srv.ServiceTime(1) != 1 {
		t.Fatal("sub-cycle transfers must round up to one cycle")
	}
}

// Property: for any set of event delays, Run visits them in nondecreasing
// time order and ends at the max delay.
func TestQuickEventOrdering(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		env := NewEnv()
		var visited []Time
		maxd := Time(0)
		for _, r := range raw {
			d := Time(r)
			if d > maxd {
				maxd = d
			}
			env.Schedule(d, func() { visited = append(visited, env.Now()) })
		}
		end := env.Run()
		if end != maxd {
			return false
		}
		return sort.SliceIsSorted(visited, func(i, j int) bool { return visited[i] < visited[j] })
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: a FIFO server conserves work — total completion equals the sum of
// service times when requests arrive back-to-back at t=0.
func TestQuickServerWorkConservation(t *testing.T) {
	f := func(sizes []uint16) bool {
		env := NewEnv()
		srv := NewServer(env, 7)
		var want Time
		for _, s := range sizes {
			n := int64(s) + 1
			want += srv.ServiceTime(n)
			size := n
			env.Go("c", func(p *Proc) { srv.Serve(p, size) })
		}
		env.Run()
		return srv.BusyCycles() == want && env.Now() == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestManyProcessesStress(t *testing.T) {
	env := NewEnv()
	rng := rand.New(rand.NewSource(1))
	total := 0
	for i := 0; i < 500; i++ {
		n := 1 + rng.Intn(20)
		total += n
		env.Go("p", func(p *Proc) {
			for j := 0; j < n; j++ {
				p.Wait(Time(1 + rng.Intn(5)))
			}
		})
	}
	env.Run()
	if env.nprocs != 0 {
		t.Fatalf("%d processes still live", env.nprocs)
	}
	_ = total
}

// The pooled value-heap engine must fire events in exactly the order the
// seed container/heap engine did: sorted by (at, seq). The reference model
// here is a stable sort of the schedule calls — precisely that contract —
// checked over randomized workloads that interleave scheduling and draining
// (events scheduled from inside events, equal timestamps, bursts).
func TestEngineMatchesReferenceOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		env := NewEnv()
		type stamp struct {
			at  Time
			seq int
		}
		var fired []stamp
		var want []stamp
		seq := 0
		var schedule func(depth int)
		schedule = func(depth int) {
			n := 1 + rng.Intn(30)
			for i := 0; i < n; i++ {
				d := Time(rng.Intn(7)) // small range forces many ties
				at := env.Now() + d
				seq++
				mySeq := seq
				want = append(want, stamp{at: at, seq: mySeq})
				env.Schedule(d, func() {
					fired = append(fired, stamp{at: env.Now(), seq: mySeq})
					// Occasionally schedule more work from inside an event,
					// the pattern processes produce constantly.
					if depth < 3 && rng.Intn(4) == 0 {
						schedule(depth + 1)
					}
				})
			}
		}
		schedule(0)
		env.Run()
		// Reference order: stable sort by timestamp (stability preserves the
		// scheduling sequence for ties).
		sort.SliceStable(want, func(i, j int) bool { return want[i].at < want[j].at })
		if len(fired) != len(want) {
			t.Fatalf("trial %d: fired %d events, want %d", trial, len(fired), len(want))
		}
		for i := range want {
			if fired[i] != want[i] {
				t.Fatalf("trial %d: event %d fired as %+v, reference order wants %+v",
					trial, i, fired[i], want[i])
			}
		}
	}
}

func BenchmarkEngineScheduleRun(b *testing.B) {
	for i := 0; i < b.N; i++ {
		env := NewEnv()
		for j := 0; j < 1000; j++ {
			env.Schedule(Time(j%97), func() {})
		}
		env.Run()
	}
}

func BenchmarkProcessSwitch(b *testing.B) {
	env := NewEnv()
	env.Go("spin", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Wait(1)
		}
	})
	b.ResetTimer()
	env.Run()
}

// BenchmarkProcessSpawn measures a process's whole lifetime: one Go plus a
// run to its exit. Under the coroutine handoff, creation is the largest
// per-process cost.
func BenchmarkProcessSpawn(b *testing.B) {
	b.ReportAllocs()
	env := NewEnv()
	body := func(p *Proc) {}
	for i := 0; i < b.N; i++ {
		env.Go("spawn", body)
		env.Run()
	}
}

func TestProcessPanicReachesRunCaller(t *testing.T) {
	env := NewEnv()
	env.Go("bad", func(p *Proc) {
		p.Wait(2)
		p.Wait(-1)
	})
	var got interface{}
	func() {
		defer func() { got = recover() }()
		env.Run()
	}()
	msg, ok := got.(string)
	if !ok || !strings.Contains(msg, "process bad waits negative -1") {
		t.Fatalf("Run recovered %v, want the process's negative-wait panic", got)
	}
	if env.Now() != 2 {
		t.Fatalf("panic surfaced at t=%d, want 2", env.Now())
	}
}

func TestBlockedProcsDiagnostic(t *testing.T) {
	env := NewEnv()
	st := NewStore(env, 0)
	env.Go("starved-consumer", func(p *Proc) {
		st.Get(p) // never fed
	})
	env.Go("fine", func(p *Proc) { p.Wait(3) })
	env.Run()
	if env.Live() != 1 {
		t.Fatalf("live = %d, want 1", env.Live())
	}
	blocked := env.BlockedProcs()
	if len(blocked) != 1 || blocked[0] != "starved-consumer" {
		t.Fatalf("blocked = %v", blocked)
	}
	// Feeding the store resumes and clears the diagnostic.
	st.TryPut(1)
	env.Run()
	if env.Live() != 0 || len(env.BlockedProcs()) != 0 {
		t.Fatalf("still blocked after feed: %v", env.BlockedProcs())
	}
}

func TestBlockedProcsEmptyOnCleanRun(t *testing.T) {
	env := NewEnv()
	env.Go("a", func(p *Proc) { p.Wait(5) })
	env.Run()
	if n := len(env.BlockedProcs()); n != 0 {
		t.Fatalf("clean run reports %d blocked procs", n)
	}
}
