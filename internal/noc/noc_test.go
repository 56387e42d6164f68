package noc

import (
	"math/rand"
	"testing"

	"repro/internal/hw"
	"repro/internal/sim"
)

func TestTorusHops(t *testing.T) {
	env := sim.NewEnv()
	n := New(env, hw.Default()) // 12x12 torus
	cases := []struct{ from, to, want int }{
		{0, 0, 0},
		{0, 1, 1},   // adjacent in x
		{0, 12, 1},  // adjacent in y
		{0, 11, 1},  // wraparound in x
		{0, 6, 6},   // farthest in x
		{0, 132, 1}, // wraparound in y (row 11)
		{0, 78, 12}, // (6,6): farthest point on the torus
		{13, 26, 2}, // (1,1) -> (2,2)
	}
	for _, tc := range cases {
		if got := n.Hops(tc.from, tc.to); got != tc.want {
			t.Errorf("Hops(%d,%d) = %d, want %d", tc.from, tc.to, got, tc.want)
		}
		if n.Hops(tc.to, tc.from) != n.Hops(tc.from, tc.to) {
			t.Errorf("hops not symmetric for (%d,%d)", tc.from, tc.to)
		}
	}
}

func TestCentroid(t *testing.T) {
	if Centroid([2]int{10, 4}) != 12 {
		t.Fatalf("centroid = %d, want 12", Centroid([2]int{10, 4}))
	}
	if Centroid([2]int{5, 1}) != 5 {
		t.Fatal("single-tile region centroid must be itself")
	}
}

func TestTransferTiming(t *testing.T) {
	env := sim.NewEnv()
	cfg := hw.Default()
	n := New(env, cfg)
	var done sim.Time
	env.Go("xfer", func(p *sim.Proc) {
		n.Transfer(p, 0, 1, 1920, 1) // 10 cycles injection at 192 B/cyc
		done = p.Now()
	})
	env.Run()
	// 10 cycles inject + hop latency + 10 cycles eject (overlapping starts
	// after reserve). Expect at least the serialization plus hop latency.
	if done < 10 {
		t.Fatalf("transfer too fast: %d cycles", done)
	}
	if n.ByteHops() != 1920 {
		t.Fatalf("byte-hops = %d, want 1920", n.ByteHops())
	}
	if n.Transfers() != 1 {
		t.Fatal("transfer count wrong")
	}
}

func TestTransferSameTileFree(t *testing.T) {
	env := sim.NewEnv()
	n := New(env, hw.Default())
	env.Go("x", func(p *sim.Proc) {
		n.Transfer(p, 5, 5, 1<<20, 4)
		if p.Now() != 0 {
			t.Errorf("local transfer must be free, took %d", p.Now())
		}
	})
	env.Run()
}

func TestProbeRoundTrip(t *testing.T) {
	env := sim.NewEnv()
	cfg := hw.Default()
	n := New(env, cfg)
	env.Go("probe", func(p *sim.Proc) {
		n.Probe(p, 0, 6) // 6 hops
		want := sim.Time(2 * (6 + 1) * cfg.RouterHopCycles)
		if p.Now() != want {
			t.Errorf("probe took %d, want %d", p.Now(), want)
		}
	})
	env.Run()
	if n.Probes() != 1 {
		t.Fatal("probe count wrong")
	}
}

func TestInjectionContention(t *testing.T) {
	env := sim.NewEnv()
	n := New(env, hw.Default())
	var t1, t2 sim.Time
	env.Go("a", func(p *sim.Proc) { n.Transfer(p, 0, 1, 19200, 1); t1 = p.Now() })
	env.Go("b", func(p *sim.Proc) { n.Transfer(p, 0, 2, 19200, 1); t2 = p.Now() })
	env.Run()
	// Both share tile 0's injection port: the second must queue behind the
	// first's 100-cycle serialization.
	if t2 < t1+100 && t1 < t2+100 {
		t.Fatalf("no injection contention visible: %d vs %d", t1, t2)
	}
}

func TestMulticast(t *testing.T) {
	env := sim.NewEnv()
	n := New(env, hw.Default())
	env.Go("mc", func(p *sim.Proc) {
		n.Multicast(p, 0, []int{1, 2, 3}, 1920)
	})
	env.Run()
	if n.Transfers() != 3 {
		t.Fatalf("multicast transfers = %d, want 3", n.Transfers())
	}
	if n.ByteHops() < 1920*3 {
		t.Fatalf("byte-hops = %d too small", n.ByteHops())
	}
}

func TestPathFollowsXYRouting(t *testing.T) {
	env := sim.NewEnv()
	n := New(env, hw.Default())
	// (1,1)=13 to (3,2)=27: X first (14, 15), then Y (27).
	path := n.Path(13, 27)
	want := []int{13, 14, 15, 27}
	if len(path) != len(want) {
		t.Fatalf("path = %v, want %v", path, want)
	}
	for i := range want {
		if path[i] != want[i] {
			t.Fatalf("path = %v, want %v", path, want)
		}
	}
	// Wraparound: (0,0) to (11,0) is one hop via the torus link.
	wrap := n.Path(0, 11)
	if len(wrap) != 2 || wrap[1] != 11 {
		t.Fatalf("wrap path = %v", wrap)
	}
	// Path length always hops+1.
	for _, pair := range [][2]int{{0, 78}, {5, 100}, {143, 0}} {
		p := n.Path(pair[0], pair[1])
		if len(p) != n.Hops(pair[0], pair[1])+1 {
			t.Fatalf("path %v length != hops+1", p)
		}
	}
}

func TestSharedLinkContention(t *testing.T) {
	env := sim.NewEnv()
	n := New(env, hw.Default())
	// Two transfers whose X-Y routes share the link 1->2 but have disjoint
	// endpoints: the second must queue on the shared link.
	var t1, t2 sim.Time
	env.Go("a", func(p *sim.Proc) { n.Transfer(p, 1, 3, 192*100, 1); t1 = p.Now() })
	env.Go("b", func(p *sim.Proc) { n.Transfer(p, 13, 2, 192*100, 1); t2 = p.Now() })
	env.Run()
	_ = t1
	// b's route is (1,1)->(2,1)->(2,0): link (13->14) then (14->2): no
	// overlap with a's (1->2->3). Re-check with overlapping paths instead.
	env2 := sim.NewEnv()
	n2 := New(env2, hw.Default())
	var u1, u2 sim.Time
	env2.Go("a", func(p *sim.Proc) { n2.Transfer(p, 0, 4, 192*100, 1); u1 = p.Now() })
	env2.Go("b", func(p *sim.Proc) { n2.Transfer(p, 1, 5, 192*100, 1); u2 = p.Now() })
	env2.Run()
	// Both cross links 1->2, 2->3, 3->4: the later one queues ~100 cycles.
	if u2 < u1+90 {
		t.Fatalf("no link contention visible: %d vs %d", u1, u2)
	}
	st := n2.LinkUtilization()
	if st.Links == 0 || st.MaxBusy == 0 {
		t.Fatalf("link stats empty: %+v", st)
	}
	_ = t2
}

func TestLinkUtilizationAccounting(t *testing.T) {
	env := sim.NewEnv()
	n := New(env, hw.Default())
	env.Go("x", func(p *sim.Proc) { n.Transfer(p, 0, 2, 1920, 1) })
	env.Run()
	st := n.LinkUtilization()
	if st.Links != 2 { // links 0->1 and 1->2
		t.Fatalf("links touched = %d, want 2", st.Links)
	}
	if st.TotalByteLinks != 2*1920 {
		t.Fatalf("byte-links = %d, want %d", st.TotalByteLinks, 2*1920)
	}
}

// pathLinks converts a tile path into the unidirectional links it occupies,
// classifying each hop by its neighbour (plus before minus, X before Y). It is
// the reference the allocation-free route walk is checked against.
func (n *NoC) pathLinks(path []int) []linkID {
	out := make([]linkID, 0, len(path)-1)
	for i := 0; i+1 < len(path); i++ {
		fx, fy := n.coord(path[i])
		tx, ty := n.coord(path[i+1])
		var dir int
		switch {
		case tx == (fx+1)%n.cfg.TilesX && ty == fy:
			dir = dirXPlus
		case tx == (fx-1+n.cfg.TilesX)%n.cfg.TilesX && ty == fy:
			dir = dirXMinus
		case ty == (fy+1)%n.cfg.TilesY && tx == fx:
			dir = dirYPlus
		default:
			dir = dirYMinus
		}
		out = append(out, linkID{from: path[i], dir: dir})
	}
	return out
}

// walkLinks collects every link an in-place route walk visits.
func walkLinks(n *NoC, src, dst int) ([]linkID, int) {
	var out []linkID
	w := n.walk(src, dst)
	for l, ok := w.next(); ok; l, ok = w.next() {
		out = append(out, l)
	}
	return out, w.hops
}

func TestWalkMatchesPathLinks(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	// 1xN and Nx1 rings, rings of two (whose +1 and -1 neighbours
	// coincide), odd and even sizes with ties, and the default 12x12 torus.
	for _, dims := range [][2]int{{1, 1}, {1, 7}, {6, 1}, {2, 2}, {2, 5}, {3, 2},
		{3, 3}, {4, 4}, {5, 3}, {8, 6}, {12, 12}} {
		cfg := hw.Default()
		cfg.TilesX, cfg.TilesY = dims[0], dims[1]
		n := New(sim.NewEnv(), cfg)
		tiles := cfg.Tiles()
		check := func(src, dst int) {
			want := n.pathLinks(n.Path(src, dst))
			got, hops := walkLinks(n, src, dst)
			if len(got) != len(want) || hops != len(want) || hops != n.Hops(src, dst) {
				t.Fatalf("%dx%d %d->%d: walk %v (%d hops), pathLinks %v, Hops %d",
					dims[0], dims[1], src, dst, got, hops, want, n.Hops(src, dst))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%dx%d %d->%d: walk %v, pathLinks %v", dims[0], dims[1], src, dst, got, want)
				}
			}
		}
		if tiles <= 64 {
			for src := 0; src < tiles; src++ {
				for dst := 0; dst < tiles; dst++ {
					check(src, dst)
				}
			}
			continue
		}
		for i := 0; i < 2000; i++ {
			check(rng.Intn(tiles), rng.Intn(tiles))
		}
		// Both wraparound corners of the grid.
		check(0, tiles-1)
		check(tiles-1, 0)
	}
}

// BenchmarkNoCTransfer measures one routed payload transfer (injection,
// link reservations along the X-Y route, ejection) on the default torus.
// Every link the timed loop uses is created in a warm-up run first, so the
// steady state should report 0 allocs/op.
func BenchmarkNoCTransfer(b *testing.B) {
	env := sim.NewEnv()
	n := New(env, hw.Default())
	tiles := hw.Default().Tiles()
	// pair(i) depends only on i mod tiles, so the warm-up covers every route.
	pair := func(i int) (int, int) { return (i * 7) % tiles, (i*31 + 5) % tiles }
	env.Go("warm-up", func(p *sim.Proc) {
		for i := 0; i < tiles; i++ {
			src, dst := pair(i)
			n.Transfer(p, src, dst, 4096, 4)
		}
	})
	env.Run()
	env.Go("xfer", func(p *sim.Proc) {
		for i := 0; i < b.N; i++ {
			src, dst := pair(i)
			n.Transfer(p, src, dst, 4096, 4)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	env.Run()
}
