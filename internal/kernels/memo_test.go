package kernels

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/graph"
	"repro/internal/hw"
)

// randOp builds a random operator work model. Matrix kinds get a consistent
// iteration space (MACsPerUnit equals the Space product, as Build would
// enforce); vector kinds leave Space zero.
func randOp(r *rand.Rand, id int) *graph.Op {
	kinds := []graph.Kind{
		graph.KindConv2D, graph.KindMatMul, graph.KindAttention, graph.KindGate,
		graph.KindElementwise, graph.KindPool, graph.KindLayerNorm, graph.KindSoftmax,
	}
	op := &graph.Op{
		ID:       graph.OpID(id),
		Name:     fmt.Sprintf("rand%d", id),
		Kind:     kinds[r.Intn(len(kinds))],
		MaxUnits: 1 + r.Intn(256),
	}
	switch op.Kind {
	case graph.KindConv2D, graph.KindMatMul, graph.KindAttention, graph.KindGate:
		c, m := 1+r.Intn(512), 1+r.Intn(512)
		h, w := 1+r.Intn(28), 1+r.Intn(28)
		rr, s := 1, 1
		if op.Kind == graph.KindConv2D {
			rr = 1 + 2*r.Intn(3)
			s = rr
		}
		op.Space = [6]int{c, m, h, w, rr, s}
		op.MACsPerUnit = int64(c) * int64(m) * int64(h) * int64(w) * int64(rr) * int64(s)
	default:
		op.MACsPerUnit = int64(1 + r.Intn(1<<16))
	}
	op.InBytesPerUnit = int64(1 + r.Intn(1<<16))
	op.OutBytesPerUnit = int64(1 + r.Intn(1<<16))
	op.WeightBytes = int64(r.Intn(1 << 22))
	return op
}

// randConfig perturbs the default chip along the fields the compile key
// projects, plus fault and derate state the key deliberately ignores.
func randConfig(r *rand.Rand) hw.Config {
	cfg := hw.Default()
	cfg.PERows = []int{8, 16, 32, 64}[r.Intn(4)]
	cfg.PECols = []int{8, 16, 32, 64}[r.Intn(4)]
	cfg.ScratchpadBytes = []int{128 << 10, 256 << 10, 512 << 10}[r.Intn(3)]
	cfg.KernelBudgetBytes = []int{12800, 25600}[r.Intn(2)]
	cfg.HBMTotalGBps = []float64{900, 1842}[r.Intn(2)]
	cfg.HBMDerate = []float64{0, 0.5}[r.Intn(2)]
	if r.Intn(2) == 0 {
		cfg.FailedTiles = hw.NewTileMask(r.Intn(cfg.Tiles()))
	}
	return cfg
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// checkCompile asserts a memoized compile returns exactly what the uncached
// reference returns: the same error text, or a kernel with identical
// metadata bytes bound to the same operator.
func checkCompile(t *testing.T, label string, got *Kernel, gerr error, want *Kernel, werr error) {
	t.Helper()
	if errText(gerr) != errText(werr) {
		t.Fatalf("%s: error %q, want %q", label, errText(gerr), errText(werr))
	}
	if werr != nil {
		return
	}
	if got.Encode() != want.Encode() {
		t.Fatalf("%s: encoding diverged from Generate", label)
	}
	if *got != *want {
		t.Fatalf("%s: kernel %+v, want %+v", label, *got, *want)
	}
}

// TestMemoMatchesGenerate is the memo's soundness property: over randomized
// operator work models and configs, Memo.Compile returns what Generate
// returns on the first (miss) call, on the repeat (hit) call, and on a hit
// reached from a different operator of the same shape under a config that
// differs only outside the key — which must come back bound to the caller's
// operator.
func TestMemoMatchesGenerate(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	m := NewMemo()
	var wantHits, wantMisses int64
	for i := 0; i < 300; i++ {
		cfg := randConfig(r)
		op := randOp(r, i)
		units := 1 + r.Intn(op.MaxUnits)
		tiles := 1 + r.Intn(24)
		want, werr := Generate(cfg, op, units, tiles)

		got, gerr := m.Compile(cfg, op, units, tiles)
		checkCompile(t, fmt.Sprintf("op %d miss", i), got, gerr, want, werr)
		got, gerr = m.Compile(cfg, op, units, tiles)
		checkCompile(t, fmt.Sprintf("op %d hit", i), got, gerr, want, werr)

		// Same shape, different identity: another ID and name, other
		// dynamism metadata, and a config with another fault mask and NoC
		// derate.
		twin := *op
		twin.ID = graph.OpID(10_000 + i)
		twin.Name = fmt.Sprintf("twin%d", i)
		twin.MaxUnits = op.MaxUnits + 7
		twin.Dynamic = !op.Dynamic
		twin.DensityAware = !op.DensityAware
		tcfg := cfg
		tcfg.FailedTiles = cfg.FailedTiles.Or(hw.NewTileMask(cfg.Tiles() - 1))
		tcfg.NoCDerate = 0.5
		twant, twerr := Generate(tcfg, &twin, units, tiles)
		got, gerr = m.Compile(tcfg, &twin, units, tiles)
		checkCompile(t, fmt.Sprintf("op %d twin", i), got, gerr, twant, twerr)
		if werr == nil && got.Op != twin.ID {
			t.Fatalf("op %d twin: kernel bound to op %d, want the caller's %d", i, got.Op, twin.ID)
		}

		if werr == nil {
			wantMisses++
			wantHits += 2
		} else {
			wantMisses += 3 // errors are never memoized
		}
	}
	if h, mi := m.Stats(); h != wantHits || mi != wantMisses {
		t.Fatalf("stats hits=%d misses=%d, want %d/%d", h, mi, wantHits, wantMisses)
	}
	if wantHits == 0 || wantMisses == 0 {
		t.Fatal("property test must exercise both hits and misses")
	}
}

// TestMemoNeverSharesErrors: a failed compile of one operator must not be
// replayed for another operator of the same shape, whose error names itself.
func TestMemoNeverSharesErrors(t *testing.T) {
	cfg := hw.Default()
	a := convOp(t, 64)
	a.Name = "first"
	b := *a
	b.ID, b.Name = a.ID+1, "second"
	m := NewMemo()
	for _, op := range []*graph.Op{a, &b, a} {
		_, err := m.Compile(cfg, op, 64, 0) // zero tiles: the search fails
		_, want := Generate(cfg, op, 64, 0)
		if err == nil || want == nil || err.Error() != want.Error() {
			t.Fatalf("%s: error %v, want %v", op.Name, err, want)
		}
		if !strings.Contains(err.Error(), op.Name) {
			t.Fatalf("%s: error %q does not name the caller", op.Name, err)
		}
	}
	if h, mi := m.Stats(); h != 0 || mi != 3 {
		t.Fatalf("failed compiles: hits=%d misses=%d, want 0/3", h, mi)
	}
}

// TestMemoKeyCoversConfig walks every hw.Config field by reflection: each is
// either part of the compile key (perturbing it changes the key) or
// irrelevant to compilation (perturbing it leaves Generate's output
// unchanged). A new Config field that Generate reads but the key misses
// fails here.
func TestMemoKeyCoversConfig(t *testing.T) {
	base := hw.Default()
	r := rand.New(rand.NewSource(9))
	var ops []*graph.Op
	for i := 0; i < 40; i++ {
		ops = append(ops, randOp(r, i))
	}
	ops = append(ops, convOp(t, 128))
	rt := reflect.TypeOf(base)
	for i := 0; i < rt.NumField(); i++ {
		f := rt.Field(i)
		cfg := base
		v := reflect.ValueOf(&cfg).Elem().Field(i)
		switch v.Kind() {
		case reflect.Int:
			v.SetInt(2*v.Int() + 1)
		case reflect.Float64:
			if v.Float() == 0 {
				v.SetFloat(0.5)
			} else {
				v.SetFloat(v.Float() * 0.5)
			}
		case reflect.String:
			v.SetString(string(hw.NewTileMask(0, 7)))
		default:
			t.Fatalf("field %s: kind %s has no perturbation; extend this test", f.Name, v.Kind())
		}
		if cfg == base {
			t.Fatalf("field %s: perturbation left the config unchanged", f.Name)
		}
		for _, op := range ops {
			units, tiles := 1+op.MaxUnits/2, 8
			if shapeKey(cfg, op, units, tiles) != shapeKey(base, op, units, tiles) {
				continue // keyed
			}
			want, werr := Generate(base, op, units, tiles)
			got, gerr := Generate(cfg, op, units, tiles)
			if errText(gerr) != errText(werr) || (werr == nil && *got != *want) {
				t.Fatalf("field %s is outside the compile key but changes Generate for %s", f.Name, op.Name)
			}
		}
	}
}

// TestMemoConcurrentCompile hammers one memo from several goroutines over a
// small set of shared shapes, each goroutine compiling under its own operator
// IDs: every result must match Generate and carry the caller's operator. Run
// under -race this is the memo's synchronization check.
func TestMemoConcurrentCompile(t *testing.T) {
	cfg := hw.Default()
	r := rand.New(rand.NewSource(3))
	var shapes []*graph.Op
	for i := 0; i < 12; i++ {
		shapes = append(shapes, randOp(r, i))
	}
	wants := make([]*Kernel, len(shapes))
	for i, op := range shapes {
		k, err := Generate(cfg, op, op.MaxUnits, 4)
		if err != nil {
			t.Fatal(err)
		}
		wants[i] = k
	}
	m := NewMemo()
	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for round := 0; round < 20; round++ {
				for i, shape := range shapes {
					op := *shape
					op.ID = graph.OpID(1000*w + i)
					k, err := m.Compile(cfg, &op, op.MaxUnits, 4)
					if err != nil {
						t.Error(err)
						return
					}
					if k.Op != op.ID || k.Encode() != wants[i].Encode() {
						t.Errorf("worker %d shape %d: kernel for op %d diverged", w, i, k.Op)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if h, mi := m.Stats(); h+mi != workers*20*int64(len(shapes)) || mi < int64(len(shapes)) {
		t.Fatalf("stats hits=%d misses=%d over %d compiles", h, mi, workers*20*len(shapes))
	}
}
