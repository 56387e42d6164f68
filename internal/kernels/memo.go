package kernels

import (
	"fmt"
	"sync"

	"repro/internal/graph"
	"repro/internal/hw"
)

// Memo is a concurrency-safe compile memo: it maps a kernel's shape to the
// blocking the cost model's search picks for it and the loop nest that
// blocking lowers to, so each distinct shape is compiled once however many
// solves, operators or replicas ask for it.
//
// A compiled kernel is a pure function of its shape: the cost-relevant
// projection of the hardware config (PE array, scratchpad and kernel budget,
// off-chip bandwidth per cycle), the operator's work model (kind, iteration
// space, per-unit MACs and activation bytes, weight bytes), the compiled dyn
// value and the tile count. Generate reads nothing else — the operator's ID
// and name only label its result and its errors. Keying by shape rather than
// graph.OpID is what lets one memo outlive a plan and span graphs: an OpID
// names different operators in different graphs, a shape always means the
// same kernel. Fault and tenant partition masks change how many tiles the
// scheduler hands an operator, not how a kernel for a given tile count
// compiles, and NoC derates are never read, so none of them is part of the
// shape: degraded and partitioned configs share entries with the healthy
// chip.
//
// Errors are never memoized: their text names the operator that failed, so
// a stored error would misreport a different operator of the same shape.
type Memo struct {
	mu      sync.Mutex
	entries map[memoKey]Kernel // Op is the first compiler's; hits rebind it
	hits    int64
	misses  int64
}

// memoKey is a kernel's shape: every input Generate's result depends on.
type memoKey struct {
	peRows, peCols, scratchpad, kernelBudget int
	hbmBytesPerCycle                         float64

	kind                                 graph.Kind
	space                                [6]int
	macs, inBytes, outBytes, weightBytes int64

	units, tiles int
}

func shapeKey(cfg hw.Config, op *graph.Op, units, tiles int) memoKey {
	return memoKey{
		peRows:           cfg.PERows,
		peCols:           cfg.PECols,
		scratchpad:       cfg.ScratchpadBytes,
		kernelBudget:     cfg.KernelBudgetBytes,
		hbmBytesPerCycle: cfg.HBMBytesPerCycle(),
		kind:             op.Kind,
		space:            op.Space,
		macs:             op.MACsPerUnit,
		inBytes:          op.InBytesPerUnit,
		outBytes:         op.OutBytesPerUnit,
		weightBytes:      op.WeightBytes,
		units:            units,
		tiles:            tiles,
	}
}

// NewMemo returns an empty compile memo.
func NewMemo() *Memo { return &Memo{entries: map[memoKey]Kernel{}} }

// Compile returns exactly what Generate(cfg, op, units, tiles) returns, bound
// to op.ID, running the blocking search only for shapes the memo has not
// compiled before. Safe for concurrent use.
func (m *Memo) Compile(cfg hw.Config, op *graph.Op, units, tiles int) (*Kernel, error) {
	key := shapeKey(cfg, op, units, tiles)
	m.mu.Lock()
	k, ok := m.entries[key]
	if ok {
		m.hits++
	} else {
		m.misses++
	}
	m.mu.Unlock()
	if ok {
		k.Op = op.ID
		return &k, nil
	}
	fresh, err := Generate(cfg, op, units, tiles)
	if err != nil {
		return nil, err
	}
	m.mu.Lock()
	m.entries[key] = *fresh
	m.mu.Unlock()
	return fresh, nil
}

// CompileSet compiles a kernel for each of the given dyn values (as chosen by
// multi-kernel sampling) on the same tile allocation.
func (m *Memo) CompileSet(cfg hw.Config, op *graph.Op, values []int, tiles int) (*Set, error) {
	if len(values) == 0 {
		return nil, fmt.Errorf("kernels: no values to compile for %s", op.Name)
	}
	ks := make([]*Kernel, 0, len(values))
	for _, v := range values {
		k, err := m.Compile(cfg, op, v, tiles)
		if err != nil {
			return nil, fmt.Errorf("kernels: compiling %s at %d: %w", op.Name, v, err)
		}
		ks = append(ks, k)
	}
	return NewSet(ks)
}

// Stats reports lookups served from the memo (hits) and lookups that ran the
// blocking search (misses: one costmodel.Optimize sweep each, failed
// compilations included).
func (m *Memo) Stats() (hits, misses int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.hits, m.misses
}
