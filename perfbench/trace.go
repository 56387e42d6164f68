package main

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"time"
)

// tracer records spans around the benchmark's own calls into each layer.
// A span has a name ("layer.op"), a start and end, a parent, and a lane: lane
// 0 is the benchmark's goroutine, other lanes are worker goroutines of a
// parallel section whose spans hang off a span on lane 0. Spans are kept in
// memory and summarized when the run ends. A nil *tracer records nothing, so
// wrappers can be shared by the traced and untraced paths.
type tracer struct {
	mu     sync.Mutex
	epoch  time.Time
	spans  []span
	stacks map[int][]int   // per-lane stack of open span indices
	base   map[int]int     // parent of a worker lane's outermost spans
	weight map[int]float64 // lane weight: 1 on lane 0, 1/k for k parallel lanes
}

type span struct {
	name       string
	lane       int
	parent     int // index into spans; -1 for the root
	start, end time.Duration
}

func newTracer() *tracer {
	return &tracer{
		epoch:  time.Now(),
		stacks: map[int][]int{},
		base:   map[int]int{},
		weight: map[int]float64{0: 1},
	}
}

// fork declares lanes first..first+k-1 as k parallel lanes whose outermost
// spans are children of the open span parent.
func (t *tracer) fork(parent, first, k int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for l := first; l < first+k; l++ {
		t.base[l] = parent
		t.weight[l] = 1 / float64(k)
	}
}

// begin opens a span on a lane, nested in the lane's innermost open span.
func (t *tracer) begin(lane int, name string) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	defer t.mu.Unlock()
	parent := -1
	if st := t.stacks[lane]; len(st) > 0 {
		parent = st[len(st)-1]
	} else if p, ok := t.base[lane]; ok {
		parent = p
	}
	t.spans = append(t.spans, span{name: name, lane: lane, parent: parent, start: now, end: -1})
	id := len(t.spans) - 1
	t.stacks[lane] = append(t.stacks[lane], id)
	return id
}

// end closes span id, which must be its lane's innermost open span.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id]
	s.end = now
	st := t.stacks[s.lane]
	if len(st) == 0 || st[len(st)-1] != id {
		panic(fmt.Sprintf("perfbench: span %s closed out of order", s.name))
	}
	t.stacks[s.lane] = st[:len(st)-1]
}

// do runs fn inside a span.
func (t *tracer) do(lane int, name string, fn func()) {
	id := t.begin(lane, name)
	fn()
	t.end(id)
}

// spanStat aggregates every span of one name.
type spanStat struct {
	name  string
	count int
	// self is the summed self time in thread-seconds: each span's duration
	// minus the part of it its children cover (a parallel section's
	// children, k lanes wide, cover 1/k of it per unit of their time).
	self float64
	// wall is self weighted by the span's lane share: the part of the root's
	// wall time this name accounts for. Wall shares sum to the root's time.
	wall float64
}

// summary aggregates the spans below root by name. The root's own self time
// is the benchmark code between layer calls: the unattributed remainder.
func (t *tracer) summary(root int) (stats map[string]*spanStat, wall, unattributed float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	dur := func(s span) float64 { return (s.end - s.start).Seconds() }
	w := func(s span) float64 { return t.weight[s.lane] }
	covered := make([]float64, len(t.spans))
	inTree := make([]bool, len(t.spans))
	for i, s := range t.spans {
		if s.end < 0 {
			panic(fmt.Sprintf("perfbench: span %s never closed", s.name))
		}
		inTree[i] = i == root || (s.parent >= 0 && inTree[s.parent])
		if inTree[i] && i != root {
			p := t.spans[s.parent]
			covered[s.parent] += dur(s) * w(s) / w(p)
		}
	}
	stats = map[string]*spanStat{}
	for i, s := range t.spans {
		if !inTree[i] || i == root {
			continue
		}
		st := stats[s.name]
		if st == nil {
			st = &spanStat{name: s.name}
			stats[s.name] = st
		}
		self := dur(s) - covered[i]
		st.count++
		st.self += self
		st.wall += self * w(s)
	}
	r := t.spans[root]
	return stats, dur(r), dur(r) - covered[root]
}

// writeAttribution prints the per-span self-time table of one traced run
// and checks that the wall shares plus the unattributed remainder account
// for the measured wall time.
func writeAttribution(out io.Writer, stats map[string]*spanStat, wall, unattributed float64) error {
	names := make([]string, 0, len(stats))
	for n := range stats {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return stats[names[i]].wall > stats[names[j]].wall })
	fmt.Fprintf(out, "# attribution of %.4f s traced wall time (self time; wall share weights parallel lanes)\n", wall)
	fmt.Fprintf(out, "#   %-24s %8s %12s %12s %8s\n", "span", "calls", "self_s", "wall_s", "share")
	sum := unattributed
	for _, n := range names {
		st := stats[n]
		sum += st.wall
		fmt.Fprintf(out, "#   %-24s %8d %12.6f %12.6f %7.2f%%\n", n, st.count, st.self, st.wall, 100*st.wall/wall)
	}
	fmt.Fprintf(out, "#   %-24s %8s %12s %12.6f %7.2f%%\n", "unattributed", "", "", unattributed, 100*unattributed/wall)
	fmt.Fprintf(out, "#   %-24s %8s %12s %12.6f %7.2f%%\n", "total", "", "", sum, 100*sum/wall)
	if d := sum - wall; d > 1e-6*wall+1e-9 || d < -1e-6*wall-1e-9 {
		return fmt.Errorf("attribution sums to %.6f s, measured wall %.6f s", sum, wall)
	}
	return nil
}

// selfOf sums the self time of every span whose name has the given prefix.
func selfOf(stats map[string]*spanStat, prefix string) float64 {
	var s float64
	for n, st := range stats {
		if strings.HasPrefix(n, prefix) {
			s += st.self
		}
	}
	return s
}

// countOf returns how many spans carry the given name.
func countOf(stats map[string]*spanStat, name string) int {
	if st := stats[name]; st != nil {
		return st.count
	}
	return 0
}
