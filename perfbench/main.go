// Command perfbench is the repository's benchmark. It runs one workload for
// a fixed measuring time, checks the simulator's outputs, and prints every
// metric by name and unit; its last line of output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 a traced
// run adds spans around the benchmark's calls into each layer and reports the
// per-layer metrics instead. See README.md for the workloads and metrics.
package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// params are one invocation's settings.
type params struct {
	seed    int64
	seconds float64
	out     io.Writer // human-readable report lines
}

// outcome is what a workload run hands back to main.
type outcome struct {
	attempted, failed int64
	metrics           map[string]metric
	checks            verdict
}

func (o *outcome) set(name string, v float64, unit string) {
	if o.metrics == nil {
		o.metrics = map[string]metric{}
	}
	o.metrics[name] = metric{Value: v, Unit: unit}
}

// verdict collects correctness-check failures.
type verdict struct {
	failures []string
}

func (v *verdict) check(ok bool, format string, args ...any) {
	if !ok {
		v.failures = append(v.failures, fmt.Sprintf(format, args...))
	}
}

// workloads maps a workload name to its untraced and traced runs.
var workloads = map[string]struct {
	run, trace func(p params) (*outcome, error)
}{
	"eval-matrix": {runEvalMatrix, traceEvalMatrix},
	"serve-drift": {runServeDrift, traceServeDrift},
	"fleet-gcn":   {runFleetGCN, traceFleetGCN},
}

func main() {
	name := flag.String("workload", "", "workload to run: eval-matrix, serve-drift, fleet-gcn, or all three in turn")
	seed := flag.Int64("seed", 1, "seed all of the workload's inputs derive from")
	seconds := flag.Float64("seconds", 10, "measuring time in seconds (per workload)")
	trace := flag.Int("trace", 0, "1 runs the traced run and reports per-layer metrics")
	flag.Parse()
	names := []string{*name}
	if *name == "all" {
		names = []string{"eval-matrix", "serve-drift", "fleet-gcn"}
	}
	_, known := workloads[names[0]]
	if !known || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fmt.Fprintf(os.Stderr, "perfbench: want -workload eval-matrix|serve-drift|fleet-gcn|all, -trace 0|1, -seconds > 0\n")
		os.Exit(2)
	}
	p := params{seed: *seed, seconds: *seconds, out: os.Stdout}
	failed := false
	for _, n := range names {
		correct, err := runWorkload(p, n, *trace == 1)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", n, err)
			os.Exit(1)
		}
		failed = failed || !correct
	}
	if failed {
		os.Exit(1)
	}
}

// runWorkload runs one workload, prints its report and its JSON result
// line, and returns whether every correctness check passed.
func runWorkload(p params, name string, trace bool) (bool, error) {
	fmt.Fprintf(p.out, "# perfbench %s seed=%d seconds=%g trace=%v GOMAXPROCS=%d\n",
		name, p.seed, p.seconds, trace, runtime.GOMAXPROCS(0))
	run := workloads[name].run
	if trace {
		run = workloads[name].trace
	}
	o, err := run(p)
	if err != nil {
		return false, err
	}
	names := make([]string, 0, len(o.metrics))
	for n := range o.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(p.out, "%-30s %16.6g %s\n", n, o.metrics[n].Value, o.metrics[n].Unit)
	}
	fmt.Fprintf(p.out, "%-30s %16d\n%-30s %16d\n", "attempted", o.attempted, "failed", o.failed)
	for _, f := range o.checks.failures {
		fmt.Fprintf(p.out, "# CHECK FAILED: %s\n", f)
	}
	res := result{Correct: len(o.checks.failures) == 0, Attempted: o.attempted, Failed: o.failed, Metrics: o.metrics}
	line, err := json.Marshal(res)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(p.out, "%s\n", line)
	return res.Correct, nil
}

// cpuSeconds returns the process's user plus system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// heapMB forces a collection and returns the live heap in MB. Callers keep
// the measured object reachable past the call (runtime.KeepAlive). The
// second collection frees what the first left in sync.Pool victim caches.
func heapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}

// median returns the median of xs (xs is reordered).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// repeat calls fn at least once, and again until the measuring time has
// passed since start.
func repeat(start time.Time, seconds float64, fn func() error) error {
	for first := true; first || time.Since(start).Seconds() < seconds; first = false {
		if err := fn(); err != nil {
			return err
		}
	}
	return nil
}

// digest accumulates a run's outcome into a short hash.
type digest struct {
	b []byte
}

func (d *digest) int(v int64) {
	d.b = binary.LittleEndian.AppendUint64(d.b, uint64(v))
}

func (d *digest) float(v float64) { d.int(int64(math.Float64bits(v))) }

func (d *digest) str(s string) {
	d.int(int64(len(s)))
	d.b = append(d.b, s...)
}

func (d *digest) sum() string {
	h := sha256.Sum256(d.b)
	return fmt.Sprintf("%x", h[:8])
}

// ratio returns a/b, or 0 when b is 0 (a layer that did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
