// Command servebench is the repository's serving benchmark. It loads a
// graph into an 8-machine Direct-mode cluster (real goroutines, wall
// clock), drives one workload closed-loop from two client goroutines
// through the public a1 API, checks every reply against reference answers
// computed with the core API at set-up, and prints the metrics as one JSON
// object on the last line of standard output.
//
//	servebench --workload kg_serve --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it runs
// the same traffic, then replays a seeded sample of it with spans around
// every call into the database's layers and prints the per-layer ledger.
// A human-readable report (host, scale, per-class latencies) goes to
// standard error. See README.md for the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

const (
	machines = 8
	clients  = 2
	// timedSetups is how many set-ups setup_s takes the median of.
	timedSetups = 3
	// buildDir holds the build, its caches and the traced run's spans.
	buildDir = ".bench_build"
)

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	flag.Int64Var(&o.seed, "seed", 1, "seed for the request stream")
	flag.Float64Var(&o.seconds, "seconds", 20, "measured seconds of closed-loop traffic")
	flag.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.Parse()
	o.trace = trace == 1
	spec, ok := workloads[o.workload]
	if !ok || o.seconds <= 0 || (trace != 0 && trace != 1) {
		fmt.Fprintf(os.Stderr, "servebench: bad arguments (workloads: %s)\n", strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	out, err := run(spec, o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "servebench: %v\n", err)
		os.Exit(1)
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "servebench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// output is the result line the benchmark prints last.
type output struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(spec *workloadSpec, o options) (*output, error) {
	host := hostInfo()
	fmt.Fprintf(os.Stderr, "host: %s\n", host)

	// Set up several times and keep the last cluster; setup_s is the median.
	setups := timedSetups
	if o.trace {
		setups = 1
	}
	var e *env
	var setupTimes []float64
	for i := 0; i < setups; i++ {
		e = nil
		runtime.GC()
		debug.FreeOSMemory()
		t0 := time.Now()
		var err error
		e, err = setUp(spec)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupTimes = append(setupTimes, time.Since(t0).Seconds())
	}
	defer e.db.Close()
	fmt.Fprintf(os.Stderr, "scale: workload=%s machines=%d clients=%d seed=%d %s setup_s=%v\n",
		spec.name, machines, clients, o.seed, e.scale, setupTimes)

	if err := spec.reference(e); err != nil {
		return nil, fmt.Errorf("reference: %w", err)
	}

	res := closedLoop(e, spec, o.seed, time.Duration(o.seconds*float64(time.Second)))
	failures := res.failures
	for _, f := range spec.final(e) {
		failures = append(failures, f)
		res.failed++
	}
	for i, f := range failures {
		if i == 10 {
			fmt.Fprintf(os.Stderr, "... %d more failures\n", len(failures)-10)
			break
		}
		fmt.Fprintf(os.Stderr, "FAIL %s\n", f)
	}

	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	out := &output{
		Correct:   res.failed == 0,
		Attempted: res.attempted,
		Failed:    res.failed,
		Metrics:   map[string]metric{},
	}
	report := func(name string, v float64, unit string) { out.Metrics[name] = metric{v, unit} }
	if !o.trace {
		report("setup_s", median(setupTimes), "s")
		opsPerS, p50 := res.windowed()
		report("ops_per_s", opsPerS, "1/s")
		report("p50_ms", p50, "ms")
		all := res.latencies(func(completion) bool { return true })
		report("p99_ms", percentile(all, tailQuantile(len(all))), "ms")
		report("allocs_per_op", float64(res.mallocs)/float64(res.completed), "count")
		report("heap_mb", float64(ms.HeapAlloc)/(1<<20), "MB")
		report("farm_mb", float64(e.db.UsedBytes())/(1<<20), "MB")
		printHuman(os.Stderr, spec, res, out)
		return out, nil
	}
	layers, err := traced(e, spec, o, res)
	if err != nil {
		return nil, fmt.Errorf("traced run: %w", err)
	}
	for k, m := range layers {
		out.Metrics[k] = m
	}
	printHuman(os.Stderr, spec, res, out)
	return out, nil
}

// hostInfo describes the machine and toolchain the numbers come from.
func hostInfo() string {
	cpu := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, l := range strings.Split(string(b), "\n") {
			if strings.HasPrefix(l, "model name") {
				if i := strings.IndexByte(l, ':'); i >= 0 {
					cpu = strings.TrimSpace(l[i+1:])
				}
				break
			}
		}
	}
	return fmt.Sprintf("nproc=%d GOMAXPROCS=%d go=%s os=%s/%s cpu=%q",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH, cpu)
}

// printHuman writes the per-class latency table and every metric to w.
func printHuman(w *os.File, spec *workloadSpec, res *loopResult, out *output) {
	fmt.Fprintf(w, "workload %s: attempted=%d completed=%d failed=%d failed_frac=%.6f elapsed=%.2fs\n",
		spec.name, res.attempted, res.completed, res.failed,
		float64(res.failed)/float64(max(res.attempted, 1)), res.elapsed.Seconds())
	fmt.Fprintf(w, "  plan cache: %d hits, %d misses\n", res.planHits, res.planMisses)
	rates, _ := res.perWindow()
	fmt.Fprintf(w, "  ops/s per window: %.0f\n", rates)
	for cl := class(0); cl < numClasses; cl++ {
		s := res.latencies(func(c completion) bool { return c.class == cl })
		if len(s) == 0 {
			continue
		}
		q := tailQuantile(len(s))
		fmt.Fprintf(w, "  %-8s n=%-6d p50_ms=%.4f p%g_ms=%.4f\n", cl, len(s), percentile(s, 0.5), 100*q, percentile(s, q))
	}
	kinds := map[string]bool{}
	for _, c := range res.done {
		kinds[c.kind] = true
	}
	for _, k := range sortedKeys(kinds) {
		s := res.latencies(func(c completion) bool { return c.kind == k })
		fmt.Fprintf(w, "    %-14s n=%-6d p50_ms=%.4f max_ms=%.4f\n", k, len(s), percentile(s, 0.5), percentile(s, 1))
	}
	for _, k := range sortedKeys(out.Metrics) {
		fmt.Fprintf(w, "  %-40s %14.6g %s\n", k, out.Metrics[k].Value, out.Metrics[k].Unit)
	}
}

// traceFile names the span dump of a traced run.
func traceFile(workload string, seed int64) string {
	return filepath.Join(buildDir, fmt.Sprintf("trace-%s-%d.json", workload, seed))
}

func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}
