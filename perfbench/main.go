// Command perfbench is the repository's layered benchmark. It measures
// the cost of reaching a race verdict (CPU time, allocation, live heap;
// wall-clock latency in the summary and the traced run) on three
// workloads:
//
//   - table3-sweep: closed loop, one client; each op is one suite run of
//     the Table 3 indexes (tag table3, variant races, default options),
//     the path cmd/yashme-tables takes;
//   - table4-random: closed loop, one client; each op is one Table 4
//     random-mode sweep with a fresh engine seed drawn from --seed;
//   - serve-mix: open loop on a seeded Poisson schedule against an
//     in-process service.Manager behind a loopback HTTP listener, the path
//     cmd/yashme-serve takes, mixing cache hits with cold jobs.
//
// Every op's verdict is checked against the paper's race counts. The last
// line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones (BENCHMARK.json
// end_to_end); with --trace 1 the run is split across the layers and the
// per-layer metrics are reported instead, and the spans are written to
// --trace-dir when the run ends. See NOTES.md for definitions.
//
// Usage (from the repository root, through the wrapper that builds it):
//
//	bash perfbench/run.sh --workload table3-sweep --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"
)

// measuredProcs is the GOMAXPROCS the workloads run at. With two Ps, the
// GC's idle mark workers and spinning threads add CPU time that depends
// on timing: the same Table 3 sweep used 24-31 ms of CPU per op across
// five 20-s runs, and 20.0-21.7 ms across four 8-s runs with one P. One
// P also makes CPU time and wall time agree on an idle host.
const measuredProcs = 1

// procStart approximates process start: the first set-up is timed from it.
var procStart = time.Now()

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	window   time.Duration
	traced   bool
	traceDir string
	// expect overrides the paper's counts (tests inject wrong ones).
	expect map[string]int
}

// outcome is what a workload run reports.
type outcome struct {
	attempted, failed int
	// invalid, when non-empty, says why the measurement cannot be trusted
	// (the open-loop generator fell behind its schedule).
	invalid string
	metrics map[string]metric
	// notes are printed with the summary: wall-clock figures that are
	// not reported metrics.
	notes []string
	// raw is metrics before the host-speed adjustment, and probeMs and
	// setupProbeMs the median probe times it used (see host.go); raw is
	// nil on traced runs.
	raw                   map[string]metric
	probeMs, setupProbeMs float64
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (o *outcome) set(name string, value float64, unit string) {
	if o.metrics == nil {
		o.metrics = make(map[string]metric)
	}
	o.metrics[name] = metric{Value: value, Unit: unit}
}

var workloads = map[string]func(config) (*outcome, error){
	"table3-sweep":  func(c config) (*outcome, error) { return runBatch(c, batchTable3) },
	"table4-random": func(c config) (*outcome, error) { return runBatch(c, batchTable4) },
	"serve-mix":     runServe,
}

func main() { os.Exit(run()) }

// run runs one invocation and returns the exit code.
func run() int {
	var c config
	var seconds, trace int
	flag.StringVar(&c.workload, "workload", "", "table3-sweep, table4-random or serve-mix")
	flag.Int64Var(&c.seed, "seed", 1, "workload seed: op order, engine seeds, arrival times, request mix")
	flag.IntVar(&seconds, "seconds", 20, "length of the measured window")
	flag.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.StringVar(&c.traceDir, "trace-dir", ".bench_build/spans", "where a traced run writes its spans")
	flag.Parse()
	c.window = time.Duration(seconds) * time.Second
	c.traced = trace == 1

	work, ok := workloads[c.workload]
	if !ok || seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", c.workload, seconds, trace)
		return 2
	}
	runtime.GOMAXPROCS(measuredProcs)
	out, err := work(c)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", c.workload, err)
		return 1
	}
	defs := endToEnd
	if c.traced {
		defs = perLayer
	}
	if err := out.complete(defs); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", c.workload, err)
		return 1
	}
	if out.invalid != "" {
		fmt.Fprintf(os.Stderr, "perfbench: %s: run invalid: %s\n", c.workload, out.invalid)
	}
	summarize(c, out)
	if out.raw != nil {
		// The measured values before the host-speed adjustment, on the
		// line before the result.
		line, err := json.Marshal(struct {
			Unadjusted   map[string]metric `json:"unadjusted"`
			SetupProbeMs float64           `json:"setup_probe_ms"`
			ProbeMs      float64           `json:"probe_ms"`
		}{out.raw, out.setupProbeMs, out.probeMs})
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: encode result: %v\n", err)
			return 1
		}
		fmt.Println(string(line))
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{out.failed == 0 && out.invalid == "" && out.attempted > 0, out.attempted, out.failed, out.metrics})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: encode result: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// summarize prints the run's metrics for a human reader, one per line, to
// standard error.
func summarize(c config, o *outcome) {
	frac := 0.0
	if o.attempted > 0 {
		frac = float64(o.failed) / float64(o.attempted)
	}
	fmt.Fprintf(os.Stderr, "%s seed=%d window=%v traced=%v GOMAXPROCS=%d NumCPU=%d attempted=%d failed=%d fail_frac=%.4f probe_ms=%.4f setup_probe_ms=%.4f\n",
		c.workload, c.seed, c.window, c.traced, runtime.GOMAXPROCS(0), runtime.NumCPU(), o.attempted, o.failed, frac, o.probeMs, o.setupProbeMs)
	for _, n := range o.notes {
		fmt.Fprintf(os.Stderr, "  %s\n", n)
	}
	names := make([]string, 0, len(o.metrics))
	for n := range o.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(os.Stderr, "  %-28s %14.4f %-6s", n, o.metrics[n].Value, o.metrics[n].Unit)
		if r, ok := o.raw[n]; ok && r != o.metrics[n] {
			fmt.Fprintf(os.Stderr, " (unadjusted %.4f)", r.Value)
		}
		fmt.Fprintln(os.Stderr)
	}
}
