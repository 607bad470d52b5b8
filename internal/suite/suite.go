// Package suite runs fleets of registered workloads (internal/workload)
// and produces one machine-readable Result. It is the orchestration layer
// the paper's evaluation tables are generated from — but unlike the old
// per-table driver loops it runs benchmarks concurrently under a shared
// worker budget, supports deterministic sharding across processes or CI
// jobs, and emits every race, stat and per-benchmark runtime exactly once;
// internal/tables only renders what a Result already holds.
//
// Three invariants make the layer safe to parallelize and shard:
//
//   - determinism: every run of a benchmark is an engine.Run, whose Result
//     is byte-identical for every worker count, so a suite Result —
//     wall-clock fields aside, which Canonical zeroes — does not depend on
//     whether benchmarks ran sequentially or concurrently;
//   - budget: all engine runs of a suite share one engine.Budget, so
//     suite-level × scenario-level parallelism keeps the total in-flight
//     simulations at Config.Workers (default GOMAXPROCS) instead of
//     multiplying;
//   - sharding: a spec's shard is a pure function of its name, so shard
//     i/n runs a fixed subset and the union of all n shards' Canonical
//     results is byte-identical to an unsharded run (Merge reassembles
//     paper order).
package suite

import (
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"strconv"
	"strings"
	"sync"
	"time"

	"yashme/internal/engine"
	"yashme/internal/report"
	"yashme/internal/workload"

	// Importing suite links every built-in benchmark's registration.
	_ "yashme/internal/workload/all"
)

// Variant groups selectable through Config.Variants. Which runs a
// benchmark actually gets is the intersection of the selected groups with
// the benchmark's tags: "races" covers the Table 3/4 primary sweeps,
// "table5" the three single-execution runs per Table 5 row, "benign" the
// §7.5 capped model-check run, "window" the baseline histogram run of the
// detection-window figure.
const (
	VariantRaces  = "races"
	VariantTable5 = "table5"
	VariantBenign = "benign"
	VariantWindow = "window"
)

// variantGroups is every group in canonical order.
var variantGroups = []string{VariantRaces, VariantTable5, VariantBenign, VariantWindow}

// Per-run variant names as they appear in Result (the table5 group fans
// out into three runs).
const (
	RunRaces          = "races"
	RunTable5Prefix   = "table5-prefix"
	RunTable5Baseline = "table5-baseline"
	RunTable5Jaaru    = "table5-jaaru"
	RunBenign         = "benign"
	RunWindow         = "window-baseline"
)

// Config selects and configures a suite run. The zero value runs every
// registered workload through every variant group on a GOMAXPROCS-sized
// shared worker budget with the engine's default fast paths.
type Config struct {
	// Specs is the workload list (nil = the full registry, paper order).
	// Ad-hoc specs — script-file programs, test programs — can be run by
	// listing them here without registering.
	Specs []workload.Spec
	// Tags keeps only specs carrying at least one of these tags (nil =
	// all).
	Tags []string
	// Names keeps only specs with these exact names (nil = all). Applied
	// after Tags.
	Names []string
	// Variants selects the variant groups to run (nil = all; see the
	// Variant constants).
	Variants []string
	// Shard/ShardCount select a deterministic 1-based shard: a spec is
	// assigned by a hash of its name alone, so assignments never move when
	// other specs come or go, and the union of all shards equals the
	// unsharded run. ShardCount <= 1 disables sharding.
	Shard, ShardCount int
	// Workers is the shared scenario-worker budget for the whole suite
	// (0 = GOMAXPROCS): every engine run draws from one engine.Budget of
	// this size, so concurrent benchmarks never oversubscribe the machine.
	Workers int
	// Budget, when non-nil, is an externally owned worker budget the suite
	// draws from instead of creating its own — the mechanism a layer above
	// (the job service, internal/service) uses to share one machine-wide
	// semaphore across several concurrent suite runs, so suite × job
	// parallelism never oversubscribes GOMAXPROCS either. Workers is
	// ignored when set; Summary.Workers echoes the budget's size.
	Budget *engine.Budget
	// Seed, when non-zero, replaces every run's scheduler/crash-point seed
	// (the paper's per-variant seeds otherwise: 1 for the Table 4 sweeps,
	// the spec's Table5Seed for Table 5). Model-checked runs are seed-
	// insensitive by construction (one deterministic schedule), so this is
	// the random-mode reproducibility knob — and part of a detection job's
	// cache identity in internal/service.
	Seed int64
	// Reference runs every engine run in the reference configuration, with
	// every fast path off (see engine.Options.Reference). Results are
	// identical; only the cost counters differ.
	Reference bool
	// Analyses selects the analysis passes every engine run executes (nil =
	// the engine default, yashme alone). The first selected pass is primary:
	// each RunResult's top-level Races/RaceCount are its report, and when
	// more than one pass runs, RunResult.Analyses carries the per-pass
	// breakdown.
	Analyses []string
	// Sequential runs benchmarks one at a time instead of concurrently.
	// Results are identical (the determinism tests prove it); wall-clock
	// fields are the only observable difference, so use it when per-run
	// timings must not overlap (the paper's Table 5 runtime columns).
	Sequential bool
}

// Summary echoes the configuration a Result was produced under.
type Summary struct {
	Workers  int      `json:"workers"`
	Shard    string   `json:"shard,omitempty"`
	Tags     []string `json:"tags,omitempty"`
	Names    []string `json:"names,omitempty"`
	Variants []string `json:"variants"`
	Analyses []string `json:"analyses,omitempty"`
	Seed     int64    `json:"seed,omitempty"`
}

// AnalysisResult is one analysis pass's deduplicated report within a run
// (only emitted when a run executes more than one pass; the primary pass's
// report is also the RunResult's top-level Races/RaceCount).
type AnalysisResult struct {
	Name      string        `json:"name"`
	Races     []report.Race `json:"races,omitempty"`
	Benign    []report.Race `json:"benign,omitempty"`
	RaceCount int           `json:"race_count"`
}

// RunResult is the outcome of one engine run of one benchmark.
type RunResult struct {
	// Variant names the run (see the Run constants).
	Variant string `json:"variant"`
	// Races and Benign are the deduplicated reports in the report set's
	// stable (benchmark, field) order.
	Races  []report.Race `json:"races"`
	Benign []report.Race `json:"benign,omitempty"`
	// RaceCount is len(Races), denormalized for cheap consumers
	// (cmd/benchguard's canary reads it without touching the race rows).
	RaceCount int `json:"race_count"`
	// Analyses is the per-pass breakdown when the run executed more than
	// one analysis pass (Config.Analyses), in pass order; empty on
	// single-pass runs, whose report IS the top-level Races.
	Analyses    []AnalysisResult   `json:"analyses,omitempty"`
	Executions  int                `json:"executions"`
	CrashPoints int                `json:"crash_points"`
	Stats       engine.Stats       `json:"stats"`
	Window      []engine.PointStat `json:"window,omitempty"`
	// ElapsedNs is the run's wall-clock time. It is the one
	// non-deterministic field of a Result; Canonical zeroes it.
	ElapsedNs int64 `json:"elapsed_ns"`
	// Cancelled marks a run the context cut short: the reports and stats
	// are a well-formed partial result (every merged scenario completed)
	// but unexplored crash points were skipped. Never set on runs that
	// completed, so the field is invisible in their JSON.
	Cancelled bool `json:"cancelled,omitempty"`
}

// Analysis returns the run's per-pass result for a named pass, or nil —
// including on single-pass runs, where the top-level Races are the only
// report.
func (r *RunResult) Analysis(name string) *AnalysisResult {
	for i := range r.Analyses {
		if r.Analyses[i].Name == name {
			return &r.Analyses[i]
		}
	}
	return nil
}

// Bench is every run of one benchmark.
type Bench struct {
	Name       string      `json:"name"`
	Order      int         `json:"order"`
	ModelCheck bool        `json:"model_check"`
	Tags       []string    `json:"tags,omitempty"`
	Runs       []RunResult `json:"runs"`
}

// HasTag reports whether the bench's workload carries the tag.
func (b *Bench) HasTag(tag string) bool {
	for _, t := range b.Tags {
		if t == tag {
			return true
		}
	}
	return false
}

// Run returns the bench's run for a variant, or nil if it wasn't part of
// the suite's selection.
func (b *Bench) Run(variant string) *RunResult {
	for i := range b.Runs {
		if b.Runs[i].Variant == variant {
			return &b.Runs[i]
		}
	}
	return nil
}

// Result is the unified outcome of a suite run: one Bench per selected
// workload, in paper order.
type Result struct {
	Config     Summary `json:"config"`
	Benchmarks []Bench `json:"benchmarks"`
	// Cancelled marks a suite run its context cut short: some runs may be
	// partial (their own Cancelled is set) or missing entirely. Absent
	// from the JSON of completed runs.
	Cancelled bool `json:"cancelled,omitempty"`
}

// Bench returns the named benchmark's results, or nil if it wasn't part
// of the suite's selection (wrong tags, or another shard's).
func (r *Result) Bench(name string) *Bench {
	for i := range r.Benchmarks {
		if r.Benchmarks[i].Name == name {
			return &r.Benchmarks[i]
		}
	}
	return nil
}

// TotalRaces sums RaceCount over one variant's runs across all
// benchmarks.
func (r *Result) TotalRaces(variant string) int {
	n := 0
	for i := range r.Benchmarks {
		if run := r.Benchmarks[i].Run(variant); run != nil {
			n += run.RaceCount
		}
	}
	return n
}

// TotalStats sums the operation stats over every run of the result.
func (r *Result) TotalStats() engine.Stats {
	var s engine.Stats
	for _, b := range r.Benchmarks {
		for _, run := range b.Runs {
			s.Add(run.Stats)
		}
	}
	return s
}

// Canonical returns a copy with every wall-clock field zeroed: the
// deterministic identity of the result. Two runs of the same Config —
// sequential or concurrent, sharded (after Merge) or not — have
// byte-identical Canonical JSON.
func (r *Result) Canonical() *Result {
	c := &Result{Config: r.Config, Benchmarks: make([]Bench, len(r.Benchmarks)), Cancelled: r.Cancelled}
	for i, b := range r.Benchmarks {
		nb := b
		nb.Runs = make([]RunResult, len(b.Runs))
		for j, run := range b.Runs {
			run.ElapsedNs = 0
			nb.Runs[j] = run
		}
		c.Benchmarks[i] = nb
	}
	return c
}

// JSON renders the result as indented JSON (the CLIs' -json output).
func (r *Result) JSON() ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}

// ParseShard parses a -shard flag value "i/n" (1 <= i <= n). The empty
// string means unsharded.
func ParseShard(s string) (shard, count int, err error) {
	if s == "" {
		return 0, 0, nil
	}
	i := strings.IndexByte(s, '/')
	if i < 0 {
		return 0, 0, fmt.Errorf("shard %q: want i/n", s)
	}
	shard, err1 := strconv.Atoi(s[:i])
	count, err2 := strconv.Atoi(s[i+1:])
	if err1 != nil || err2 != nil || count < 1 || shard < 1 || shard > count {
		return 0, 0, fmt.Errorf("shard %q: want i/n with 1 <= i <= n", s)
	}
	return shard, count, nil
}

// shardOf assigns a spec name to one of n shards (0-based) by name alone,
// so the assignment is stable no matter which other specs are selected.
func shardOf(name string, n int) int {
	h := fnv.New32a()
	h.Write([]byte(name))
	return int(h.Sum32() % uint32(n))
}

// selected applies the Config's Tags, Names and shard filters to its spec
// list, preserving paper order.
func (cfg Config) selected() []workload.Spec {
	specs := cfg.Specs
	if specs == nil {
		specs = workload.All()
	}
	if cfg.ShardCount > 1 && (cfg.Shard < 1 || cfg.Shard > cfg.ShardCount) {
		panic(fmt.Sprintf("suite: shard %d/%d out of range", cfg.Shard, cfg.ShardCount))
	}
	var names map[string]bool
	if len(cfg.Names) > 0 {
		names = make(map[string]bool, len(cfg.Names))
		for _, n := range cfg.Names {
			names[n] = true
		}
	}
	var out []workload.Spec
	for _, s := range specs {
		if !s.HasAnyTag(cfg.Tags) {
			continue
		}
		if names != nil && !names[s.Name] {
			continue
		}
		if cfg.ShardCount > 1 && shardOf(s.Name, cfg.ShardCount) != cfg.Shard-1 {
			continue
		}
		out = append(out, s)
	}
	return out
}

// variants resolves the selected variant groups (nil = all) into
// canonical order.
func (cfg Config) variants() []string {
	if len(cfg.Variants) == 0 {
		return append([]string(nil), variantGroups...)
	}
	want := make(map[string]bool, len(cfg.Variants))
	for _, v := range cfg.Variants {
		want[v] = true
	}
	var out []string
	for _, v := range variantGroups {
		if want[v] {
			out = append(out, v)
		}
	}
	return out
}

// job is one planned engine run of one benchmark.
type job struct {
	variant string
	opts    engine.Options
}

// jobsFor derives a spec's runs from its tags and the selected variant
// groups, in fixed variant order. The options mirror the paper's
// configurations exactly (formerly hardcoded per table in
// internal/tables).
func jobsFor(spec workload.Spec, groups []string) []job {
	on := make(map[string]bool, len(groups))
	for _, g := range groups {
		on[g] = true
	}
	var jobs []job
	if on[VariantRaces] {
		switch {
		case spec.HasTag(workload.TagTable3):
			// Table 3: systematic model checking (§7.1).
			jobs = append(jobs, job{RunRaces, engine.Options{Mode: engine.ModelCheck, Prefix: true}})
		case spec.HasTag(workload.TagTable4):
			// Table 4: 40 seeded random executions (§7.1).
			jobs = append(jobs, job{RunRaces, engine.Options{Mode: engine.RandomMode, Prefix: true, Seed: 1, Executions: 40}})
		}
	}
	if on[VariantTable5] && spec.HasTag(workload.TagTable5) {
		// Table 5: one random execution per variant (§7.3).
		base := engine.Options{Mode: engine.RandomMode, Seed: spec.Table5Seed, Executions: 1}
		prefix, baseline, jaaru := base, base, base
		prefix.Prefix = true
		jaaru.Prefix = true
		jaaru.DetectorOff = true
		jobs = append(jobs,
			job{RunTable5Prefix, prefix},
			job{RunTable5Baseline, baseline},
			job{RunTable5Jaaru, jaaru})
	}
	if on[VariantBenign] && spec.HasTag(workload.TagBenign) {
		// §7.5: model-check the checksum-using frameworks, capped.
		jobs = append(jobs, job{RunBenign, engine.Options{Mode: engine.ModelCheck, Prefix: true, MaxCrashPoints: spec.BenignCrashPoints}})
	}
	if on[VariantWindow] && spec.HasTag(workload.TagWindow) {
		// Detection-window histogram baseline (the prefix histogram comes
		// from the races run's Window).
		jobs = append(jobs, job{RunWindow, engine.Options{Mode: engine.ModelCheck, Prefix: false}})
	}
	return jobs
}

// RunContext executes the configured suite: the selected benchmarks run
// concurrently (unless Config.Sequential), every engine run drawing from
// one shared worker budget, and the per-benchmark results are assembled
// in paper order regardless of completion order. Cancellation of ctx (or
// deadline expiry) is honored at the engine's scenario boundaries: runs
// already simulating finish their in-flight scenarios and merge what
// completed, jobs not yet started are skipped, and the Result comes back
// promptly with Cancelled set on itself and on every cut-short run. A partial Result is
// well-formed — its Canonical JSON is a valid (if truncated) suite result
// — but only complete runs are byte-comparable across invocations.
func RunContext(ctx context.Context, cfg Config) *Result {
	specs := cfg.selected()
	groups := cfg.variants()
	budget := cfg.Budget
	if budget == nil {
		budget = engine.NewBudget(cfg.Workers)
	}

	res := &Result{
		Config: Summary{
			Workers:  budget.Size(),
			Tags:     cfg.Tags,
			Names:    cfg.Names,
			Variants: groups,
			Analyses: cfg.Analyses,
			Seed:     cfg.Seed,
		},
		Benchmarks: make([]Bench, len(specs)),
	}
	if cfg.ShardCount > 1 {
		res.Config.Shard = fmt.Sprintf("%d/%d", cfg.Shard, cfg.ShardCount)
	}

	runBench := func(i int, spec workload.Spec) {
		bench := Bench{Name: spec.Name, Order: spec.Order, ModelCheck: spec.ModelCheck, Tags: spec.Tags}
		defer func() { res.Benchmarks[i] = bench }()
		for _, j := range jobsFor(spec, groups) {
			if ctx.Err() != nil {
				return
			}
			opts := j.opts
			opts.Workers = budget.Size()
			opts.Reference = cfg.Reference
			opts.Analyses = cfg.Analyses
			opts.Budget = budget
			if cfg.Seed != 0 {
				opts.Seed = cfg.Seed
			}
			start := time.Now()
			er := engine.RunContext(ctx, spec.Make, opts)
			run := RunResult{
				Variant:     j.variant,
				Races:       er.Report.Races(),
				Benign:      er.Report.Benign(),
				RaceCount:   er.Report.Count(),
				Executions:  er.ExecutionsRun,
				CrashPoints: er.CrashPoints,
				Stats:       er.Stats,
				Window:      er.Window,
				ElapsedNs:   time.Since(start).Nanoseconds(),
				Cancelled:   er.Cancelled,
			}
			if len(er.Passes) > 1 {
				run.Analyses = make([]AnalysisResult, len(er.Passes))
				for k, p := range er.Passes {
					run.Analyses[k] = AnalysisResult{
						Name:      p.Name,
						Races:     p.Report.Races(),
						Benign:    p.Report.Benign(),
						RaceCount: p.Report.Count(),
					}
				}
			}
			bench.Runs = append(bench.Runs, run)
		}
	}

	if cfg.Sequential {
		for i, spec := range specs {
			runBench(i, spec)
		}
		if ctx.Err() != nil {
			res.Cancelled = true
		}
		return res
	}
	// Workload panics are re-raised on the caller after every benchmark
	// goroutine has drained, lowest spec index first — the same
	// deterministic precedence the engine's own worker pool applies.
	panics := make([]any, len(specs))
	var wg sync.WaitGroup
	for i, spec := range specs {
		i, spec := i, spec
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { panics[i] = recover() }()
			runBench(i, spec)
		}()
	}
	wg.Wait()
	for _, p := range panics {
		if p != nil {
			panic(p)
		}
	}
	if ctx.Err() != nil {
		res.Cancelled = true
	}
	return res
}
