// Package engine implements the model-checking / random-execution
// infrastructure Yashme runs on (the paper's Jaaru substrate, §6
// "Implementation").
//
// The engine executes a pmm.Program under a controlled scheduler on a
// simulated x86-TSO machine (internal/tso), injects a crash before a chosen
// cache-flush or fence operation, derives the persisted memory image the
// crash leaves behind, and runs the program's recovery procedure against it.
// Post-crash loads are resolved Jaaru-style: for every address the engine
// computes the set of candidate pre-crash stores the load could read from —
// anything between the line's last guaranteed flush and the crash, because
// the cache line may have been written back at any moment in between — and
// the Yashme detector checks every candidate for a persistency race
// (Load_NonAtomic) while the engine commits one candidate per cache line as
// the actual value.
//
// Two modes mirror the paper: ModelCheck systematically injects a crash
// before every clflush/clwb/fence point of a fixed schedule; RandomMode runs
// seeded random schedules with a crash before one random fence point each.
package engine

import (
	"context"
	"fmt"
	"runtime"

	"yashme/internal/analysis"
	"yashme/internal/pmm"
	"yashme/internal/report"
)

// Mode selects how executions and crash points are explored (paper §4:
// "Yashme has two modes of operation").
type Mode int

const (
	// ModelCheck injects a crash before every flush/fence point of a
	// deterministic schedule (paper: "systematically injects crashes before
	// every clflush or fence operation").
	ModelCheck Mode = iota
	// RandomMode runs randomly scheduled executions, each crashing before
	// one randomly chosen flush/fence point; for programs too large to
	// model check (PMDK, Redis, Memcached in the paper).
	RandomMode
)

func (m Mode) String() string {
	if m == ModelCheck {
		return "model-check"
	}
	return "random"
}

// PersistPolicy decides, per cache line, where between the guaranteed flush
// bound and the crash the line's persist point falls — i.e. which candidate
// values the post-crash execution actually observes.
type PersistPolicy int

const (
	// PersistLatest assumes every committed store reached persistence (the
	// most optimistic image; recovery sees final values).
	PersistLatest PersistPolicy = iota
	// PersistMinimal assumes only explicitly flushed data persisted (the
	// most pessimistic image; recovery sees the guaranteed state).
	PersistMinimal
	// PersistRandom picks a random persist point per line (seeded).
	PersistRandom
)

// DefaultMaxOps is the Options.MaxOps applied when the field is zero: the
// per-execution simulated-operation bound that turns a runaway workload
// (typically an unbounded spin loop) into a diagnostic panic instead of a
// hang.
const DefaultMaxOps = 2_000_000

// Options configures a run.
type Options struct {
	// Mode selects ModelCheck or RandomMode.
	Mode Mode
	// Prefix enables the prefix-based detection-window expansion (§4.2);
	// disabling it gives the Table 5 baseline.
	Prefix bool
	// Benchmark names the program in race reports; defaults to the
	// program's Name.
	Benchmark string
	// Seed seeds the scheduler and persist-point randomness.
	Seed int64
	// Executions is the number of random executions in RandomMode
	// (default 20; the paper lets users pick per program size).
	Executions int
	// MaxCrashPoints caps the crash points explored per execution in
	// ModelCheck (0 = all).
	MaxCrashPoints int
	// Schedules is the number of distinct thread schedules explored in
	// ModelCheck (default 1 — the paper's Yashme "controls multithreaded
	// scheduling to regenerate the same execution" and "does not
	// exhaustively explore the space of schedules"; raising this trades
	// time for schedule coverage).
	Schedules int
	// CandidateLimit caps how many candidate stores are race-checked per
	// post-crash load (newest first); 0 checks all. Checking every
	// candidate is what lets Yashme catch races in values the load did NOT
	// actually observe — the ablation knob quantifies that design choice.
	CandidateLimit int
	// ExploreReads enables Jaaru-style read-choice exploration in
	// ModelCheck: for every crash point, after the policy runs, one extra
	// scenario is run per (cache line, candidate persist point) pair — the
	// post-crash execution observes each value the line could have held.
	// Capped at 24 extra scenarios per crash point (readChoiceCap).
	ExploreReads bool
	// Workers is the number of crash scenarios executed concurrently
	// (0 = runtime.GOMAXPROCS(0); 1 = fully sequential). Results are
	// byte-identical for every worker count: scenarios are isolated and
	// merged in plan order. With Workers > 1, makeProg and the program's
	// callbacks must be safe for concurrent use — the recovery closures of
	// one program instance run in several scenarios at once — and programs
	// that record observations through shared captured variables should
	// set Workers to 1.
	Workers int
	// PersistPolicies are the image policies explored per crash point in
	// ModelCheck (default: latest then minimal). RandomMode always uses
	// PersistRandom.
	PersistPolicies []PersistPolicy
	// TornValues synthesizes mixed old/new values for loads that observe a
	// racing store (the paper's store-tearing symptom, Figure 1). Off by
	// default so recovery code sees real committed values.
	TornValues bool
	// RecoveryCrashes additionally injects crashes inside the recovery
	// execution (multi-crash scenarios, §6 exec stack), exploring up to
	// this many recovery crash points per pre-crash point. 0 disables.
	RecoveryCrashes int
	// DetectorOff runs the bare infrastructure without race checks — the
	// paper's "Jaaru time" column in Table 5.
	DetectorOff bool
	// Trace records every execution's commit-order event log and attaches a
	// race witness (the race-revealing pre-crash prefix plus the post-crash
	// observation, §5.1) to each report.
	Trace bool
	// Reference runs the reference configuration every fast path is
	// validated against: no pre-crash snapshots (every crash scenario
	// re-simulates its prefix from scratch), no crash-image memoization, no
	// solo-thread direct-run lease (every operation pays the scheduler
	// handshake) and owned clocks (one private clock copy per committed
	// store, no epoch fast path). Results are byte-identical to the default
	// configuration; only the Stats cost counters differ (see
	// Stats.ZeroCost). Slow by design: tests and the "reference" bench mode
	// use it.
	Reference bool
	// MaxOps bounds the simulated operations of one execution (0 =
	// DefaultMaxOps); exceeding it panics with a diagnostic.
	MaxOps int
	// Budget, when non-nil, is a worker budget shared with other
	// concurrent Runs: probe runs and crash-scenario groups acquire a
	// token for the duration of their simulation, so the total in-flight
	// simulations across every Run sharing the budget never exceeds its
	// size (see Budget). nil is unlimited; results are identical either
	// way — the budget only sequences work, it never reorders the merge.
	Budget *Budget
	// EADR detects only the races possible on eADR platforms, where the
	// cache is in the persistence domain (§7.5). The persisted image is the
	// full committed state (flushing is a no-op for durability).
	EADR bool
	// Suppress lists field labels whose races are annotated away (§7.5).
	Suppress []string
	// Analyses selects the analysis passes to run over the simulation, by
	// name ("yashme", "xfd"; internal/analysis), in order. Every pass
	// observes the same event stream and crash scenarios; each gets its own
	// report in Result.Passes. Empty selects the default, {"yashme"}. The first
	// selected pass is the primary: Result.Report aliases its report.
	Analyses []string
}

func (o Options) withDefaults() Options {
	if o.Executions <= 0 {
		o.Executions = 20
	}
	if o.Schedules <= 0 {
		o.Schedules = 1
	}
	if len(o.PersistPolicies) == 0 {
		o.PersistPolicies = []PersistPolicy{PersistLatest, PersistMinimal}
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.MaxOps <= 0 {
		o.MaxOps = DefaultMaxOps
	}
	if len(o.Analyses) == 0 {
		o.Analyses = []string{analysis.Yashme}
	}
	return o
}

// Stats aggregates operation counts across all executions of a run.
//
// The per-kind counters (Stores..RMWs) count the operations each crash
// scenario's executions performed, whether those operations were simulated or
// inherited from a snapshot. They describe the workload, so they are
// identical in the default and the Reference configuration. The remaining
// counters are cost counters: they measure how the work was done (how many
// operations were stepped, how they reached the scheduler, what the
// checkpoint, memoization and clock layers did) and differ between the two
// configurations. ZeroCost clears them.
//
// Handoffs and DirectOps split SimulatedOps by how each operation reached
// the scheduler: Handoffs paid the full handshake (two channel round trips
// plus a goroutine switch), DirectOps ran inline under a solo-thread
// direct-run lease. Handoffs + DirectOps == SimulatedOps always.
type Stats struct {
	Stores  int64 `json:"stores"`
	Loads   int64 `json:"loads"`
	Flushes int64 `json:"flushes"`
	Fences  int64 `json:"fences"`
	RMWs    int64 `json:"rmws"`
	// SimulatedOps is the number of operations actually simulated (stepped
	// through the scheduler), across probes and scenarios.
	SimulatedOps int64 `json:"simulated_ops"`
	// Handoffs counts simulated operations that paid the scheduler
	// handshake.
	Handoffs int64 `json:"handoffs"`
	// DirectOps counts simulated operations that ran under a direct-run
	// lease, with no handoff.
	DirectOps int64 `json:"direct_ops"`
	// SnapshotBytes estimates the bytes copied to put scenarios at crash
	// points: each model-check point's private copies of the detector (its
	// store records included), the xfd detector and the image. Every
	// scenario of a point resumes from that one copy, recovery-crash
	// follow-ups included, so nothing else is counted. The scheduler rng is
	// never copied: a snapshot holds its position. A random-mode handover
	// moves the probe's own state, so it counts nothing here.
	SnapshotBytes int64 `json:"snapshot_bytes"`
	// JournalOps counts the detector mutations model-check probes recorded
	// into their undo journals, which their backward walks then undo.
	// Random mode's journal, which rewinds a probe to one drawn crash
	// point, is not counted.
	JournalOps int64 `json:"journal_ops"`
	// DedupedScenarios counts crash scenarios whose recovery verdict was
	// reused from a byte-identical earlier crash point instead of being
	// re-simulated.
	DedupedScenarios int64 `json:"deduped_scenarios"`
	// ClockInterned counts clock snapshots appended to detector clock
	// arenas: distinct deduplicated snapshots by default, one per
	// materialized clock copy with owned clocks (Reference).
	ClockInterned int64 `json:"clock_interned"`
	// EpochHits counts clock joins answered entirely by the packed-epoch
	// containment compare — the joins the interned representation skips.
	// Zero in the Reference configuration (owned clocks have no epoch
	// fast path).
	EpochHits int64 `json:"epoch_hits"`
	// EpochMisses counts clock joins that fell through the epoch compare
	// to a component-wise merge and re-intern.
	EpochMisses int64 `json:"epoch_misses"`
}

// ZeroCost clears the cost counters, leaving the per-kind operation
// counts: what remains is equal between the default and the Reference
// configuration, and between any two runs that explored the same
// scenarios however they got there.
func (s *Stats) ZeroCost() {
	s.SimulatedOps, s.Handoffs, s.DirectOps = 0, 0, 0
	s.SnapshotBytes, s.JournalOps, s.DedupedScenarios = 0, 0, 0
	s.ClockInterned, s.EpochHits, s.EpochMisses = 0, 0, 0
}

// Add accumulates o's counters into s.
func (s *Stats) Add(o Stats) {
	s.Stores += o.Stores
	s.Loads += o.Loads
	s.Flushes += o.Flushes
	s.Fences += o.Fences
	s.RMWs += o.RMWs
	s.SimulatedOps += o.SimulatedOps
	s.Handoffs += o.Handoffs
	s.DirectOps += o.DirectOps
	s.SnapshotBytes += o.SnapshotBytes
	s.JournalOps += o.JournalOps
	s.DedupedScenarios += o.DedupedScenarios
	s.ClockInterned += o.ClockInterned
	s.EpochHits += o.EpochHits
	s.EpochMisses += o.EpochMisses
}

// PointStat records how many distinct races the scenarios crashing before
// one particular flush/fence point revealed. The histogram quantifies the
// paper's detection-window discussion (Figures 5 and 6): with the prefix
// expansion, most crash points reveal the races; without it, only the
// narrow window between a store and its flush does.
type PointStat struct {
	// Point is the 1-based crash point (0 = crash at completion).
	Point int `json:"point"`
	// Races is the number of deduplicated races found by scenarios that
	// crashed before this point (max across persist policies).
	Races int `json:"races"`
}

// PassResult is one analysis pass's outcome within a Result: the pass's
// name and its deduplicated race reports, merged across every scenario of
// the run in spec order.
type PassResult struct {
	// Name is the pass's name ("yashme" or "xfd").
	Name string
	// Report holds the pass's deduplicated races (and benign races).
	Report *report.Set
}

// Result is the outcome of a Run.
type Result struct {
	// Report holds the primary pass's deduplicated persistency races (and
	// benign races). It aliases Passes[0].Report — the first selected
	// analysis — so single-pass callers never touch Passes.
	Report *report.Set
	// Passes holds each selected analysis pass's report, in Options.Analyses
	// order.
	Passes []PassResult
	// ExecutionsRun counts complete pre-crash+post-crash scenario runs.
	ExecutionsRun int
	// CrashPoints is the number of flush/fence crash points in the probed
	// schedule (ModelCheck) or the sum over random executions (RandomMode).
	CrashPoints int
	// Stats aggregates memory-operation counts.
	Stats Stats
	// Window is the per-crash-point race histogram (ModelCheck only).
	Window []PointStat
	// Cancelled reports that the run's context was done before exploration
	// completed: the Result is a well-formed partial result — every merged
	// scenario ran to completion and reports/stats are internally
	// consistent, but unexplored crash points were skipped, so races may be
	// missing. Always false for Run (background context).
	Cancelled bool
}

// newResult builds an empty Result shaped for the run's analysis selection
// (opts must already carry defaults).
func newResult(opts Options) *Result {
	res := &Result{Passes: make([]PassResult, len(opts.Analyses))}
	for i, name := range opts.Analyses {
		res.Passes[i] = PassResult{Name: name, Report: report.NewSet()}
	}
	res.Report = res.Passes[0].Report
	return res
}

// Run explores a program per the options and returns the merged reports.
// makeProg must return a fresh program instance per call. The engine calls
// it for every probe run and, outside the Reference configuration, once
// more for the run's recovery program: its Setup runs, its Workers never
// do, and every scenario resumed from a checkpoint recovers with it,
// concurrently across workers. The Reference configuration calls it for
// every crash scenario instead. So recovery code must reach the heap only
// through its thread (pmm.Thread.Heap), read only the Go state Setup
// built and write none (DESIGN.md §4.1). With Options.Workers > 1 (the
// default follows GOMAXPROCS) makeProg is called from several goroutines
// concurrently. Exploration is layered — plan, execute, merge (see
// explore.go) — and the Result is byte-identical for every worker count.
func Run(makeProg func() pmm.Program, opts Options) *Result {
	return RunContext(context.Background(), makeProg, opts)
}

// RunContext is Run under a cancellation context: the context is checked
// at scenario and checkpoint-resume boundaries — before each probe run,
// before each crash scenario is simulated or resumed, and between the
// read-choice and recovery-crash expansions of a scenario group — so a
// cancel or deadline stops the run within one scenario's worth of work.
// A scenario that already started always runs to completion (partial
// simulations would leave ill-formed detector state), and everything
// merged before the cancellation is kept: the Result is a well-formed
// partial result with Cancelled set. With a background context the
// behavior — and the Result, byte for byte — is identical to Run.
func RunContext(ctx context.Context, makeProg func() pmm.Program, opts Options) *Result {
	opts = opts.withDefaults()
	if opts.Mode != ModelCheck && opts.Mode != RandomMode {
		panic(fmt.Sprintf("engine: unknown mode %d", opts.Mode))
	}
	res := newResult(opts)
	runExplore(ctx, makeProg, opts, res)
	if ctx.Err() != nil {
		res.Cancelled = true
	}
	return res
}

// RunOne executes exactly one scenario: the workload runs to the given
// crash point (0 = completion) under the persist policy and scheduler seed,
// then recovery runs once. Used for functional verification and for the
// paper's single-execution comparisons (Table 5).
func RunOne(makeProg func() pmm.Program, opts Options, crashPoint int, pp PersistPolicy, seed int64) *Result {
	opts = opts.withDefaults()
	res := newResult(opts)
	sc := newScenario(makeProg, opts, plan{0: crashPoint}, pp, seed)
	sc.run()
	res.CrashPoints = sc.crashPoints[0]
	r := newSpecResult(scenarioSpec{}, opts)
	r.absorb(sc)
	res.mergeSpec(r)
	return res
}
