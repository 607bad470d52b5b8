// Exploration is split into three explicit layers so the thousands of
// independent crash scenarios a run comprises (the paper "systematically
// injects crashes before every clflush or fence operation", §4) can execute
// on a parallel worker pool without giving up reproducibility:
//
//	plan    — turn Options into a stream of self-contained scenarioSpec
//	          values, one per (schedule, crash point) (probe runs,
//	          crash-point clamping, random-mode seed derivation all happen
//	          here);
//	execute — a bounded pool of Options.Workers goroutines runs each spec
//	          as an isolated scenario group (no mutable state is shared
//	          between specs: every scenario owns its heap, detector, TSO
//	          machine and rng; resumed scenarios share the run's one
//	          recovery program, whose closures only read);
//	merge   — results are folded into the Result as they arrive, and
//	          only what depends on order is placed by spec index, so the
//	          final Result (races, Stats, Window, ExecutionsRun) is
//	          byte-identical between Workers=1 and Workers=N.
//
// The determinism contract: a spec's outcome is a pure function of
// (makeProg, opts, spec), and the merge is a commutative fold over
// outcomes (report.Set.Merge renders the same whatever the order, and the
// counters are sums) beside an index-ordered Window and panic choice.
// Completion order therefore cannot influence the Result.
package engine

import (
	"context"
	"math/rand"
	"slices"
	"sort"
	"sync"

	"yashme/internal/pmm"
	"yashme/internal/report"
	"yashme/internal/vclock"
)

// vclockSeqs is the per-line candidate list type (alias keeps the scenario
// struct readable).
type vclockSeqs = []vclock.Seq

// scenarioSpec is one self-contained unit of exploration work: one crash
// point of one schedule, explored under every persist policy in
// Options.PersistPolicies order (RandomMode: its one PersistRandom
// scenario), each primary scenario followed by the expansions (read-choice
// exploration, recovery crashes) that depend on its runtime state.
// Everything a worker needs is in the spec; nothing is shared between
// specs.
type scenarioSpec struct {
	// idx is the spec's position in plan-enumeration order; the merge
	// layer places order-sensitive outcomes (Window, panics) by it.
	idx int
	// scheduleIdx is the model-check schedule the spec belongs to
	// (RandomMode: the execution index).
	scheduleIdx int
	// crashPoint is plan[0]: the 1-based flush/fence point of the primary
	// crash (0 = crash at completion).
	crashPoint int
	// plan is the full crash plan (may carry a recovery crash in
	// RandomMode).
	plan plan
	// seed seeds the scenario's scheduler and persist randomness.
	seed int64
	// snap, when non-nil, is the checkpoint the spec's scenarios resume
	// from instead of re-simulating the pre-crash prefix (checkpoint.go).
	// It is the spec's own: in ModelCheck a private copy of the probe
	// rewound to the point, in RandomMode the probe's rewound state itself
	// (handover.go). runSpec releases it when the spec ends.
	snap *snapshot
	// exploreReads runs the Jaaru-style read-choice expansions after the
	// first persist policy's primary scenario.
	exploreReads bool
	// expandRecovery probes each primary scenario's recovery crash points
	// and runs up to Options.RecoveryCrashes follow-up scenarios.
	expandRecovery bool
	// window marks specs that contribute a PointStat to Result.Window
	// (first model-check schedule only).
	window bool
	// dedupOf, when non-zero, marks the spec a duplicate under crash-image
	// memoization: its captured state is byte-identical to an earlier
	// point's (checkpoint.go), so instead of running, its result is
	// synthesized from the spec at index dedupOf-1 (the representative
	// point's). The encoding reserves 0 for "not a duplicate" so the
	// zero-value spec stays valid.
	dedupOf int
	// retain marks specs whose results later duplicates synthesize from;
	// the merge layer keeps them after folding.
	retain bool
}

// specResult is the outcome of one spec: a private report set per analysis
// pass (parallel to Options.Analyses) plus the counters the merge layer
// folds into the Result.
type specResult struct {
	spec       scenarioSpec
	reports    []*report.Set
	executions int
	stats      Stats
	// windowRaces is the largest per-scenario deduplicated race count
	// among the window-contributing scenarios of the spec (the primary
	// runs and the read-choice expansions; recovery crashes are excluded,
	// as in the sequential exploration).
	windowRaces int
	// panicked carries a workload panic out of the worker so the merge
	// layer can re-raise it deterministically on the caller's goroutine.
	panicked any
	// skipped marks a spec that never simulated because the run's context
	// was done before its turn: the merge layer drops it (nothing to fold)
	// and duplicates that named it as their representative are dropped
	// with it.
	skipped bool
}

// planSummary is what the plan layer learns from its probe runs.
type planSummary struct {
	// crashPoints is Result.CrashPoints: the probed point count of the
	// first schedule (ModelCheck) or the sum over executions (RandomMode).
	crashPoints int
	// cost is the probe runs' own work, folded into Result.Stats: the
	// operations they simulated with its scheduler-path split, their
	// journals and the copies their walks made (the probe is where
	// snapshots are taken) and their clock-arena activity. The per-kind
	// operation counts stay zero — every spec counts its own.
	cost Stats
	// panicked carries a probe-run panic.
	panicked any
}

// runExplore is the orchestrator behind Run: plan, execute, and merge
// through one fold (merger) as results arrive.
//
// Workers == 1 short-circuits the pool entirely: planning, execution and
// merging interleave on the caller's goroutine (probe, spec, spec, …,
// probe, …), so no two program instances ever run concurrently — the
// contract that lets programs with shared observation state opt out of
// parallelism.
func runExplore(ctx context.Context, makeProg func() pmm.Program, opts Options, res *Result) {
	m := &merger{res: res}
	var sum planSummary
	if workers := opts.Workers; workers == 1 {
		sum = planGuarded(ctx, makeProg, opts, func(spec scenarioSpec) {
			m.add(execSpec(ctx, makeProg, opts, spec))
		})
	} else {
		specCh := make(chan scenarioSpec, workers)
		sumCh := make(chan planSummary, 1)

		// Plan layer. Probe runs execute here, overlapping with the pool.
		go func() {
			defer close(specCh)
			sumCh <- planGuarded(ctx, makeProg, opts, func(spec scenarioSpec) { specCh <- spec })
		}()

		// Execute layer: a bounded pool pulls specs and runs them in
		// isolation.
		resCh := make(chan *specResult, workers)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for spec := range specCh {
					resCh <- execSpec(ctx, makeProg, opts, spec)
				}
			}()
		}
		go func() {
			wg.Wait()
			close(resCh)
		}()

		// Merge layer: fold results as they complete.
		for r := range resCh {
			m.add(r)
		}
		sum = <-sumCh
	}
	m.finish()

	// Re-raise panics with one precedence for every worker count: the
	// lowest-index spec panic fires before a probe panic (the planner only
	// emits a spec after its probe succeeded).
	if m.panicked != nil {
		panic(m.panicked)
	}
	if sum.panicked != nil {
		panic(sum.panicked)
	}
	res.CrashPoints = sum.crashPoints
	res.Stats.Add(sum.cost)
}

// planGuarded runs the planner, carrying a probe panic out in the summary.
func planGuarded(ctx context.Context, makeProg func() pmm.Program, opts Options, emit func(scenarioSpec)) (sum planSummary) {
	defer func() {
		if p := recover(); p != nil {
			sum.panicked = p
		}
	}()
	return planSpecs(ctx, makeProg, opts, emit)
}

// execSpec is the execute layer's one step: it runs a spec under a budget
// token, or returns the placeholder the merge layer expects. A duplicate
// crash point has nothing to simulate — the merge layer synthesizes its
// result from the retained representative — and takes no token. The token
// covers only the simulation, not the hand-off to the merge: a blocked
// merge can never starve other Runs sharing the budget. A cancelled run
// stops acquiring, and the remaining specs drain as skipped placeholders,
// so the merge layer still sees every index.
func execSpec(ctx context.Context, makeProg func() pmm.Program, opts Options, spec scenarioSpec) *specResult {
	if spec.dedupOf > 0 {
		return &specResult{spec: spec}
	}
	if !opts.Budget.AcquireCtx(ctx) {
		if spec.snap != nil {
			spec.snap.release()
		}
		return &specResult{spec: spec, skipped: true}
	}
	r := runSpec(ctx, makeProg, opts, spec)
	opts.Budget.Release()
	return r
}

// merger folds spec results into the Result as they arrive, in whatever
// order: the planner emits each schedule's points in descending order, and
// the pool finishes them in any order. Set.Merge and Stats.Add commute, so
// a folded result is released at once and its report sets go back to the
// pool for the next spec. Only what depends on order is kept: the Window
// entries by index, the lowest-index panic, the retained representatives
// (skipped ones included), and the duplicates whose representative has
// not arrived — the walk emits a duplicate before its lower-point
// representative.
type merger struct {
	res *Result
	// window holds the folded window specs' PointStats by spec index
	// (their crash point); finish appends them to Result.Window in order.
	window []windowSlot
	// done holds the retained representatives, by spec index; waiting
	// holds the duplicate specs whose representative has not arrived, by
	// its index.
	done    map[int]*specResult
	waiting map[int][]scenarioSpec
	// panicked is the lowest-index spec panic, raised by spec panicIdx.
	panicked any
	panicIdx int
}

// windowSlot is one Window entry, present once its spec folded.
type windowSlot struct {
	stat PointStat
	ok   bool
}

// add folds r, and with a retained representative the duplicates that
// were waiting for it.
func (m *merger) add(r *specResult) {
	if r.spec.dedupOf > 0 {
		rep := r.spec.dedupOf - 1
		if m.done[rep] == nil {
			if m.waiting == nil {
				m.waiting = make(map[int][]scenarioSpec)
			}
			m.waiting[rep] = append(m.waiting[rep], r.spec)
			return
		}
		r = synthesizeDedup(m.done[rep], r.spec)
	}
	retain := r.spec.retain // fold releases an unretained r
	m.fold(r)
	if !retain {
		return
	}
	// Retained even when skipped or panicked, so a later duplicate is
	// skipped with it or inherits the panic.
	if m.done == nil {
		m.done = make(map[int]*specResult)
	}
	m.done[r.spec.idx] = r
	for _, dup := range m.waiting[r.spec.idx] {
		m.fold(synthesizeDedup(r, dup))
	}
	delete(m.waiting, r.spec.idx)
}

// fold merges one result into the Result, unless it was skipped or
// panicked: a panic is kept if it is the lowest-index one so far.
func (m *merger) fold(r *specResult) {
	switch {
	case r.panicked != nil:
		if m.panicked == nil || r.spec.idx < m.panicIdx {
			m.panicked, m.panicIdx = r.panicked, r.spec.idx
		}
	case !r.skipped:
		if r.spec.window {
			if n := r.spec.idx + 1; n > len(m.window) {
				m.window = slices.Grow(m.window, n-len(m.window))[:n]
			}
			m.window[r.spec.idx] = windowSlot{PointStat{Point: r.spec.crashPoint, Races: r.windowRaces}, true}
		}
		m.res.mergeSpec(r)
	}
}

// finish appends the Window in crash-point order and releases the
// retained representatives, whose duplicates have all folded. A duplicate
// still waiting named a representative that never came (none is retained
// unless a duplicate maps to it), and is dropped like a skipped spec.
func (m *merger) finish() {
	for _, w := range m.window {
		if !w.ok {
			continue
		}
		if m.res.Window == nil {
			m.res.Window = make([]PointStat, 0, len(m.window))
		}
		m.res.Window = append(m.res.Window, w.stat)
	}
	for _, r := range m.done {
		r.spec.retain = false
		r.release()
	}
}

// synthesizeDedup builds the result a duplicate spec would have produced,
// from its representative's retained result; a skipped representative
// skips its duplicates. Soundness: the duplicate's captured state is
// byte-identical to the representative's (checkpoint.go confirms every
// match with a full compare), so resuming it would replay
// the exact same image derivation, recovery execution and race verdicts —
// the report set, execution count and window contribution are the
// representative's, shared (Set.Merge never mutates its argument, and its
// fold produces the same bytes a private equal copy would). The per-kind
// operation counts differ only in the pre-crash prefix, which both specs
// carry in their snapshots (a representative's keeps its counts after
// release), once per persist-policy scenario: memoization
// runs without expansions, so each of the representative's executions is
// one such scenario, and duplicate = representative total + executions ×
// (own prefix − representative prefix). The cost counters are zeroed —
// nothing was simulated, captured or journaled for this spec — and
// DedupedScenarios records the skipped scenarios, one per execution.
func synthesizeDedup(rep *specResult, spec scenarioSpec) *specResult {
	if rep.skipped {
		return &specResult{spec: spec, skipped: true}
	}
	out := &specResult{
		spec:        spec,
		reports:     rep.reports,
		executions:  rep.executions,
		windowRaces: rep.windowRaces,
		panicked:    rep.panicked,
	}
	q, p, n := spec.snap.stats, rep.spec.snap.stats, int64(rep.executions)
	out.stats = rep.stats
	out.stats.Stores += n * (q.Stores - p.Stores)
	out.stats.Loads += n * (q.Loads - p.Loads)
	out.stats.Flushes += n * (q.Flushes - p.Flushes)
	out.stats.Fences += n * (q.Fences - p.Fences)
	out.stats.RMWs += n * (q.RMWs - p.RMWs)
	out.stats.ZeroCost()
	out.stats.DedupedScenarios = n
	return out
}

// mergeSpec folds one spec outcome's reports and counters into the
// Result, then releases it (see specResult.release). The reports merge at
// the spec's index, so where two specs found equally canonical
// representatives of a race the lower-index spec's is kept, as an
// in-order fold would.
func (res *Result) mergeSpec(r *specResult) {
	for i, rep := range r.reports {
		res.Passes[i].Report.MergeRanked(rep, r.spec.idx)
	}
	res.ExecutionsRun += r.executions
	res.Stats.Add(r.stats)
	r.release()
}

// planSpecs dispatches to the mode's enumerator. emit is called once per
// spec — per model-check schedule in the walk's descending point order —
// and in the parallel path it feeds the pool's channel, in the sequential
// path it runs the spec inline. Probe runs — the planner's own
// simulations — check the context before starting: a cancelled plan stops
// enumerating and returns the summary of the probes that did run.
func planSpecs(ctx context.Context, makeProg func() pmm.Program, opts Options, emit func(scenarioSpec)) planSummary {
	if opts.Mode == ModelCheck {
		return planModelCheck(ctx, makeProg, opts, emit)
	}
	return planRandom(ctx, makeProg, opts, emit)
}

// planModelCheck enumerates the model-checking specs: per schedule, a probe
// run counts the flush/fence points of the deterministic schedule, then one
// spec is emitted per crash point — crash point 0 is the power loss at
// completion — and runSpec explores the persist policies inside it.
//
// Outside the Reference configuration, the probe doubles as the one full
// pre-crash simulation of the schedule: it logs its position at every
// crash point on the way forward, then the planner walks the points
// backwards (handover.go) — completion first, then the last explored point
// down to the first — and each emitted spec carries a private copy of the
// probe rewound to its point. Point c's spec has index base+c whatever the
// emission order, so the merge still lays the Window out ascending. The
// workers' channel holds Options.Workers specs, so the walk runs at most
// about that far ahead of them and about that many copies are alive at
// once. Points are logged before the crash's persist policy matters, so
// one probe (run under PersistLatest, like always) serves every policy.
func planModelCheck(ctx context.Context, makeProg func() pmm.Program, opts Options, emit func(scenarioSpec)) planSummary {
	var sum planSummary
	var log *positionLog
	var rp *recoveryProgram
	if !opts.Reference {
		log = positionLogPool.Get().(*positionLog)
		defer log.release()
		rp = newRecoveryProgram(makeProg)
	}
	idx := 0
	for sched := 0; sched < opts.Schedules; sched++ {
		seed := opts.Seed + int64(sched)
		probe := newScenario(makeProg, opts, plan{}, PersistLatest, seed)
		logged := log != nil && rp.fits(probe)
		if logged {
			log.watch(probe, opts, rp.workers)
		}
		if !opts.Budget.AcquireCtx(ctx) {
			return sum // cancelled before this schedule's probe
		}
		probe.runPreCrash()
		opts.Budget.Release()
		n := probe.crashPoints[0]
		if sched == 0 {
			sum.crashPoints = n
		}
		limit := n
		if opts.MaxCrashPoints > 0 && limit > opts.MaxCrashPoints {
			limit = opts.MaxCrashPoints
		}
		if logged {
			probe.stats.JournalOps += int64(log.journal.Len())
		}
		// Crash-image memoization: repPoints marks the points at least one
		// duplicate maps to (their specs are retained for synthesis). A
		// duplicate's representative is always an earlier point, so the
		// walk marks it before it gets there, and the merge holds the
		// duplicate until the representative arrives.
		var repPoints map[int]bool
		base := idx
		walkBackward(limit, func(c int) {
			spec := scenarioSpec{
				idx:            base + c,
				scheduleIdx:    sched,
				crashPoint:     c,
				plan:           plan{0: c},
				seed:           seed,
				exploreReads:   opts.ExploreReads,
				expandRecovery: opts.RecoveryCrashes > 0,
				window:         sched == 0,
				retain:         repPoints[c],
			}
			if logged {
				// Copying the point's state is simulation-sized work, so it
				// takes a budget token like the probe did: a walk that
				// copied unbudgeted, beside the workers it feeds, would
				// oversubscribe the CPUs and slow its own critical path.
				// Once the run is cancelled the spec needs no snapshot:
				// execSpec skips it.
				if opts.Budget.AcquireCtx(ctx) {
					spec.snap = log.copyAt(probe, c)
					opts.Budget.Release()
				}
				if rp := log.dupOf[c]; rp > 0 {
					spec.dedupOf = base + rp + 1
					if repPoints == nil {
						repPoints = make(map[int]bool)
					}
					repPoints[rp] = true
				}
			}
			emit(spec)
		})
		idx += limit + 1
		sum.absorbProbe(probe)
		probe.retire()
	}
	return sum
}

// walkBackward visits crash points 0..limit in the backward walk's order:
// completion first, then limit down to 1.
func walkBackward(limit int, visit func(c int)) {
	visit(0)
	for c := limit; c >= 1; c-- {
		visit(c)
	}
}

// planRandom enumerates the random-mode specs. The top-level rng stream is
// inherently sequential — the draw for execution i+1 depends on execution
// i's probed point count — so the probes run here, on the plan goroutine,
// while the pool executes earlier specs; the crash scenarios themselves
// fan out across the workers.
//
// Outside the Reference configuration, the probe is the execution's one
// pre-crash simulation, whatever the analysis stack and trace setting: it
// logs its position at every crash point, and once c is drawn it is
// rewound to c and its own state is handed to the spec as a single-use
// snapshot (handover.go).
func planRandom(ctx context.Context, makeProg func() pmm.Program, opts Options, emit func(scenarioSpec)) planSummary {
	var sum planSummary
	src := newCountingSource(opts.Seed)
	defer src.release()
	rng := rand.New(src)
	var log *positionLog
	var rp *recoveryProgram
	if !opts.Reference {
		log = positionLogPool.Get().(*positionLog)
		defer log.release()
		rp = newRecoveryProgram(makeProg)
	}
	for i := 0; i < opts.Executions; i++ {
		schedSeed := rng.Int63()
		// Probe with this schedule to count its crash points, then emit
		// the identical schedule crashing before a random one of them.
		probe := newScenario(makeProg, opts, plan{}, PersistRandom, schedSeed)
		logged := log != nil && rp.fits(probe)
		if logged {
			log.watch(probe, opts, rp.workers)
		}
		if !opts.Budget.AcquireCtx(ctx) {
			return sum // cancelled before this execution's probe
		}
		probe.runPreCrash()
		opts.Budget.Release()
		n := sum.absorbProbe(probe)
		sum.crashPoints += n
		c := 0
		if n > 0 {
			c = 1 + rng.Intn(n)
		}
		p := plan{0: c}
		if opts.RecoveryCrashes > 0 && rng.Intn(2) == 0 {
			p[1] = 1 + rng.Intn(opts.RecoveryCrashes)
		}
		var snap *snapshot
		if logged {
			snap = log.handover(probe, c)
		}
		probe.retire()
		emit(scenarioSpec{
			idx:         i,
			scheduleIdx: i,
			crashPoint:  c,
			plan:        p,
			seed:        schedSeed,
			snap:        snap,
		})
	}
	return sum
}

// randomPolicies is the persist-policy list of a RandomMode spec.
var randomPolicies = []PersistPolicy{PersistRandom}

// runSpec executes one spec in isolation: the crash point's primary
// scenario under each persist policy in turn, each followed by the
// read-choice expansions (first policy only) and recovery-crash follow-ups
// that depend on its runtime state. The internal order matches the
// sequential exploration exactly, so the spec's private report preserves
// first-seen order.
//
// When the spec carries a checkpoint, every scenario in the group resumes
// from it rather than re-simulating the pre-crash prefix — from a clone,
// except the last policy's primary scenario when no expansion follows it,
// which takes the snapshot's own copy — and the spec releases what is left
// of it when it ends. A recovery-crash follow-up resumes from the same
// crash point with the plan {0: c, 1: rc}: it re-simulates the first
// recovery execution up to its crash point rc, then recovers again.
//
// Policy twins (DESIGN.md §4.4): wherever crash-image memoization is on,
// the spec's first PersistLatest/PersistMinimal scenario marks the image
// entries on which the two policies' images differ. When its recovery
// read none of them, a later Latest/Minimal scenario would replay it
// exactly, so it is not resumed: the twin's outcome is folded in again
// (specResult.repeat). PersistRandom draws per line and is never paired.
//
// The context gates every simulation after the first primary scenario: that
// one always runs (the caller acquired its budget token with the context
// still live), but a cancellation observed before a later policy's scenario
// or an expansion stops the group there, leaving the already-absorbed
// scenarios as the spec's partial contribution.
func runSpec(ctx context.Context, makeProg func() pmm.Program, opts Options, spec scenarioSpec) (out *specResult) {
	out = newSpecResult(spec, opts)
	defer func() {
		if p := recover(); p != nil {
			out.panicked = p
		}
		if spec.snap != nil {
			spec.snap.release()
		}
	}()

	policies := opts.PersistPolicies
	if opts.Mode == RandomMode {
		policies = randomPolicies
	}
	pairing := dedupEnabled(opts)
	var twin *scenario
	for i, pp := range policies {
		paired := pairing && (pp == PersistLatest || pp == PersistMinimal)
		if paired && twin != nil {
			out.repeat(twin)
			continue
		}
		if i > 0 && ctx.Err() != nil {
			break
		}
		exploreReads := spec.exploreReads && i == 0
		if spec.snap != nil {
			// The last policy's primary scenario is the snapshot's last
			// resume unless expansions follow it: it takes the copy.
			spec.snap.take = i == len(policies)-1 && !exploreReads && !spec.expandRecovery
		}
		if t := out.runPolicy(ctx, makeProg, opts, spec, pp, exploreReads, paired); t != nil {
			twin = t
		}
	}
	if twin != nil {
		twin.retire()
	}
	return out
}

// runPolicy runs the spec's primary scenario under persist policy pp and
// its expansions (the read-choice ones only with exploreReads). With mark
// set, the scenario marks the image entries where the Latest and Minimal
// images differ (buildLineImage); if its recovery then read none of them,
// it is returned unretired, absorbed, for the spec's later Latest/Minimal
// policies to repeat. Otherwise it returns nil.
func (out *specResult) runPolicy(ctx context.Context, makeProg func() pmm.Program, opts Options, spec scenarioSpec,
	pp PersistPolicy, exploreReads, mark bool) (twin *scenario) {

	sc := runPlanned(makeProg, opts, spec.snap, spec.plan, pp, spec.seed, func(sc *scenario) {
		if exploreReads {
			sc.lineChoices = make(map[pmm.Line]vclockSeqs)
		}
		sc.markTwins = mark
	})
	out.windowRaces = max(out.windowRaces, sc.stack.PrimaryReport().Count())
	// Retiring sc ends it; keep what the expansions read from it.
	lineChoices, m := sc.lineChoices, sc.crashPoints[1]
	out.add(sc)
	if mark && !sc.readDiffers {
		twin = sc
	} else {
		sc.retire()
	}

	if exploreReads {
		runReadChoices(ctx, makeProg, opts, spec, lineChoices, out)
	}
	if spec.expandRecovery {
		if m > opts.RecoveryCrashes {
			m = opts.RecoveryCrashes
		}
		for rc := 1; rc <= m; rc++ {
			if ctx.Err() != nil {
				break // checkpoint-resume boundary: stop expanding
			}
			out.absorb(runPlanned(makeProg, opts, spec.snap, plan{0: spec.crashPoint, 1: rc}, pp, spec.seed, nil))
		}
	}
	return twin
}

// runReadChoices re-runs a crash point once per (line, persist-point) pair,
// pinning that line to that choice so the post-crash execution actually
// observes every candidate value (Jaaru's constraint-based read
// exploration, bounded by readChoiceCap per crash point).
func runReadChoices(ctx context.Context, makeProg func() pmm.Program, opts Options, spec scenarioSpec,
	lineChoices map[pmm.Line]vclockSeqs, out *specResult) {

	// Deterministic line order.
	var lines []pmm.Line
	for l := range lineChoices {
		lines = append(lines, l)
	}
	sort.Slice(lines, func(i, j int) bool { return lines[i] < lines[j] })
	budget := readChoiceCap
	for _, line := range lines {
		for _, choice := range lineChoices[line] {
			if budget == 0 || ctx.Err() != nil {
				return
			}
			budget--
			sc := runPlanned(makeProg, opts, spec.snap, plan{0: spec.crashPoint}, PersistLatest, spec.seed, func(sc *scenario) {
				sc.persistOverride = map[pmm.Line]vclock.Seq{line: choice}
			})
			if n := sc.stack.PrimaryReport().Count(); n > out.windowRaces {
				out.windowRaces = n
			}
			out.absorb(sc)
		}
	}
}

// readChoiceCap bounds the extra read-exploration scenarios per crash
// point.
const readChoiceCap = 24

// specResultPool holds merged outcomes (specResult.release).
var specResultPool sync.Pool

// newSpecResult returns an empty outcome for spec, with one report set per
// selected analysis pass, on a merged outcome's shell when one is free.
func newSpecResult(spec scenarioSpec, opts Options) *specResult {
	out, _ := specResultPool.Get().(*specResult)
	if out == nil {
		out = new(specResult)
	}
	reports := out.reports[:0]
	for range opts.Analyses {
		reports = append(reports, report.NewSet())
	}
	*out = specResult{spec: spec, reports: reports}
	return out
}

// release hands a merged outcome and its report sets to the pools. A
// retained representative keeps its sets, which the results synthesized
// for its duplicates share, and a synthesized result owns none.
func (r *specResult) release() {
	if r.spec.retain || r.spec.dedupOf > 0 {
		return
	}
	for _, rep := range r.reports {
		rep.Release()
	}
	clear(r.reports)
	*r = specResult{reports: r.reports[:0]}
	specResultPool.Put(r)
}

// absorb is the one harvest path of a finished crash scenario: it folds the
// scenario in (add) and retires it.
func (r *specResult) absorb(sc *scenario) {
	r.add(sc)
	sc.retire()
}

// add merges a finished scenario's reports, counts the execution and folds
// its stats, clock-arena activity included.
func (r *specResult) add(sc *scenario) {
	for i, rep := range sc.stack.Reports() {
		r.reports[i].Merge(rep)
	}
	r.executions++
	sc.harvestClocks()
	r.stats.Add(sc.stats)
}

// repeat folds an added policy twin in again, for a later policy whose
// scenario would have replayed it: the same reports and per-kind counts,
// one more execution. As in synthesizeDedup, the cost counters stay zero —
// nothing was simulated — and DedupedScenarios records the skip.
func (r *specResult) repeat(twin *scenario) {
	for i, rep := range twin.stack.Reports() {
		r.reports[i].Merge(rep)
	}
	r.executions++
	st := twin.stats
	st.ZeroCost()
	st.DedupedScenarios = 1
	r.stats.Add(st)
}

// absorbProbe folds a finished probe run's costs into the summary and
// returns its probed crash-point count; the caller retires the probe. Only
// the cost counters carry over: the specs the probe plans count their own
// operations.
func (sum *planSummary) absorbProbe(probe *scenario) int {
	probe.harvestClocks()
	st := probe.stats
	sum.cost.Add(Stats{
		SimulatedOps:  st.SimulatedOps,
		Handoffs:      st.Handoffs,
		DirectOps:     st.DirectOps,
		SnapshotBytes: st.SnapshotBytes,
		JournalOps:    st.JournalOps,
		ClockInterned: st.ClockInterned,
		EpochHits:     st.EpochHits,
		EpochMisses:   st.EpochMisses,
	})
	return probe.crashPoints[0]
}

// harvestClocks folds the scenario's clock-arena activity into its stats.
// TakeCounters resets on read, and a resumed scenario's cloned arena starts
// its counters at zero, so each scenario contributes exactly its own
// interns and epoch compares (the machine shares the detector's arena — one
// harvest point covers both).
func (sc *scenario) harvestClocks() {
	ci, eh, em := sc.det.ClockArena().TakeCounters()
	sc.stats.ClockInterned += ci
	sc.stats.EpochHits += eh
	sc.stats.EpochMisses += em
}
