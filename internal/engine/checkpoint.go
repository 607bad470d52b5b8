// Checkpointed pre-crash execution.
//
// A ModelCheck run explores every crash point of one deterministic schedule,
// and re-simulating the pre-crash prefix for each of the C crash scenarios
// would cost O(C·n) simulated operations for an n-operation workload. The
// checkpoint layer removes the quadratic term: the planner's probe run
// (which executes the full schedule once to count its flush/fence points)
// is the schedule's one pre-crash simulation, and each scenario resumes
// from its crash point's snapshot, simulating only the crash, the image
// derivation and the post-crash recovery — O(n) + C·copy.
//
// The probe takes no snapshots while it runs. Its detector and its xfd
// detector, when selected, record undo journals, and at each crash point
// it logs a compact position: the journal marks, the trace recorder's
// length and the operation counts (handover.go's positionLog). Once it has
// run to completion, the planner walks the points backwards — completion
// first, then the last explored point down to the first — and at each
// rewinds the probe's detectors (core.Detector.Rewind,
// xfd.Detector.Rewind) there, truncates its recorder, and clones them into
// the point's snapshot. Random mode's probes work the same way, with one
// consumer: the rewound detectors and recorder themselves are handed over.
//
// On top of the positions sits crash-image memoization: at each probed
// point the log serializes the image-determining state — heap shape, live
// threads, rng position, and the detector's stores/flush-chains/
// persist-bounds (core.Execution.AppendStateSignature) — and
// content-hashes it. The persisted image needs no bytes: a probe's image is
// its Setup image, the same at every point of its run, and every probe
// files its points in its own index. A point whose serialized state is
// byte-identical to an earlier point's (hash equality is only a filter; a
// full byte compare confirms every match, so a collision can never change
// results) must yield the same persisted image, the same recovery
// execution and the same races, so the planner marks it a duplicate, gives
// it a snapshot of its operation counts only, and the merge layer reuses
// the earlier point's recorded verdict instead of re-simulating
// (explore.go).
//
// What a snapshot holds, and why:
//
//   - the persistent heap (an O(1) capped view; see pmm.Heap.SnapshotAt)
//     and the detector with its report, the stack's xfd detector and the
//     trace recorder, each rewound to the point and copied;
//   - the persisted image table (constant for the whole pre-crash
//     execution: it is rebuilt only between executions), copied;
//   - the scheduler rng: the point's raw-draw count, the position a resume
//     places its source at (a source fills its register only when it
//     draws; see countingSource), plus the crash-unwind draw count, so a
//     resume reproduces the exact rand.Rand state a from-scratch scenario
//     holds after its crash unwinds the remaining threads;
//   - the crash sequence number — NOT the TSO machine. A crash discards
//     every buffered store and flush by definition, and the post-crash
//     machine starts afresh over the image, so the machine's only
//     surviving observable is CurSeq.
//
// A snapshot belongs to its spec (DESIGN.md §4.7): every scenario of the
// spec resumes from clones of its detector and image, except the last
// primary scenario, which takes them, and the spec releases what is left
// when it ends. The planner hands specs to the workers through a channel
// of Options.Workers slots, so about that many copies are alive at once,
// not one per crash point.
//
// Every scenario of a spec resumes from that one first-crash snapshot:
// read-choice expansions add a persist override, and a recovery-crash
// follow-up (Options.RecoveryCrashes) extends the plan to {0: c, 1: rc},
// re-simulating the first recovery execution up to its crash point rc.
// Snapshots therefore only ever hold a pre-crash execution's state.
package engine

import (
	"bytes"
	"hash/maphash"
	"math/rand"

	"yashme/internal/core"
	"yashme/internal/pmm"
	"yashme/internal/trace"
	"yashme/internal/vclock"
	"yashme/internal/xfd"
)

// countingSource is the scheduler's rand.Source64: the math/rand stream of
// seed, at raw draw n. Its register (rngstate.go) is filled on the first
// draw, seeded and then stepped n times, and it is owned: no other source
// or snapshot reads it, and release recycles it. Placing a source (reset)
// sets only the position, so a scenario that never draws, such as every
// resume of a solo-threaded program under a deterministic persist policy,
// never touches a register.
type countingSource struct {
	seed int64
	n    uint64
	// state is the register at draw n, nil until the source draws.
	state *rngState
}

// newCountingSource returns a source at the start of seed's stream.
func newCountingSource(seed int64) *countingSource {
	return &countingSource{seed: seed}
}

// reset is the engine's one way to place a scheduler stream: it puts c at
// draw n of seed's stream and recycles the register c held. A recycled
// scenario shell resets its own source, so the rand.Rand wrapping it stays
// valid.
func (c *countingSource) reset(seed int64, n uint64) {
	c.release()
	c.seed, c.n = seed, n
}

// release hands c's register to the pool getRngState draws from; a source
// that draws again fills a fresh one.
func (c *countingSource) release() {
	if c.state != nil {
		rngStatePool.Put(c.state)
		c.state = nil
	}
}

func (c *countingSource) Int63() int64 { return int64(c.Uint64() & rngMask) }

func (c *countingSource) Uint64() uint64 {
	if c.state == nil {
		c.state = getRngState()
		seedRngState(c.seed, c.state)
		for i := uint64(0); i < c.n; i++ {
			c.state.Uint64()
		}
	}
	c.n++
	return c.state.Uint64()
}

func (c *countingSource) Seed(seed int64) { c.reset(seed, 0) }

// rewind steps c back by k raw draws. A filled register undoes its steps;
// an unfilled one has none to undo.
func (c *countingSource) rewind(k uint64) {
	if c.state != nil {
		for i := uint64(0); i < k; i++ {
			c.state.unstep()
		}
	}
	c.n -= k
}

var _ rand.Source64 = (*countingSource)(nil)

// snapshotOverheadBytes is the accounted fixed cost of one snapshot shell
// (the struct, the heap view headers) on top of the detector and image
// copies it carries.
const snapshotOverheadBytes = 256

// snapshot is the state of a scenario at one crash point of its pre-crash
// execution: everything a resume needs to continue as if it had simulated
// the prefix itself.
type snapshot struct {
	seed int64
	// point is the 1-based flush/fence point captured (0 = completion); a
	// resume's crash-point counts are {0: point}.
	point int
	// crashSeq is the commit sequence at the point — what the crashed
	// machine's CurSeq would report.
	crashSeq vclock.Seq
	// rngDraws is the position of seed's scheduler stream at the point,
	// where a resume places its source. rng, when set, is a random-mode
	// probe's own register stepped back to rngDraws, which the one resume
	// takes; otherwise the resume fills a register only if it draws.
	// unwind is the number of still-live threads minus one, each of which
	// costs the scheduler one bounded draw while the crash unwinds them.
	rng      *rngState
	rngDraws uint64
	unwind   int
	// stats is the scenario's operation counts at the point, with the cost
	// counters zeroed (Stats.ZeroCost): a resumed scenario inherits the
	// prefix's per-kind counts but only counts the work it actually
	// performs. A duplicate point's snapshot holds nothing else.
	stats Stats
	heap  *pmm.Heap
	// det, image, xfd and rec are the snapshot's own copies, or a
	// random-mode probe's own state handed over. xfd is the stack's xfd
	// detector at the point, nil unless selected; rec is the trace
	// recorder, nil unless tracing. A resume clones them, unless take is
	// set: then it takes them, and the snapshot is spent.
	det   *core.Detector
	image imageTable
	xfd   *xfd.Detector
	rec   *trace.Recorder
	take  bool
	// recovery is the recovery a resume runs: the run's shared recovery
	// program's (recoveryProgram). analyses is the validated pass selection
	// of the stack the snapshot was taken from (analysis.Stack.Names),
	// shared by every resume's rebuilt stack.
	recovery []func(*pmm.Thread)
	analyses []string
}

// release hands the snapshot's copies, their report sets included, to the
// pools once its spec has run: nothing resumes from it again. The
// operation counts stay, for the merge layer's duplicate synthesis.
func (snap *snapshot) release() {
	if snap.det != nil {
		snap.det.Report().Release()
		snap.det.Retire()
		snap.image.release()
		snap.det = nil
		if snap.xfd != nil {
			snap.xfd.Report().Release()
			snap.xfd.Retire()
		}
	}
	if snap.rng != nil {
		rngStatePool.Put(snap.rng)
	}
	snap.rng, snap.heap, snap.xfd, snap.rec = nil, nil, nil, nil
}

// sigClass is one equivalence class of crash points under the state
// signature: the first point seen with these exact bytes represents every
// later match. The bytes are slab[lo:hi] of the sigIndex filing it.
type sigClass struct {
	point, lo, hi int
}

// sigIndex files one probe's crash points by state signature: classes maps
// a signature hash to its equivalence classes, whose full bytes sit end to
// end in slab for the mandatory collision-confirming compare. It is needed
// only while the probe runs; the position log owning it empties it when
// the pre-crash execution ends, and the next probe reuses the grown slab.
type sigIndex struct {
	slab    []byte
	classes map[uint64][]sigClass
}

// sigSeed is the per-process seed of the signature hash. A seed that
// differs between processes is safe: the hash only routes a signature to
// candidate classes, file confirms every match with bytes.Equal, and
// nothing iterates or orders sigIndex.classes (it is only indexed and
// cleared), so no output depends on the hash values.
var sigSeed = maphash.MakeSeed()

// dedupEnabled reports whether crash-image memoization is sound and active
// for the run: the Reference configuration, the expansions that consume
// live per-scenario state (read-choice frontiers, recovery-crash probing)
// and the trace recorder (whose event log legitimately differs between
// equivalent points) disable it; every plain ModelCheck sweep — any
// persist policy, EADR, torn values, suppression — keeps it.
func dedupEnabled(opts Options) bool {
	return opts.Mode == ModelCheck &&
		!opts.Reference &&
		!opts.Trace &&
		!opts.ExploreReads &&
		opts.RecoveryCrashes == 0
}

// classify serializes the probe's image-determining state at the point and
// files it into the signature classes, returning the representative point
// of a byte-identical earlier point (0 = none, the point is its own class).
// The serialized state is exactly what the resumed scenario's behavior is
// a function of, beside the probe's Setup image, which is constant over
// the run — the heap shape (Setup fingerprint plus allocations and init
// writes, which within one probe run are fully determined by their counts:
// the run appends deterministically), the live-thread count (the
// crash-unwind draws), the rng position (the scheduler and persist-point
// draws to come), and the detector execution state (AppendStateSignature).
// Equal bytes therefore imply an identical image derivation, an identical
// recovery execution and identical race verdicts; the hash only routes to
// candidates, and bytes.Equal confirms every match, so a hash collision can
// never merge two distinct states.
func (pl *positionLog) classify(sc *scenario, point int) int {
	buf := pl.sigBuf[:0]
	buf = sigU64(buf, uint64(sc.heap.AllocCount()))
	buf = sigU64(buf, uint64(sc.heap.NextFree()))
	buf = sigU64(buf, uint64(len(sc.heap.InitWrites())))
	buf = sigU64(buf, uint64(sc.liveThreads))
	buf = sigU64(buf, sc.rngSrc.n)
	buf = sc.det.Current().AppendStateSignature(buf)
	// The xfd detector appends its own decision-relevant state (nothing for
	// a yashme-only stack, keeping the default signature bytes unchanged):
	// two points only dedup when the WHOLE stack finds them
	// indistinguishable.
	buf = sc.stack.AppendXFDSignature(buf)
	pl.sigBuf = buf
	return pl.file(point, maphash.Bytes(pl.seed, buf), buf)
}

// file places a point's signature into the classes under hash h and
// returns the representative point of an earlier class with
// byte-identical signature (0 = none: the point starts a class). Same hash
// with different bytes is a genuine collision and records a distinct
// class, never a duplicate. The hash is a parameter (rather than derived
// here) so tests can force collisions.
func (pl *positionLog) file(point int, h uint64, buf []byte) int {
	x := &pl.sigs
	for _, c := range x.classes[h] {
		if bytes.Equal(x.slab[c.lo:c.hi], buf) {
			return c.point
		}
	}
	lo := len(x.slab)
	if need := lo + len(buf); need > cap(x.slab) {
		// Double rather than let append grow large slices by a quarter: a
		// cold slab then copies each signature about twice, not five times.
		grown := make([]byte, lo, max(need, 2*cap(x.slab)))
		copy(grown, x.slab)
		x.slab = grown
	}
	x.slab = append(x.slab, buf...)
	x.classes[h] = append(x.classes[h], sigClass{point: point, lo: lo, hi: len(x.slab)})
	return 0
}

// sigU64 serializes v little-endian into the signature buffer.
func sigU64(buf []byte, v uint64) []byte {
	return append(buf,
		byte(v), byte(v>>8), byte(v>>16), byte(v>>24),
		byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56))
}

// recoveryProgram is the one program instance an engine run's resumed
// scenarios recover with (DESIGN.md §4.1). Its Setup ran once, on a heap of
// its own that only fingerprints its shape, and its Workers never run: a
// resumed scenario skipped the pre-crash closures anyway, and the program
// of a probe, whose Workers did run, cannot stand in for it. Every resumed
// scenario of the run, on every worker, runs the same recovery closures,
// which is sound because recovery reads only the Go state Setup built,
// writes none, and reaches the heap only through its thread.
type recoveryProgram struct {
	workers []func(*pmm.Thread)
	// allocs and next are the Setup heap's shape (AllocCount, NextFree).
	allocs int
	next   pmm.Addr
}

// newRecoveryProgram builds a run's recovery program: one makeProg and its
// Setup.
func newRecoveryProgram(makeProg func() pmm.Program) *recoveryProgram {
	prog := makeProg()
	h := pmm.NewHeap()
	if prog.Setup != nil {
		prog.Setup(h)
	}
	return &recoveryProgram{workers: prog.RecoveryWorkers(), allocs: h.AllocCount(), next: h.NextFree()}
}

// fits reports whether probe's Setup built the heap shape the recovery
// program's did, so that the handles its recovery closures hold name the
// same objects on the probe's heap; it must be called before the probe
// runs. A probe that does not fit — a nondeterministic Setup — takes no
// snapshots, and its specs run from scratch.
func (r *recoveryProgram) fits(probe *scenario) bool {
	return probe.heap.AllocCount() == r.allocs && probe.heap.NextFree() == r.next
}

// resumeScenario builds a scenario positioned exactly where a from-scratch
// run of (makeProg, opts, p, persist, snap.seed) would be at snap's crash
// point, without simulating the prefix. The caller continues with
// sc.finish(snap.crashSeq).
//
// No program is built: the scenario recovers with the snapshot's recovery
// (the run's recoveryProgram) on its own header over the snapshot's heap
// view.
func resumeScenario(opts Options, snap *snapshot, p plan, persist PersistPolicy) *scenario {
	if opts.EADR {
		persist = PersistLatest
	}
	sc := getScenario()
	sc.view = *snap.heap.Snapshot()
	sc.heap = &sc.view
	x, rec := snap.xfd, snap.rec
	if snap.take {
		sc.det, sc.image = snap.det, snap.image
		snap.det, snap.image, snap.xfd, snap.rec = nil, imageTable{}, nil, nil
	} else {
		sc.det, sc.image = snap.det.Clone(), snap.image.clone()
		if x != nil {
			x = x.Clone()
		}
		if rec != nil {
			rec = rec.Clone()
		}
	}
	// A handed-over register is already at the point's draw count.
	sc.rngSrc.reset(snap.seed, snap.rngDraws)
	sc.rngSrc.state, snap.rng = snap.rng, nil
	sc.stack = &sc.stackVal
	sc.stack.Rebuild(snap.analyses, sc.det, x)
	sc.stack.SetLabeler(sc.labelFor)
	sc.opts = opts
	sc.recovery = snap.recovery
	sc.seed = snap.seed
	sc.persist = persist
	sc.crashPlan = p
	sc.stats = snap.stats
	sc.setGates()
	sc.crashPoints = crashCounts{0: snap.point}
	if rec != nil {
		rec.Inner, rec.Labeler = sc.stack.Listener(), sc.labelFor
		sc.recorder = rec
	}
	// Replay the crash-unwind draws so the rng matches a scratch scenario
	// whose scheduler unwound the remaining threads at the crash. These must
	// be Intn calls, not raw skips: Intn may reject draws, and the scratch
	// scheduler made the same rejections.
	for j := snap.unwind; j >= 2; j-- {
		sc.rng.Intn(j)
	}
	return sc
}

// runPlanned runs one crash scenario, resuming from snap, or from scratch
// when there is none (the Reference configuration, a probe whose Setup did
// not fit the recovery program, a random run without handover).
// configure, when non-nil, is applied to the scenario before any execution
// — both paths — so read-choice overrides and policy-twin marking attach
// uniformly.
func runPlanned(makeProg func() pmm.Program, opts Options, snap *snapshot, p plan, persist PersistPolicy, seed int64, configure func(*scenario)) *scenario {
	if snap == nil {
		sc := newScenario(makeProg, opts, p, persist, seed)
		if configure != nil {
			configure(sc)
		}
		sc.run()
		return sc
	}
	sc := resumeScenario(opts, snap, p, persist)
	if configure != nil {
		configure(sc)
	}
	sc.finish(snap.crashSeq)
	return sc
}
