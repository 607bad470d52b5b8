// Checkpointed pre-crash execution.
//
// A ModelCheck run explores every crash point of one deterministic schedule,
// and historically each of the C crash scenarios re-simulated the pre-crash
// prefix from scratch — O(C·n) simulated operations for an n-operation
// workload, the dominant cost of a sweep. The checkpoint layer removes the
// quadratic term: the planner's probe run (which already executes the full
// schedule once to count its flush/fence points) captures a snapshot at every
// crash point, and each scenario resumes from its point's snapshot,
// simulating only the crash, the image derivation and the post-crash
// recovery — O(n) + C·capture.
//
// Capture itself is O(changes), not O(state): consecutive crash points of one
// schedule differ by a handful of detector mutations, so only every K-th
// snapshot (keyframeInterval) is a full detector clone — a keyframe — and the
// snapshots between are delta checkpoints: a reference to the previous
// keyframe plus the boundaries of the probe's mutation-journal segment
// (core.Journal) recorded since it. Resume materializes a delta by cloning
// the keyframe's detector and replaying the segment — bit-equivalent to the
// full clone a capture at that point would have taken, because journaling
// covers every detector mutation a pre-crash execution can perform (see
// core/journal.go). The other captured state is cheap without deltas: the
// heap is an O(1) append-only view (pmm.Heap.Snapshot), the persisted image
// is constant for the whole capture window (it is rebuilt only between
// executions) so one clone per sink is shared by every snapshot, and one
// scheduler rng copy serves up to a register length of draws, each snapshot
// recording only its draw count (solo-threaded probes never draw, so one
// copy usually serves all).
//
// On top of the snapshots sits crash-image memoization: at each probed
// point the sink serializes the image-determining state — heap
// shape, persisted image, live threads, rng position, and the detector's
// stores/flush-chains/persist-bounds (core.Execution.AppendStateSignature) —
// and content-hashes it. A point whose serialized state is byte-identical to
// an earlier point's (hash equality is only a filter; a full byte compare
// confirms every match, so a collision can never change results) must yield
// the same persisted image, the same recovery execution and the same races,
// so the planner marks it a duplicate and the merge layer reuses the earlier
// point's recorded verdict instead of re-simulating (explore.go).
//
// What a snapshot holds, and why:
//
//   - the persistent heap (an O(1) capped view; see pmm.Heap.Snapshot) and
//     the detector with its report — a full clone on keyframes, a
//     {keyframe, journal segment} pair on deltas;
//   - the persisted image table, shared per sink (constant per capture
//     window); resume still clones it into scenario-private tables;
//   - the trace recorder's event log, when tracing is on;
//   - the scheduler rng: the point's raw-draw count and a shared copy of
//     the generator at or before it, which a resume skips forward (without
//     the copy, when state mirroring is unavailable — see rngstate.go — it
//     re-seeds and skips), plus the crash-unwind draw count, so a resume
//     reproduces the exact rand.Rand state a from-scratch scenario holds
//     after its crash unwinds the remaining threads;
//   - the crash sequence number — NOT the TSO machine. A crash discards
//     every buffered store and flush by definition, and the post-crash
//     machine is freshly seeded from the image, so the machine's only
//     surviving observable is CurSeq (tso.Machine.Clone exists for tests and
//     tooling, not for this layer).
//
// Snapshots are read-only templates shared by every scenario of a schedule
// (including concurrent workers): a resume clones the detector again (for a
// delta: clones the keyframe and replays the journal, both read-only after
// the probe seals the journal), clones the image table again, and copies the
// heap state and event log into scenario-private objects. Nothing ever
// mutates a snapshot after capture.
//
// The same mechanism handles the recursive cases: a primary scenario that
// expands recovery crashes captures snapshots of its own recovery execution
// (execution index 1) for the multi-crash follow-ups — always full clones,
// since the journal records only pre-crash mutations — and read-choice
// expansions resume from the first-crash snapshot with a persist override.
package engine

import (
	"bytes"
	"hash/maphash"
	"math/rand"
	"sync"

	"yashme/internal/analysis"
	"yashme/internal/core"
	"yashme/internal/pmm"
	"yashme/internal/trace"
	"yashme/internal/vclock"
)

// countingSource is the scheduler's rand.Source64: a math/rand generator
// whose stream position is both counted and copyable. When the rngState
// mirror validates (see rngstate.go) the seeded state is extracted once and
// stepped locally, so fork() can hand a snapshot an independent copy at the
// current position — a resume then continues the stream with a struct copy
// instead of re-seeding and replaying n draws. When the mirror is
// unavailable the stdlib source is kept and resumes fall back to
// seed-and-skip via the draw count; results are byte-identical either way.
type countingSource struct {
	// state is the mirrored register, behind a pointer so copy-on-write
	// forks allocate ~40 bytes instead of the ~5KB lagged-Fibonacci array.
	// When cow is set, state points at a read-only donor (a snapshot's
	// frozen rng) and the first mutation copies it; scenarios that never
	// draw — every solo-threaded resume under a deterministic persist
	// policy — skip the register copy entirely.
	state    *rngState
	cow      bool
	mirrored bool
	src      rand.Source   // fallback only
	s64      rand.Source64 // nil if src lacks Uint64
	n        uint64
}

// newCountingSource returns a source seeded at seed (see reset).
func newCountingSource(seed int64) *countingSource {
	c := new(countingSource)
	c.reset(seed)
	return c
}

// reset is the engine's one way to seed a scheduler stream: it restarts c
// at seed on a mirrored register when the mirror validated, on the stdlib
// source otherwise. A recycled scenario shell resets its own source, so
// the rand.Rand wrapping it stays valid.
func (c *countingSource) reset(seed int64) {
	if !rngMirrorOK {
		*c = *newStdlibSource(seed)
		return
	}
	st := getRngState()
	seedRngState(seed, st)
	*c = countingSource{state: st, mirrored: true}
}

// newStdlibSource is the fallback behind newCountingSource: it keeps the
// math/rand source itself, so fork returns nil and resumes seed-and-skip.
func newStdlibSource(seed int64) *countingSource {
	src := rand.NewSource(seed)
	cs := &countingSource{src: src}
	if s64, ok := src.(rand.Source64); ok {
		cs.s64 = s64
	}
	return cs
}

// release hands a dying scenario's private register to the pool
// getRngState draws from. A copy-on-write source still points at a
// snapshot's frozen register and is never recycled; nor are forks, which
// snapshots own and never release. The source must not draw again.
func (c *countingSource) release() {
	if c.mirrored && !c.cow && c.state != nil {
		rngStatePool.Put(c.state)
	}
	c.state = nil
}

// fork returns an independent eager copy positioned at the current stream
// point, or nil when the state cannot be copied (nil source or mirror
// unavailable).
func (c *countingSource) fork() *countingSource {
	if c == nil || !c.mirrored {
		return nil
	}
	st := getRngState()
	*st = *c.state
	return &countingSource{state: st, mirrored: true, n: c.n}
}

// shareFrom makes c a copy-on-write fork of src positioned at src's
// current stream point: the register copy is deferred to the first draw.
// src must stay read-only for the fork's lifetime — it is only a snapshot
// rng, frozen by the snapshot immutability contract. It reports false, and
// leaves c alone, when src is nil or unmirrored.
func (c *countingSource) shareFrom(src *countingSource) bool {
	if src == nil || !src.mirrored {
		return false
	}
	*c = countingSource{state: src.state, cow: true, mirrored: true, n: src.n}
	return true
}

// materialize resolves a copy-on-write fork before its first mutation.
func (c *countingSource) materialize() {
	if c.cow {
		st := getRngState()
		*st = *c.state
		c.state, c.cow = st, false
	}
}

func (c *countingSource) Int63() int64 {
	c.n++
	if c.mirrored {
		c.materialize()
		return c.state.Int63()
	}
	return c.src.Int63()
}

func (c *countingSource) Uint64() uint64 {
	if c.mirrored {
		c.n++
		c.materialize()
		return c.state.Uint64()
	}
	if c.s64 != nil {
		c.n++
		return c.s64.Uint64()
	}
	// Compose from two Int63 draws exactly as rand.Rand does for sources
	// without Uint64, so the draw count stays equal to the step count.
	c.n += 2
	return uint64(c.src.Int63())>>31 | uint64(c.src.Int63())<<32
}

func (c *countingSource) Seed(seed int64) {
	if c.mirrored {
		if c.cow {
			c.state, c.cow = getRngState(), false
		}
		seedRngState(seed, c.state)
	} else {
		c.src.Seed(seed)
	}
	c.n = 0
}

// rewind steps a mirrored source back by n raw draws, the inverse of skip.
func (c *countingSource) rewind(n uint64) {
	c.materialize()
	for i := uint64(0); i < n; i++ {
		c.state.unstep()
	}
	c.n -= n
}

// skip advances the source by n raw draws (each Int63 call is one step for
// every rand.NewSource implementation, with or without Source64). Skipping
// nothing leaves a copy-on-write fork unmaterialized.
func (c *countingSource) skip(n uint64) {
	if n == 0 {
		return
	}
	if c.mirrored {
		c.materialize()
	}
	for i := uint64(0); i < n; i++ {
		if c.mirrored {
			c.state.Uint64()
		} else {
			c.src.Int63()
		}
	}
	c.n += n
}

var _ rand.Source64 = (*countingSource)(nil)

// snapshotOverheadBytes is the accounted fixed cost of one snapshot shell
// (the struct, the crash-point map, the heap view headers) on top of the
// keyframe clone or journal segment it carries.
const snapshotOverheadBytes = 256

// snapshot is the captured state of a scenario at one crash point:
// everything a resume needs to continue as if it had simulated the prefix
// itself. Snapshots are immutable after capture.
type snapshot struct {
	seed    int64
	execIdx int
	// point is the 1-based flush/fence point captured (0 = completion).
	point int
	// crashSeq is the commit sequence at the point — what the crashed
	// machine's CurSeq would report.
	crashSeq vclock.Seq
	// rngDraws is the stream position at the point; rng is a copy of the
	// generator at or before it (nil when state mirroring is unavailable),
	// from which a resume skips the rngDraws−rng.n remaining draws. The
	// copy is shared with the sink's neighboring snapshots and read-only —
	// resume forks it again. unwind is the number of still-live threads
	// minus one, each of which costs the scheduler one bounded draw while
	// the crash unwinds them.
	rng      *countingSource
	rngDraws uint64
	unwind   int
	// stats is the scenario's operation counts at the point, with the cost
	// counters zeroed (Stats.ZeroCost): a resumed scenario inherits the
	// prefix's per-kind counts but only counts the work it actually
	// performs.
	stats       Stats
	crashPoints map[int]int
	heap        *pmm.Heap
	// det is the full detector clone — set on keyframes (and every snapshot
	// of a non-delta sink), nil on delta snapshots.
	det *core.Detector
	// base/journal/jMark describe a delta snapshot: the detector state is
	// base.det (the previous keyframe) plus journal ops [base.jMark, jMark).
	// materializeDetector rebuilds the full clone on resume.
	base    *snapshot
	journal *core.Journal
	jMark   int
	// extras are read-only clones of the stack's extra analysis passes at
	// the point, nil for a yashme-only stack. Unlike the model they are
	// cloned at every snapshot — the journal records only core.Detector
	// mutations — and resume clones them again.
	extras []analysis.Pass
	rec    *trace.Recorder // nil unless tracing
	image  imageTable
	// owned marks a random-mode handover (handover.go): det and image are
	// the probe's own, not templates, and the snapshot's one resume takes
	// them instead of cloning.
	owned bool
	// setupAllocs/setupNext fingerprint the heap right after Setup.
	setupAllocs int
	setupNext   pmm.Addr
}

// materializeDetector rebuilds the full detector state at the snapshot's
// point. Safe for concurrent use by several resuming workers: the keyframe
// detector and the sealed journal are read-only, and the replay appends
// only into the fresh clone's detached arenas and tables.
func (snap *snapshot) materializeDetector() *core.Detector {
	if snap.base == nil {
		return snap.det.Clone()
	}
	return snap.base.det.CloneReplay(snap.journal, snap.base.jMark, snap.jMark)
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
// only while the probe runs, so the sink returns it to sigIndexPool when
// the capture window closes and the next probe reuses the grown slab.
type sigIndex struct {
	slab    []byte
	classes map[uint64][]sigClass
}

var sigIndexPool = sync.Pool{New: func() any { return &sigIndex{classes: make(map[uint64][]sigClass)} }}

// snapshotSink collects the snapshots of one watched execution, keyed by
// crash point. All sink state is touched only by the probing scenario's
// goroutine during the capture window; afterwards it is read-only and may
// be shared across workers.
type snapshotSink struct {
	// execIdx is the execution index the sink watches (0 = pre-crash
	// workload, 1 = the first recovery run).
	execIdx int
	// max caps the points captured (0 = all); mirrors MaxCrashPoints /
	// RecoveryCrashes so unexplored points cost nothing.
	max   int
	snaps map[int]*snapshot

	// Delta capture (configureProbe): keyframe is the full-clone interval
	// (0 = deltas disabled, every capture a full clone), journal the
	// mutation journal attached to the probed detector, lastKey the current
	// keyframe and sinceKey the snapshots taken since it (inclusive).
	keyframe int
	journal  *core.Journal
	lastKey  *snapshot
	sinceKey int

	// Per-sink shared captures: the persisted image is constant during one
	// execution's capture window (it is rebuilt only between executions),
	// so the first capture clones it once for every snapshot; rng is the
	// generator copy the snapshots since it share (capture).
	image      imageTable
	imageTaken bool
	rng        *countingSource

	// Crash-image memoization (configureProbe): sigs files the points by
	// state signature, hashed under seed (sigSeed unless a test swaps it),
	// during the capture window; dups maps a duplicate point to its class
	// representative's point.
	dedup  bool
	seed   maphash.Seed
	sigBuf []byte
	sigs   *sigIndex
	dups   map[int]int
}

// sigSeed is the per-process seed of the signature hash. A seed that
// differs between processes is safe: the hash only routes a signature to
// candidate classes, file confirms every match with bytes.Equal, and
// nothing iterates or orders sigIndex.classes (it is only indexed and
// cleared), so no output depends on the hash values.
var sigSeed = maphash.MakeSeed()

func newSnapshotSink(execIdx, max int) *snapshotSink {
	return &snapshotSink{execIdx: execIdx, max: max, snaps: make(map[int]*snapshot)}
}

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

// configureProbe arms delta capture and memoization on an exec-0 probe
// sink, per the options. Recovery sinks (execIdx 1) keep plain full-clone
// capture: their window spans post-crash mutations (lastflush/CVpre joins,
// report adds) the journal does not record.
func (k *snapshotSink) configureProbe(opts Options, det *core.Detector) {
	if opts.keyframe > 1 {
		k.keyframe = opts.keyframe
		k.journal = &core.Journal{}
		det.SetJournal(k.journal)
	}
	if dedupEnabled(opts) {
		k.dedup = true
		k.seed = sigSeed
		k.sigs = sigIndexPool.Get().(*sigIndex)
		k.dups = make(map[int]int)
	}
}

// seal closes the capture window: the signature index goes back to its
// pool, and the journal is detached from the detector before the recovery
// execution starts, so post-crash appends can never pollute the recorded
// segments, and its length is accounted.
func (k *snapshotSink) seal(sc *scenario) {
	if k.sigs != nil {
		clear(k.sigs.classes)
		k.sigs.slab = k.sigs.slab[:0]
		sigIndexPool.Put(k.sigs)
		k.sigs = nil
	}
	if k.journal == nil {
		return
	}
	sc.det.SetJournal(nil)
	sc.stats.JournalOps += int64(k.journal.Len())
}

// observe captures the current flush/fence point (called from atCrashPoint).
func (k *snapshotSink) observe(sc *scenario) {
	p := sc.crashPoints[sc.execIdx]
	if k.max > 0 && p > k.max {
		return
	}
	k.snaps[p] = k.capture(sc, p)
	if k.dedup {
		k.classify(sc, p)
	}
}

// take captures an explicit point — the completion snapshot, point 0. It is
// never classified for memoization: point 0 is captured last but explored
// first (spec index order), so a duplicate there would precede its
// representative in the merge.
func (k *snapshotSink) take(sc *scenario, point int) {
	k.snaps[point] = k.capture(sc, point)
}

// capture records one snapshot: the cheap shell plus either a keyframe
// (full detector clone) or a delta (journal segment boundaries against the
// previous keyframe). Retained bytes are accounted into the capturing
// scenario's stats as they are taken.
func (k *snapshotSink) capture(sc *scenario, point int) *snapshot {
	snap := newSnapshotShell(sc, point)
	sc.stats.SnapshotBytes += analysis.ExtrasFootprintBytes(snap.extras)
	if !k.imageTaken {
		k.image = sc.image.clone()
		k.imageTaken = true
		sc.stats.SnapshotBytes += k.image.footprintBytes()
	}
	snap.image = k.image
	// The scheduler rng is a pure function of (seed, draw count), so
	// snapshots share one forked copy and a resume skips forward from it to
	// the snapshot's rngDraws. A copy is forked at the first capture and
	// again only once the stream has moved rngLen draws past it, so no
	// skip reaches a register length; a solo-threaded probe never draws,
	// so one copy serves every point.
	if k.rng == nil || sc.rngSrc.n-k.rng.n >= rngLen {
		if k.rng = sc.rngSrc.fork(); k.rng != nil {
			sc.stats.SnapshotBytes += rngCopyBytes
		}
	}
	snap.rng = k.rng
	if k.journal != nil {
		snap.jMark = k.journal.Mark()
	}
	if k.journal == nil || k.lastKey == nil || k.sinceKey >= k.keyframe {
		sc.det.MarkShared() // the clone's arenas are views of the live ones
		snap.det = sc.det.Clone()
		k.lastKey, k.sinceKey = snap, 1
		sc.stats.SnapshotBytes += snap.det.FootprintBytes() + snapshotOverheadBytes
	} else {
		snap.base, snap.journal = k.lastKey, k.journal
		k.sinceKey++
		sc.stats.SnapshotBytes += int64(snap.jMark-snap.base.jMark)*core.JournalOpBytes + snapshotOverheadBytes
	}
	return snap
}

// rngCopyBytes is the accounted size of one forked countingSource (the
// mirrored lagged-Fibonacci register dominates).
const rngCopyBytes = 4880

// newSnapshotShell captures the cheap per-point state every snapshot needs
// regardless of capture mode: identity, rng position, stats prefix, crash
// bookkeeping, the O(1) heap view, and the trace log when tracing.
func newSnapshotShell(sc *scenario, point int) *snapshot {
	snap := &snapshot{
		seed:        sc.seed,
		execIdx:     sc.execIdx,
		point:       point,
		crashSeq:    sc.machine.CurSeq(),
		rngDraws:    sc.rngSrc.n,
		stats:       sc.stats,
		crashPoints: make(map[int]int, len(sc.crashPoints)),
		heap:        sc.heap.Snapshot(),
		setupAllocs: sc.setupAllocs,
		setupNext:   sc.setupNext,
	}
	snap.stats.ZeroCost()
	for k, v := range sc.crashPoints {
		snap.crashPoints[k] = v
	}
	if point > 0 {
		// A from-scratch crash at this point unwinds the remaining live
		// threads; the scheduler draws Intn(j) for j = live-1 down to 2.
		snap.unwind = sc.liveThreads - 1
	}
	snap.extras = analysis.CloneExtras(sc.stack.Extras())
	if sc.recorder != nil {
		snap.rec = sc.recorder.Clone(nil, nil)
	}
	return snap
}

// captureSnapshot is a standalone full capture — what a keyframe costs.
// The sink's capture path above shares the image and rng per sink and emits
// deltas between keyframes; this entry point remains for benchmarks and as
// the reference capture.
func captureSnapshot(sc *scenario, point int) *snapshot {
	snap := newSnapshotShell(sc, point)
	snap.rng = sc.rngSrc.fork()
	sc.det.MarkShared()
	snap.det = sc.det.Clone()
	snap.image = sc.image.clone()
	return snap
}

// classify serializes the probe's image-determining state at the point and
// files it into the signature classes: a byte-identical earlier point makes
// this one a duplicate. The serialized state is exactly what the resumed
// scenario's behavior is a function of — the heap shape (Setup fingerprint
// plus allocations and init writes, which within one probe run are fully
// determined by their counts: the run appends deterministically), the
// persisted image, the live-thread count (the crash-unwind draws), the rng
// position (the scheduler and persist-point draws to come), and the
// detector execution state (AppendStateSignature). Equal bytes therefore
// imply an identical image derivation, an identical recovery execution and
// identical race verdicts; the hash only routes to candidates, and
// bytes.Equal confirms every match, so a hash collision can never merge two
// distinct states.
func (k *snapshotSink) classify(sc *scenario, point int) {
	buf := k.sigBuf[:0]
	buf = sigU64(buf, uint64(sc.heap.AllocCount()))
	buf = sigU64(buf, uint64(sc.heap.NextFree()))
	buf = sigU64(buf, uint64(len(sc.heap.InitWrites())))
	buf = sigU64(buf, uint64(sc.liveThreads))
	buf = sigU64(buf, sc.rngSrc.n)
	buf = sc.image.appendSignature(buf)
	buf = sc.det.Current().AppendStateSignature(buf)
	// Extra passes append their own decision-relevant state (nothing for a
	// yashme-only stack, keeping the default signature bytes unchanged):
	// two points only dedup when the WHOLE stack finds them
	// indistinguishable.
	buf = sc.stack.AppendExtrasSignature(buf)
	k.sigBuf = buf
	k.file(point, maphash.Bytes(k.seed, buf), buf)
}

// file places a point's signature into the classes under hash h: an earlier
// class with byte-identical signature makes the point a duplicate of that
// class's representative; same hash with different bytes is a genuine
// collision and records a distinct class, never a duplicate. The hash is a
// parameter (rather than derived here) so tests can force collisions.
func (k *snapshotSink) file(point int, h uint64, buf []byte) {
	x := k.sigs
	for _, c := range x.classes[h] {
		if bytes.Equal(x.slab[c.lo:c.hi], buf) {
			k.dups[point] = c.point
			return
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
}

// sigU64 serializes v little-endian into the signature buffer.
func sigU64(buf []byte, v uint64) []byte {
	return append(buf,
		byte(v), byte(v>>8), byte(v>>16), byte(v>>24),
		byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56))
}

// resumeScenario builds a scenario positioned exactly where a from-scratch
// run of (makeProg, opts, p, persist, snap.seed) would be at snap's crash
// point, without simulating the prefix. The caller continues with
// sc.finish(snap.crashSeq).
//
// The program's closures capture heap handles, so the program and its Setup
// are re-run against a fresh heap first; the snapshot's heap state is then
// grafted into that heap (pmm.Heap.Restore), keeping the handles valid. If
// Setup does not reproduce the snapshot's allocation fingerprint —
// a nondeterministic program — resumption is refused and the caller falls
// back to a from-scratch run, deterministically for every worker count.
func resumeScenario(makeProg func() pmm.Program, opts Options, snap *snapshot, p plan, persist PersistPolicy) (*scenario, bool) {
	prog := makeProg()
	heap := pmm.NewHeap()
	if prog.Setup != nil {
		prog.Setup(heap)
	}
	if heap.AllocCount() != snap.setupAllocs || heap.NextFree() != snap.setupNext {
		return nil, false
	}
	heap.Restore(snap.heap)
	if opts.EADR {
		persist = PersistLatest
	}
	sc := getScenario()
	if snap.owned {
		sc.det, sc.image = snap.det, snap.image
		snap.det, snap.image = nil, imageTable{}
	} else {
		sc.det, sc.image = snap.materializeDetector(), snap.image.clone()
	}
	switch {
	case snap.owned && snap.rng != nil:
		*sc.rngSrc = *snap.rng // the probe's own register, rewound
		snap.rng = nil
	case sc.rngSrc.shareFrom(snap.rng):
		sc.rngSrc.skip(snap.rngDraws - sc.rngSrc.n)
	default:
		sc.rngSrc.reset(snap.seed)
		sc.rngSrc.skip(snap.rngDraws)
	}
	sc.stack = analysis.Rebuild(opts.Analyses, sc.det, analysis.CloneExtras(snap.extras))
	sc.stack.SetLabeler(heap.LabelFor)
	sc.opts = opts
	sc.prog = prog
	sc.heap = heap
	sc.seed = snap.seed
	sc.persist = persist
	sc.crashPlan = p
	sc.execIdx = snap.execIdx
	sc.stats = snap.stats
	sc.setupAllocs = snap.setupAllocs
	sc.setupNext = snap.setupNext
	sc.setGates()
	for k, v := range snap.crashPoints {
		sc.crashPoints[k] = v
	}
	if opts.Trace && snap.rec != nil {
		sc.recorder = snap.rec.Clone(sc.stack.Listener(), heap.LabelFor)
	}
	// Replay the crash-unwind draws so the rng matches a scratch scenario
	// whose scheduler unwound the remaining threads at the crash. These must
	// be Intn calls, not raw skips: Intn may reject draws, and the scratch
	// scheduler made the same rejections.
	for j := snap.unwind; j >= 2; j-- {
		sc.rng.Intn(j)
	}
	return sc, true
}

// runPlanned runs one crash scenario, resuming from snap when possible and
// falling back to a from-scratch run otherwise (snap == nil, as in the
// Reference configuration, or a fingerprint mismatch). configure, when
// non-nil, is applied to the scenario before any execution — both paths —
// so read-choice overrides and recovery sinks attach uniformly.
func runPlanned(makeProg func() pmm.Program, opts Options, snap *snapshot, p plan, persist PersistPolicy, seed int64, configure func(*scenario)) *scenario {
	if snap != nil {
		if sc, ok := resumeScenario(makeProg, opts, snap, p, persist); ok {
			if configure != nil {
				configure(sc)
			}
			sc.finish(snap.crashSeq)
			return sc
		}
	}
	sc := newScenario(makeProg, opts, p, persist, seed)
	if configure != nil {
		configure(sc)
	}
	sc.run()
	return sc
}
