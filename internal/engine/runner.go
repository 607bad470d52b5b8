package engine

import (
	"fmt"
	"math/rand"
	"sync"

	"yashme/internal/addridx"
	"yashme/internal/analysis"
	"yashme/internal/core"
	"yashme/internal/pmm"
	"yashme/internal/report"
	"yashme/internal/trace"
	"yashme/internal/tso"
	"yashme/internal/vclock"
)

// plan maps an execution index (0 = pre-crash workload, 1 = first recovery
// run) to the 1-based flush/fence point to crash before. A zero entry, and
// every execution past the plan, runs to completion (modelled as a power
// loss at completion: unflushed data is still at risk). A plan is a value:
// specs and scenarios copy it, and building one allocates nothing.
type plan [2]int

// at returns the crash point of execution i.
func (p plan) at(i int) int {
	if i < len(p) {
		return p[i]
	}
	return 0
}

// crashCounts counts the flush/fence points seen per execution index. An
// execution past the pre-crash one starts only after a crash its
// predecessor's plan entry fired, so a scenario runs at most len(plan)+1
// executions.
type crashCounts [len(plan{}) + 1]int

// errCrash is the sentinel panic that unwinds simulated threads at a crash.
var errCrash = fmt.Errorf("engine: simulated crash")

// provCand is one candidate store a post-crash load could read from: the
// execution's stack index (== core.Execution.ID; candidates can span several
// executions in multi-crash scenarios) and the store's arena ref within it.
// Both survive Detector.Clone unchanged, so image provenance needs no
// remapping across checkpoint snapshots, and candidate identity is plain
// struct equality. The zero value means "no store".
type provCand struct {
	exec int32
	ref  core.StoreRef
}

// execOf resolves a candidate's execution against this scenario's detector.
func (sc *scenario) execOf(c provCand) *core.Execution { return sc.det.Executions()[c.exec] }

// storeOf resolves a candidate's record, nil for the zero candidate.
func (sc *scenario) storeOf(c provCand) *core.StoreRecord {
	if c.ref == 0 {
		return nil
	}
	return sc.execOf(c).ByRef(c.ref)
}

// imageEntry is the persisted-image record for one address after a crash:
// the value a post-crash load reads, plus the provenance the detector
// needs to check candidate reads. Setup-time initial values have
// no candidates (they are fully persisted by definition).
type imageEntry struct {
	val  uint64
	size int32
	// differs marks an entry whose chosen store differs between the
	// PersistLatest and PersistMinimal images of the crash (set only by a
	// scenario with markTwins; see runSpec).
	differs bool
	// candidates are the stores a post-crash load of this address could
	// read from, oldest first.
	candidates []provCand
	// chosen is the candidate the image committed to (zero-value = the
	// address kept its Setup-time initial value).
	chosen provCand
	// prevVal is the image value before the chosen store; used to
	// synthesize torn values.
	prevVal uint64
}

// imageTable is the persisted memory image, stored two-level: a dense
// address-indexed table (the heap's Addr space is compact, see
// internal/addridx) maps each written address to a slot in a packed entries
// slice. Post-crash loads resolve with two bounds checks instead of a map
// hash, and the checkpoint layer's image copies are two flat copies — 4
// index bytes per heap address plus one entry per written address, far
// smaller than a dense table of the ~70-byte entries themselves. Candidate
// slices are immutable once stored (buildImage always assembles fresh ones
// and provenance is positional), so clones share them safely.
type imageTable struct {
	// idx maps Addr -> 1-based entries slot (0 = no image record).
	idx     addridx.Table[int32]
	entries []imageEntry
	// box is the pool slot the backing came in (nil for a fresh table);
	// release hands the backing back in it.
	box *imageTable
}

// lookup returns the entry for a, nil if the address has no image record.
// The pointer is invalidated by the next set of a new address.
func (t *imageTable) lookup(a pmm.Addr) *imageEntry {
	if p := t.idx.Peek(a); p != nil && *p != 0 {
		return &t.entries[*p-1]
	}
	return nil
}

// at returns a copy of the entry for a (the zero entry if absent).
func (t *imageTable) at(a pmm.Addr) (imageEntry, bool) {
	if e := t.lookup(a); e != nil {
		return *e, true
	}
	return imageEntry{}, false
}

// set records e as the image entry for a.
func (t *imageTable) set(a pmm.Addr, e imageEntry) {
	if p := t.idx.Peek(a); p != nil && *p != 0 {
		t.entries[*p-1] = e
		return
	}
	t.entries = append(t.entries, e)
	t.idx.Set(a, int32(len(t.entries)))
}

// clone returns an independent flat copy, on a recycled backing when one is
// free (a resumed scenario's image usually fits in arrays an earlier
// scenario grew); candidate slices are shared (they are immutable once
// stored).
func (t *imageTable) clone() imageTable {
	c := newImageTable()
	c.idx.CopyFrom(&t.idx)
	c.entries = append(c.entries, t.entries...)
	return c
}

// imagePool holds the emptied backings of dead scenarios' image tables.
var imagePool sync.Pool

// newImageTable returns an empty table, on a recycled backing when one is
// free.
func newImageTable() imageTable {
	if b, _ := imagePool.Get().(*imageTable); b != nil {
		t := *b
		t.box = b
		return t
	}
	return imageTable{}
}

// release empties the table and hands its backing to the pool, in the box
// it came in. Only a scenario's own table passes through here: snapshot
// tables are clones the scenario never owned. The entries are cleared so
// the pooled array does not keep the dead scenario's candidate slab alive.
func (t *imageTable) release() {
	t.idx.Reset()
	clear(t.entries)
	b := t.box
	if b == nil {
		b = new(imageTable)
	}
	*b = imageTable{idx: t.idx, entries: t.entries[:0]}
	imagePool.Put(b)
	*t = imageTable{}
}

// forEach visits every present entry in ascending address order.
func (t *imageTable) forEach(f func(pmm.Addr, *imageEntry)) {
	for a, n := pmm.Addr(0), pmm.Addr(t.idx.Len()); a < n; a++ {
		if p := t.idx.Peek(a); *p != 0 {
			f(a, &t.entries[*p-1])
		}
	}
}

// reserve pre-sizes the table for addresses [0, addrBound) and up to
// entries additional entries, so an ascending fill allocates once.
func (t *imageTable) reserve(addrBound, entries int) {
	t.idx.Reserve(addrBound)
	if need := len(t.entries) + entries; need > cap(t.entries) {
		s := make([]imageEntry, len(t.entries), need)
		copy(s, t.entries)
		t.entries = s
	}
}

// imageEntryBytes is the accounted retained size of one image entry plus its
// index slot, for Stats.SnapshotBytes (fixed for platform stability).
const imageEntryBytes = 72

// footprintBytes estimates the retained size of one table clone.
func (t *imageTable) footprintBytes() int64 {
	return int64(len(t.entries))*imageEntryBytes + int64(t.idx.Len())*4
}

// scenario runs one crash plan end to end.
type scenario struct {
	opts Options
	// workers and recovery are the program's pre-crash and recovery thread
	// functions. A resumed scenario has no workers: its recovery is the
	// run's shared recovery program's (checkpoint.go, recoveryProgram).
	workers, recovery []func(*pmm.Thread)
	// heap is the scenario's persistent heap: for a from-scratch scenario
	// the one its program's Setup built, for a resumed one &view, the
	// scenario's own O(1) header over the snapshot's capped view. A
	// recovery allocation copies the view on its first append, so what one
	// scenario allocates no other sees.
	heap *pmm.Heap
	view pmm.Heap
	// labelFor names an address on the scenario's heap. It is bound to the
	// shell once (getScenario), so each scenario's analyses label through
	// it without a closure of their own.
	labelFor func(pmm.Addr) string
	// stack is the scenario's analysis stack (internal/analysis); det is
	// its always-present Yashme core model — the image derivation and
	// candidate provenance are functions of its execution state regardless
	// of which passes are selected. A resumed scenario's stack is stackVal,
	// rebuilt in place around the snapshot's detectors.
	stack    *analysis.Stack
	stackVal analysis.Stack
	det      *core.Detector
	// yashmeChecks gates the model's candidate race checks (the "yashme"
	// pass is selected and the detector is on); crashChecks gates the xfd
	// detector's post-crash read classification.
	yashmeChecks bool
	crashChecks  bool
	machine      *tso.Machine
	recorder     *trace.Recorder // nil unless Options.Trace
	rng          *rand.Rand
	// rngSrc is rng's underlying source, wrapped to count raw draws so a
	// snapshot can record the stream position (checkpoint.go).
	rngSrc *countingSource
	// seed is the scheduler/persist seed; snapshots carry it so a resumed
	// scenario can rebuild the identical rng stream.
	seed    int64
	persist PersistPolicy

	crashPlan plan
	// crashPoints counts flush/fence points seen per execution index.
	crashPoints crashCounts
	execIdx     int
	crashed     bool

	// persistOverride pins specific cache lines to specific persist points
	// (read-choice exploration); lines not listed follow the policy.
	persistOverride map[pmm.Line]vclock.Seq
	// lineChoices records, per cache line, the candidate persist points the
	// first crash image offered — the read-exploration frontier.
	lineChoices map[pmm.Line][]vclock.Seq

	image imageTable
	// markTwins has buildImage mark the image entries on which the
	// PersistLatest and PersistMinimal images differ; readDiffers records
	// that the recovery loaded one (runSpec's policy twins).
	markTwins   bool
	readDiffers bool
	stats       Stats
	// opCount is the watchdog counter for the current execution.
	opCount int
	// sched is the pooled controlled-scheduler state, reused across every
	// execution of the scenario (pre-crash + recovery runs).
	sched schedState
	// addrScratch/choiceScratch are buildImage's reusable buffers: the
	// stored-address walk and the per-line persist-point choices.
	addrScratch   []pmm.Addr
	choiceScratch []vclock.Seq
	// candSlab is the backing store image-entry candidate lists are carved
	// from: one growing array per scenario instead of a fresh slice per
	// address per crash image. Carved ranges are never appended to again
	// (full-slice caps), so entries stay valid as the slab grows.
	candSlab []provCand

	// positions, when set, logs the position of every crash point of the
	// pre-crash execution: the planner sets it on its probes, which run only
	// that execution and are then walked backwards (handover.go).
	positions *positionLog
	// liveThreads mirrors the scheduler's live-thread count; a snapshot
	// records it to replay the crash-unwind rng draws on resume.
	liveThreads int
}

func newScenario(makeProg func() pmm.Program, opts Options, p plan, persist PersistPolicy, seed int64) *scenario {
	prog := makeProg()
	heap := pmm.NewHeap()
	if prog.Setup != nil {
		prog.Setup(heap)
	}
	benchmark := opts.Benchmark
	if benchmark == "" {
		benchmark = prog.Name
	}
	if opts.EADR {
		// eADR: every committed store is persistent; the image is always
		// the latest committed state.
		persist = PersistLatest
	}
	sc := getScenario()
	stack, err := analysis.NewStack(opts.Analyses, core.Config{
		Prefix:      opts.Prefix,
		EADR:        opts.EADR,
		Benchmark:   benchmark,
		Labeler:     sc.labelFor,
		Suppress:    opts.Suppress,
		OwnedClocks: opts.Reference,
	})
	if err != nil {
		panic(fmt.Sprintf("engine: %v", err))
	}
	sc.opts = opts
	sc.workers, sc.recovery = prog.Workers, prog.RecoveryWorkers()
	sc.heap = heap
	sc.stack = stack
	sc.det = stack.Model()
	sc.rngSrc.reset(seed, 0)
	sc.seed = seed
	sc.persist = persist
	sc.crashPlan = p
	sc.image = newImageTable()
	sc.setGates()
	if opts.Trace {
		sc.recorder = trace.NewRecorder(stack.Listener(), sc.labelFor)
	}
	for _, w := range heap.InitWrites() {
		sc.image.set(w.Addr, imageEntry{val: w.Val, size: int32(w.Size), prevVal: w.Val})
		stack.SeedPersisted(w.Addr)
	}
	return sc
}

// scenarioPool holds the shells of retired scenarios (scenario.retire).
var scenarioPool sync.Pool

// getScenario returns an empty scenario shell, recycled when one is free:
// its scheduler state, rng wrapper, labeler and
// image-derivation scratch keep what an earlier scenario grew. The caller
// fills in the rest.
func getScenario() *scenario {
	if sc, _ := scenarioPool.Get().(*scenario); sc != nil {
		return sc
	}
	sc := &scenario{rngSrc: new(countingSource)}
	sc.rng = rand.New(sc.rngSrc)
	sc.labelFor = func(a pmm.Addr) string { return sc.heap.LabelFor(a) }
	return sc
}

// retire hands the dead scenario's private state to the pools the next
// scenario on any worker draws from: its last machine, the detector's
// executions, the xfd detector's undo journal, its report sets, the
// scheduler rng register, the image table, the candidate slab and the
// scenario shell itself.
// It is the one death point of every scenario, called once its reports and
// stats have been harvested (specResult.absorb) or its probe summary taken;
// the scenario must not be touched again. Snapshots taken from the
// scenario hold clones, which own their copies. A random-mode
// probe that handed its detectors, recorder, image and rng register over
// (handover.go) no longer holds them.
func (sc *scenario) retire() {
	tso.Retire(sc.machine)
	sc.rngSrc.release()
	if sc.det != nil {
		for _, rep := range sc.stack.Reports() {
			rep.Release()
		}
		sc.stack.Retire()
		sc.det.Retire()
		sc.image.release()
	}
	shell := scenario{
		rng:           sc.rng,
		rngSrc:        sc.rngSrc,
		labelFor:      sc.labelFor,
		sched:         sc.sched,
		addrScratch:   sc.addrScratch[:0],
		choiceScratch: sc.choiceScratch[:0],
		candSlab:      sc.candSlab[:0],
	}
	*sc = shell
	scenarioPool.Put(sc)
}

// setGates precomputes the per-load analysis gates from the stack and the
// DetectorOff baseline knob (which silences every pass's checks, keeping the
// "Jaaru time" comparison meaningful for any stack).
func (sc *scenario) setGates() {
	sc.yashmeChecks = sc.stack.YashmeSelected() && !sc.opts.DetectorOff
	sc.crashChecks = sc.stack.XFD() != nil && !sc.opts.DetectorOff
}

// run executes the full scenario: pre-crash workload, then recovery runs
// until one completes without crashing.
func (sc *scenario) run() {
	sc.runPreCrash()
	sc.finish(sc.machine.CurSeq())
}

// runPreCrash runs the pre-crash execution only — all a planner's probe
// needs: its crash-point count and the positions logged along the way,
// the completion last.
func (sc *scenario) runPreCrash() {
	sc.startMachine()
	sc.runExecution(sc.workers)
	if sc.positions != nil {
		sc.positions.record(sc, 0)
	}
}

// finish runs the post-crash half of the scenario: the image derivation and
// the recovery executions, starting from a pre-crash execution that ended
// (crashed or completed) at crashSeq. Scenarios resumed from a snapshot
// enter here directly — the snapshot replaces the pre-crash simulation.
//
// Each prior execution ended in a crash (or in completion, treated as a
// final power loss); run the recovery threads until a recovery completes or
// the plan runs out of crashes.
func (sc *scenario) finish(crashSeq vclock.Seq) {
	if sc.recovery == nil {
		return
	}
	for {
		if sc.recorder != nil {
			sc.recorder.Crash(crashSeq)
		}
		sc.buildImage()
		sc.execIdx++
		// Only the model splits executions: the xfd FSM survives a crash
		// unchanged, as XFDetector resumes on the real PM image and the
		// FSM — not the values — decides raciness.
		sc.det.EndExecution(crashSeq)
		sc.startMachine()
		crashedHere := sc.runExecution(sc.recovery)
		if !crashedHere {
			sc.attachWitnesses()
			return
		}
		crashSeq = sc.machine.CurSeq()
	}
}

// attachWitnesses fills race witnesses from the recorded trace (§5.1: the
// report is the race-revealing prefix plus the post-crash execution).
func (sc *scenario) attachWitnesses() {
	if sc.recorder == nil {
		return
	}
	sc.det.Report().AttachWitnesses(func(r report.Race) string {
		return sc.recorder.Witness(r.ExecID, vclock.Seq(r.StoreSeq), pmm.Addr(r.Addr))
	})
}

// startMachine creates a fresh TSO machine for the current execution. Only
// the pre-crash execution's machine is seeded, with the Setup image. A
// recovery's machine starts empty: a load that finds no value the recovery
// itself produced reads across the crash through resolvePostCrashLoad,
// which answers from the image, and the one operation that needs the value
// in the machine, an RMW, seeds its address on first touch (threadOps.RMW).
// A recovery touches a few of the addresses its image holds.
func (sc *scenario) startMachine() {
	listener := sc.stack.Listener()
	if sc.recorder != nil {
		sc.recorder.SetExec(sc.execIdx)
		listener = sc.recorder
	}
	// The previous execution's machine is dead (snapshots capture only its
	// CurSeq); retiring it lets NewMachine — this one or a later scenario's
	// on any worker — reuse its dense memory table and spare record slots.
	tso.Retire(sc.machine)
	// The machine's record stamps must resolve in the detector's clock
	// arena — the stamps cross the listener boundary by value and end up in
	// StoreRecords, lastflush refs and cvpre.
	sc.machine = tso.NewMachine(listener, sc.det.ClockArena())
	if sc.execIdx > 0 {
		return
	}
	// The seed loop ascends; pre-sizing to the image's address bound makes
	// it one allocation (later stores to fresh allocations grow as usual).
	sc.machine.ReserveMemory(sc.image.idx.Len())
	sc.image.forEach(func(addr pmm.Addr, e *imageEntry) {
		sc.machine.SeedMemory(addr, int(e.size), e.val)
	})
}

// threadEvent is a thread → scheduler notification.
type threadEvent struct {
	tid  int
	done bool
}

// schedState is the controlled scheduler's pooled bookkeeping, owned by the
// scenario and reused across all of its executions (pre-crash + every
// recovery run): the event channel, the per-thread slots (ops, Thread
// wrapper, resume channel) and the scratch ready-set. Only the goroutine
// currently holding the grant (or the scheduler, while every thread is
// blocked) touches this state, and every ownership transfer rides a channel
// operation, so access is race-free by the handoff discipline.
type schedState struct {
	// events is the thread → scheduler channel. At most one event is ever
	// in flight (one thread runs at a time), so capacity 1 suffices.
	events   chan threadEvent
	ops      []*threadOps
	threads  []*pmm.Thread
	waiting  []bool
	finished []bool
	panics   []any
	// ready is the per-step scratch ready-set (reused, never reallocated
	// once grown).
	ready []int
	// n is the current execution's thread count (slices may be longer from
	// an earlier, wider execution or a mid-execution spawn).
	n    int
	live int
	// leased marks an active solo-thread direct-run lease: the granted
	// thread's sync() proceeds inline, with no handoff, until the lease is
	// revoked (a spawn makes a second thread runnable) or the thread ends.
	leased bool
}

// begin readies the pooled state for an execution of n threads.
func (s *schedState) begin(n int) {
	if s.events == nil {
		s.events = make(chan threadEvent, 1)
	}
	s.grow(n)
	s.n = n
	s.leased = false
}

// grow extends the per-thread slots to hold n threads.
func (s *schedState) grow(n int) {
	for len(s.ops) < n {
		s.ops = append(s.ops, nil)
		s.threads = append(s.threads, nil)
		s.waiting = append(s.waiting, false)
		s.finished = append(s.finished, false)
		s.panics = append(s.panics, nil)
	}
}

// startThread (re)initializes slot i and launches its goroutine, which
// blocks until the first grant.
func (sc *scenario) startThread(i int, fn func(*pmm.Thread)) {
	s := &sc.sched
	o := s.ops[i]
	if o == nil {
		o = &threadOps{sc: sc, tid: vclock.TID(i), resume: make(chan struct{})}
		s.ops[i] = o
	}
	if th := s.threads[i]; th == nil || th.Heap() != sc.heap {
		// A recycled shell's slots still wrap an earlier scenario's heap.
		s.threads[i] = pmm.NewThread(o, sc.heap)
	}
	o.guarded = false
	o.fn = fn
	s.waiting[i], s.finished[i], s.panics[i] = true, false, nil
	carry(o)
}

// run is a simulated thread's body on its carrier: it waits for the first
// grant, runs the thread function and reports the thread's end.
func (o *threadOps) run() {
	sc, i, fn := o.sc, int(o.tid), o.fn
	s := &sc.sched
	o.fn = nil // a parked slot keeps no workload alive
	defer func() {
		// Workload panics propagate to the scheduler goroutine (so callers
		// can recover them); the crash sentinel unwinds silently.
		if r := recover(); r != nil && r != errCrash {
			s.panics[i] = r
		}
		s.events <- threadEvent{tid: i, done: true}
	}()
	<-o.resume // wait for the first grant
	if sc.crashed {
		panic(errCrash)
	}
	fn(s.threads[i])
}

// maxIdleCarriers bounds the carriers parked between simulated threads.
const maxIdleCarriers = 64

// idleCarriers holds parked carriers: goroutines that ran a simulated
// thread to its end and wait for the next one. A fresh goroutine starts on
// a small stack and regrows it under every simulated thread's deepest call
// (the workload, the engine's operation path, the race label); a carrier
// keeps the stack it grew. Any worker may take any carrier, since a
// carrier holds no state between threads.
var idleCarriers = make(chan chan *threadOps, maxIdleCarriers)

// carry runs the simulated thread o on a parked carrier goroutine, or on a
// new one when none is idle. Handing over the thread's slot, not a
// closure, makes a thread start allocate nothing once carriers are warm.
func carry(o *threadOps) {
	select {
	case c := <-idleCarriers:
		c <- o
	default:
		go carrier(o)
	}
}

// carrier runs o's thread, then parks in idleCarriers and runs the next
// thread sent on its channel; it exits when the idle set is full.
func carrier(o *threadOps) {
	c := make(chan *threadOps, 1)
	for {
		o.run()
		select {
		case idleCarriers <- c:
			o = <-c
		default:
			return
		}
	}
}

// spawnThread registers fn as a new simulated thread (Thread.Go). It runs on
// the granting thread's goroutine — the only one executing — while the
// scheduler is blocked on the event channel; the scheduler observes the new
// thread at its next scheduling step. Any direct-run lease is revoked: with
// two runnable threads the scheduler has real decisions to make again.
func (sc *scenario) spawnThread(fn func(*pmm.Thread)) {
	s := &sc.sched
	i := s.n
	s.n++
	s.grow(s.n)
	sc.machine.SpawnThreads(s.n)
	sc.startThread(i, fn)
	s.live++
	sc.liveThreads = s.live
	s.leased = false
}

// runExecution runs the given thread functions under the controlled
// scheduler; it returns whether the execution ended in an injected crash.
func (sc *scenario) runExecution(fns []func(*pmm.Thread)) bool {
	sc.crashed = false
	sc.opCount = 0
	n := len(fns)
	if n == 0 {
		return false
	}
	// Declare the dense TID range up front: threads are numbered 0..n-1, and
	// the machine's slice-backed state panics on any TID outside it.
	sc.machine.SpawnThreads(n)
	s := &sc.sched
	s.begin(n)
	for i := range fns {
		sc.startThread(i, fns[i])
	}
	s.live = n
	sc.liveThreads = n
	for s.live > 0 {
		// Pick a waiting, unfinished thread. Deterministic given the seed.
		s.ready = s.ready[:0]
		for i := 0; i < s.n; i++ {
			if s.waiting[i] && !s.finished[i] {
				s.ready = append(s.ready, i)
			}
		}
		if len(s.ready) == 0 {
			panic("engine: scheduler deadlock (no runnable simulated thread)")
		}
		pick := s.ready[0]
		if len(s.ready) > 1 {
			pick = s.ready[sc.rng.Intn(len(s.ready))]
		} else if !sc.opts.Reference {
			// Solo-run fast path: exactly one runnable thread means the
			// scheduler has no decision to make (and, crucially, no rng
			// draw), so grant a direct-run lease — the thread's sync()
			// proceeds inline with no handoff until the lease ends.
			s.leased = true
		}
		s.waiting[pick] = false
		s.ops[pick].resume <- struct{}{}
		ev := <-s.events
		s.leased = false
		if ev.done {
			s.finished[ev.tid] = true
			s.live--
			sc.liveThreads = s.live
			if p := s.panics[ev.tid]; p != nil {
				panic(p) // re-raise the workload panic in the caller
			}
			if !sc.crashed {
				// The thread completed normally; its buffered stores drain
				// (the hardware eventually writes them to the cache).
				sc.machine.DrainSB(vclock.TID(ev.tid))
			}
			continue
		}
		s.waiting[ev.tid] = true
	}
	return sc.crashed
}

// crashNow is called from inside a simulated thread when the plan's crash
// point is reached: it marks the scenario crashed and unwinds the thread.
// Store buffers are NOT drained — buffered operations are lost, exactly as
// on real hardware.
func (sc *scenario) crashNow() {
	sc.crashed = true
	panic(errCrash)
}

// atCrashPoint counts a flush/fence point and reports whether the plan says
// to crash before it. A probe logs its position here — after the count,
// before the operation takes effect — which is exactly the state a
// from-scratch scenario holds when its plan fires the crash at this point.
func (sc *scenario) atCrashPoint() bool {
	sc.crashPoints[sc.execIdx]++
	if sc.positions != nil {
		sc.positions.record(sc, sc.crashPoints[0])
	}
	return sc.crashPlan.at(sc.execIdx) == sc.crashPoints[sc.execIdx]
}

// buildImage derives the persisted memory image after the current
// execution's crash. Per cache line, the persist point is chosen between
// the line's guaranteed flush floor and the crash; every address on the
// line takes the latest store at or before that point. All stores after the
// floor remain candidates for post-crash loads (the line might have been
// written back at any moment), which is what the detector checks races
// against.
func (sc *scenario) buildImage() {
	e := sc.det.Current()
	// The stored-address walk ascends (the store table is address-indexed),
	// so each cache line's addresses form one contiguous run and the lines
	// come out sorted — no grouping maps, no sorting, and the scratch buffer
	// keeps the walk allocation-free across executions.
	sc.addrScratch = e.AppendStoredAddrs(sc.addrScratch[:0])
	addrs := sc.addrScratch
	// The fill below touches those addresses ascending; pre-sizing the
	// image table to the stored-address bound and count turns the
	// geometric growth into one allocation each.
	if len(addrs) > 0 {
		sc.image.reserve(int(addrs[len(addrs)-1])+1, len(addrs))
	}
	for start := 0; start < len(addrs); {
		line := pmm.LineOf(addrs[start])
		end := start + 1
		for end < len(addrs) && pmm.LineOf(addrs[end]) == line {
			end++
		}
		sc.buildLineImage(e, line, addrs[start:end])
		start = end
	}
}

// sortSeqs sorts a short persist-point choice list ascending. Insertion sort:
// the lists are a handful of elements, and sort.Slice would allocate its
// closure and swapper on every line of every scenario.
func sortSeqs(s []vclock.Seq) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// buildLineImage derives the image for one cache line from its stored
// addresses (ascending).
func (sc *scenario) buildLineImage(e *core.Execution, line pmm.Line, lineAddrs []pmm.Addr) {
	// Floor: the newest store on the line guaranteed persisted by an
	// explicit flush. The flush wrote back the whole line, so the
	// persist point cannot precede it.
	var floor vclock.Seq
	for _, a := range lineAddrs {
		if lb := e.PersistLB(a); lb != nil && lb.Seq > floor {
			floor = lb.Seq
		}
	}
	// Persist-point choices: the floor itself or any later store commit
	// on the line.
	choices := append(sc.choiceScratch[:0], floor)
	for _, a := range lineAddrs {
		for s := e.Latest(a); s != nil; s = e.ByRef(s.Prev()) {
			if s.Seq > floor {
				choices = append(choices, s.Seq)
			}
		}
	}
	sortSeqs(choices)
	sc.choiceScratch = choices
	if sc.lineChoices != nil && sc.execIdx == 0 {
		sc.lineChoices[line] = append([]vclock.Seq(nil), choices...)
	}
	var point vclock.Seq
	switch sc.persist {
	case PersistLatest:
		point = choices[len(choices)-1]
	case PersistMinimal:
		point = choices[0]
	case PersistRandom:
		point = choices[sc.rng.Intn(len(choices))]
	}
	if over, ok := sc.persistOverride[line]; ok {
		point = over
	}
	// Policy twins: the effective Latest and Minimal points, whose chosen
	// stores are compared per address. Under eADR both policies take the
	// latest image, so nothing differs.
	mark := sc.markTwins && !sc.opts.EADR
	hi, lo := choices[len(choices)-1], choices[0]

	for _, a := range lineAddrs {
		prev, hadPrev := sc.image.at(a)
		entry := imageEntry{prevVal: prev.val, size: prev.size}
		// Older candidates stay checkable: a load in a later execution
		// could still observe a torn value from two crashes ago.
		base := len(sc.candSlab)
		sc.candSlab = append(sc.candSlab, prev.candidates...)
		var chosen, atHi, atLo *core.StoreRecord
		// Walk the per-address chain newest-first (allocation-free), then
		// reverse the freshly appended candidates back to commit order —
		// CandidateLimit trims from the front, so order is observable.
		start := len(sc.candSlab)
		for s := e.Latest(a); s != nil; s = e.ByRef(s.Prev()) {
			if s.Seq > floor || s == e.PersistLB(a) {
				sc.candSlab = append(sc.candSlab, provCand{exec: int32(e.ID), ref: s.Ref()})
			}
			if s.Seq <= point && chosen == nil {
				chosen = s
			}
			if mark {
				if s.Seq <= hi && atHi == nil {
					atHi = s
				}
				if s.Seq <= lo && atLo == nil {
					atLo = s
				}
			}
		}
		entry.differs = atHi != atLo
		for i, j := start, len(sc.candSlab)-1; i < j; i, j = i+1, j-1 {
			sc.candSlab[i], sc.candSlab[j] = sc.candSlab[j], sc.candSlab[i]
		}
		if n := len(sc.candSlab); n > base {
			entry.candidates = sc.candSlab[base:n:n]
		}
		if chosen != nil {
			entry.chosen = provCand{exec: int32(e.ID), ref: chosen.Ref()}
			entry.val = chosen.Val
			entry.size = int32(chosen.Size)
		} else {
			// Nothing new persisted; the previous image value survives
			// along with its provenance.
			entry.chosen = prev.chosen
			entry.val = prev.val
			entry.prevVal = prev.prevVal
			if !hadPrev {
				entry.size = 8
			}
		}
		sc.image.set(a, entry)
	}
}

// resolvePostCrashLoad handles a load that reads a value seeded from the
// persisted image: it race-checks every candidate store and commits the
// observation of the chosen one. Returns the value the load sees. It is the
// recovery's one reader of image entries (an RMW's read comes through here
// too), so it is where a read of a differing entry is recorded.
func (sc *scenario) resolvePostCrashLoad(tid vclock.TID, addr pmm.Addr, size int, atomicLoad, guarded bool) uint64 {
	entry := sc.image.lookup(addr)
	if entry == nil {
		return 0
	}
	if entry.differs {
		sc.readDiffers = true
	}
	chosenStore := sc.storeOf(entry.chosen)
	if len(entry.candidates) == 0 && chosenStore == nil {
		return truncVal(entry.val, size) // Setup-time initial value
	}
	var chosenRaced bool
	if sc.yashmeChecks {
		cands := entry.candidates
		if lim := sc.opts.CandidateLimit; lim > 0 && len(cands) > lim {
			cands = cands[len(cands)-lim:] // newest candidates only
		}
		for _, cand := range cands {
			if sc.det.CandidateRaced(sc.execOf(cand), sc.storeOf(cand), guarded) && cand == entry.chosen {
				chosenRaced = true
			}
		}
		if chosenStore != nil {
			sc.det.ObserveRead(sc.execOf(entry.chosen), chosenStore)
		}
	}
	val := entry.val
	if sc.opts.TornValues && chosenRaced && !guarded && chosenStore != nil && chosenStore.Size > 1 {
		val = tornValue(entry.prevVal, chosenStore.Val, chosenStore.Size)
		sc.execOf(entry.chosen).MarkTorn(chosenStore)
	}
	if sc.recorder != nil && chosenStore != nil {
		sc.recorder.Observe(tid, addr, truncVal(val, size), int(entry.chosen.exec), chosenStore.Seq, guarded)
	}
	return truncVal(val, size)
}

// tornValue mixes the low half of the new value with the high half of the
// old one — the paper's Figure 1 outcome, where gcc's ARM64 backend splits
// a 64-bit store into two 32-bit store-immediates and only the low half
// persists (printing 0x12345678 from a store of 0x1234567812345678).
func tornValue(oldVal, newVal uint64, size int) uint64 {
	half := uint(size * 8 / 2)
	lowMask := (uint64(1) << half) - 1
	return (oldVal &^ lowMask) | (newVal & lowMask)
}

func truncVal(v uint64, size int) uint64 {
	if size >= 8 {
		return v
	}
	return v & ((uint64(1) << (8 * size)) - 1)
}

// threadOps implements pmm.Ops for one simulated thread: every operation
// synchronizes with the scheduler, performs the TSO action, and applies the
// store-buffer eviction policy. Slots are pooled per scenario (schedState)
// and reused across executions.
type threadOps struct {
	sc      *scenario
	tid     vclock.TID
	resume  chan struct{}
	guarded bool
	// fn is the thread function the slot's current thread runs.
	fn func(*pmm.Thread)
}

var (
	_ pmm.Ops     = (*threadOps)(nil)
	_ pmm.Spawner = (*threadOps)(nil)
)

func (t *threadOps) TID() int { return int(t.tid) }

// sync yields to the scheduler and blocks until granted. At a crash the
// grant returns with sc.crashed set and the thread unwinds. Under a
// direct-run lease the thread already holds the grant and no other thread is
// runnable, so sync proceeds inline — no handoff, no goroutine switch. A
// crash mid-lease can only originate from this thread, via crashNow; an
// operation the unwinding thread still issues (a deferred unlock, say)
// must not take effect after the power loss, so it unwinds here exactly
// as a handoff would.
func (t *threadOps) sync() {
	sc := t.sc
	if sc.sched.leased {
		if sc.crashed {
			panic(errCrash)
		}
		sc.stats.DirectOps++
	} else {
		sc.sched.events <- threadEvent{tid: int(t.tid)}
		<-t.resume
		if sc.crashed {
			panic(errCrash)
		}
		sc.stats.Handoffs++
	}
	sc.opCount++
	sc.stats.SimulatedOps++
	if max := sc.opts.MaxOps; max > 0 && sc.opCount > max {
		panic(fmt.Sprintf("engine: execution exceeded %d operations (runaway workload?)", max))
	}
}

// Spawn implements pmm.Spawner: a scheduling point, then the new thread is
// registered — runnable from the caller's next operation. Registration
// happens after sync so the spawned thread cannot be scheduled before the
// spawn point itself is granted.
func (t *threadOps) Spawn(fn func(*pmm.Thread)) {
	t.sync()
	t.sc.spawnThread(fn)
}

// afterOp applies the eviction policy: ModelCheck drains eagerly (one
// deterministic commit order); RandomMode drains a random number of entries,
// exposing store-buffer loss at crashes.
func (t *threadOps) afterOp() {
	m := t.sc.machine
	if t.sc.opts.Mode == ModelCheck {
		m.DrainSB(t.tid)
		return
	}
	for m.SBLen(t.tid) > 0 && (m.SBLen(t.tid) > 8 || t.sc.rng.Intn(2) == 0) {
		m.EvictOne(t.tid)
	}
}

func (t *threadOps) Store(a pmm.Addr, size int, v uint64, atomic, release bool) {
	t.sync()
	t.sc.stats.Stores++
	t.sc.machine.EnqueueStore(t.tid, a, size, v, atomic, release)
	t.afterOp()
}

func (t *threadOps) Load(a pmm.Addr, size int, atomic, acquire bool) uint64 {
	t.sync()
	t.sc.stats.Loads++
	val, rec, fromSB := t.sc.machine.LoadDetail(t.tid, a, size, acquire)
	// The xfd detector classifies every post-crash load — including loads
	// of values the recovery itself produced (its FSM tracks the address's
	// whole history, as XFDetector's does) — so the hook fires before the
	// current-execution short-circuit below.
	if t.sc.execIdx > 0 && t.sc.crashChecks {
		t.sc.stack.CrashRead(a, t.guarded)
	}
	if fromSB || (rec != nil && rec.Seq > 0) {
		return val // a value produced by the current execution
	}
	// Seeded (rec with Seq 0) or absent: the load reads across the crash.
	if t.sc.execIdx > 0 {
		return t.sc.resolvePostCrashLoad(t.tid, a, size, atomic, t.guarded)
	}
	return val
}

func (t *threadOps) RMW(a pmm.Addr, size int, f func(old uint64) (uint64, bool)) (uint64, bool) {
	t.sync()
	if t.sc.atCrashPoint() { // locked RMW has fence semantics: a crash point
		t.sc.crashNow()
	}
	t.sc.stats.RMWs++
	// A cross-crash RMW read observes the image value first, seeding it
	// into the recovery's machine on first touch (see startMachine).
	if sc := t.sc; sc.execIdx > 0 {
		rec, ok := sc.machine.VolatileValue(a)
		if !ok {
			if e := sc.image.lookup(a); e != nil {
				sc.machine.SeedMemory(a, int(e.size), e.val)
				rec, ok = sc.machine.VolatileValue(a)
			}
		}
		if ok && rec.Seq == 0 {
			sc.resolvePostCrashLoad(t.tid, a, size, true, t.guarded)
		}
	}
	return t.sc.machine.RMW(t.tid, a, size, f)
}

func (t *threadOps) CLFlush(a pmm.Addr) {
	t.sync()
	if t.sc.atCrashPoint() {
		t.sc.crashNow()
	}
	t.sc.stats.Flushes++
	t.sc.machine.EnqueueCLFlush(t.tid, a)
	t.afterOp()
}

func (t *threadOps) CLWB(a pmm.Addr) {
	t.sync()
	if t.sc.atCrashPoint() {
		t.sc.crashNow()
	}
	t.sc.stats.Flushes++
	t.sc.machine.EnqueueCLWB(t.tid, a)
	t.afterOp()
}

func (t *threadOps) SFence() {
	t.sync()
	if t.sc.atCrashPoint() {
		t.sc.crashNow()
	}
	t.sc.stats.Fences++
	t.sc.machine.EnqueueSFence(t.tid)
	t.afterOp()
}

func (t *threadOps) MFence() {
	t.sync()
	if t.sc.atCrashPoint() {
		t.sc.crashNow()
	}
	t.sc.stats.Fences++
	t.sc.machine.MFence(t.tid)
}

func (t *threadOps) Yield() { t.sync() }

func (t *threadOps) SetChecksumGuard(on bool) { t.guarded = on }
