// Probe position logs and the backward walk (DESIGN.md §4.1).
//
// Both modes put a detector at a crash point the same way. A probe runs the
// schedule's pre-crash execution to completion once, with an undo journal
// attached to its detector (core.Detector.AttachUndo), and logs a compact
// position at every crash point. A model-check probe also keeps what the
// journal cannot rewind on the way forward: clones of the extra analysis
// passes and of the trace recorder, and a frozen rng copy per register
// length of draws. After the run, the planner walks the points backwards
// and at each rewinds the probe to the point:
//
//   - Model checking explores every point, so each gets a private copy of
//     the rewound detector and of the image. A duplicate point under
//     crash-image memoization gets only its operation counts.
//   - A random execution's crash point c is drawn from the number of points
//     its schedule reaches, so c is known only after the probe. It has
//     exactly one consumer, so the probe's own detector and image go into
//     its snapshot uncopied, and its rng register, which has moved past c,
//     is stepped back to c's draw count (every draw is one invertible
//     generator step) and handed over too; only an unmirrored fallback
//     source makes the resume seed and skip.
package engine

import (
	"hash/maphash"
	"sync"

	"yashme/internal/analysis"
	"yashme/internal/core"
	"yashme/internal/pmm"
	"yashme/internal/trace"
	"yashme/internal/vclock"
)

// handoverEnabled reports whether random-mode probes hand their rewound
// state to their crash scenario. The Reference configuration re-simulates
// by definition. Extra analysis passes cannot be rewound, and a random
// probe would have to clone them forward at every point for the one it
// hands over: a stacked Table 4 run measured about four times slower that
// way than re-simulating. Under Trace the scenario re-simulates too, which
// keeps the recorder's event log its own. Every such run takes the
// from-scratch path (snap == nil).
func handoverEnabled(opts Options) bool {
	return opts.Mode == RandomMode &&
		!opts.Reference &&
		!opts.Trace &&
		len(opts.Analyses) == 1 && opts.Analyses[0] == analysis.Yashme
}

// probePoint is a probe's position at one crash point: what a scenario
// crashing there holds beyond the rewound detector and the image.
type probePoint struct {
	crashSeq vclock.Seq
	rngDraws uint64
	// stores..rmws are the per-kind operation counts (Stats.Stores through
	// Stats.RMWs); a snapshot zeroes the other counters anyway.
	stores, loads, flushes, fences, rmws int64
	heapNext                             pmm.Addr
	live, allocs, inits, jMark           int
}

// keptPoint is what a model-check probe keeps beside a position, on the
// way forward, for a point it will copy: the frozen rng copy and clones of
// the extra passes and the trace recorder, none of which the journal can
// rewind. A duplicate point under crash-image memoization keeps only its
// representative (dupOf; 0 = none).
type keptPoint struct {
	dupOf  int
	rng    *countingSource
	extras []analysis.Pass
	rec    *trace.Recorder
}

// positionLog is the planner's record of one probe at a time: points[p]
// is the position at crash point p, points[0] the completion. Every probe
// reuses the slices, the journal and the signature buffer, and planners
// take logs from a pool, so logging a point allocates nothing once they
// have grown (beyond the forward clones a stack with extra passes needs).
type positionLog struct {
	journal core.Journal
	points  []probePoint
	// copies marks a model-check probe, whose points each get a private
	// copy, possibly resumed several times; kept runs parallel to points
	// for it alone. max caps the points logged (0 = all), and rng is the
	// latest frozen rng copy.
	copies bool
	kept   []keptPoint
	max    int
	rng    *countingSource
	// recovery is the run's shared recovery program's recovery, which the
	// probe's snapshots resume with.
	recovery []func(*pmm.Thread)
	// Crash-image memoization (model checking, dedupEnabled): sigs files
	// the points by state signature, hashed under seed (sigSeed unless a
	// test swaps it), while the probe runs.
	dedup  bool
	seed   maphash.Seed
	sigBuf []byte
	sigs   *sigIndex
}

// positionLogPool holds the logs of finished planners.
var positionLogPool = sync.Pool{New: func() any { return new(positionLog) }}

// watch arms the log for a fresh probe run under opts whose snapshots
// resume with recovery: the detector records into the emptied undo journal
// and the points restart.
func (pl *positionLog) watch(probe *scenario, opts Options, recovery []func(*pmm.Thread)) {
	probe.det.AttachUndo(&pl.journal)
	pl.recovery = recovery
	pl.points = append(pl.points[:0], probePoint{})
	pl.copies = opts.Mode == ModelCheck
	pl.max = 0
	if pl.copies {
		pl.kept = append(pl.kept[:0], keptPoint{})
		pl.max = opts.MaxCrashPoints
	}
	pl.rng = nil
	pl.dedup = dedupEnabled(opts)
	if pl.dedup {
		pl.seed = sigSeed
		pl.sigs = sigIndexPool.Get().(*sigIndex)
	}
	probe.positions = pl
}

// record logs the probe's position at point p (0 = completion, logged
// last). Crash points arrive in ascending order, so point p lands at index
// p; points past the cap are not logged.
func (pl *positionLog) record(sc *scenario, p int) {
	if pl.max > 0 && p > pl.max {
		return
	}
	st := &sc.stats
	pos := probePoint{
		crashSeq: sc.machine.CurSeq(),
		rngDraws: sc.rngSrc.n,
		stores:   st.Stores,
		loads:    st.Loads,
		flushes:  st.Flushes,
		fences:   st.Fences,
		rmws:     st.RMWs,
		heapNext: sc.heap.NextFree(),
		live:     sc.liveThreads,
		allocs:   sc.heap.AllocCount(),
		inits:    len(sc.heap.InitWrites()),
		jMark:    pl.journal.Mark(),
	}
	var k keptPoint
	if pl.copies {
		k = pl.keep(sc, p)
	}
	if p == 0 {
		pl.points[0] = pos
		if pl.copies {
			pl.kept[0] = k
		}
		pl.seal()
		return
	}
	pl.points = append(pl.points, pos)
	if pl.copies {
		pl.kept = append(pl.kept, k)
	}
}

// keep classifies model-check point p and, unless it is a duplicate,
// takes the forward clones its copy will need, accounting their bytes into
// the probe's stats. Point 0 is logged last but explored first (spec index
// order), so a duplicate there would precede its representative: it is
// never classified.
func (pl *positionLog) keep(sc *scenario, p int) (k keptPoint) {
	if pl.dedup && p > 0 {
		if k.dupOf = pl.classify(sc, p); k.dupOf > 0 {
			return k
		}
	}
	pl.rng = forkRng(sc, pl.rng)
	k.rng = pl.rng
	k.extras = analysis.CloneExtras(sc.stack.Extras())
	sc.stats.SnapshotBytes += analysis.ExtrasFootprintBytes(k.extras)
	if sc.recorder != nil {
		k.rec = sc.recorder.Clone(nil, nil)
	}
	return k
}

// seal ends the classification window with the pre-crash execution: the
// signature index goes back to its pool for the next probe.
func (pl *positionLog) seal() {
	if pl.sigs != nil {
		clear(pl.sigs.classes)
		pl.sigs.slab = pl.sigs.slab[:0]
		sigIndexPool.Put(pl.sigs)
		pl.sigs = nil
	}
}

// release drops what the last probe's positions still point at and hands
// the log back to its pool.
func (pl *positionLog) release() {
	pl.seal()
	clear(pl.kept[:cap(pl.kept)])
	pl.kept, pl.rng, pl.recovery = pl.kept[:0], nil, nil
	positionLogPool.Put(pl)
}

// copyAt rewinds a model-check probe to crash point c and returns c's
// snapshot with private copies of the detector and image, whose bytes are
// accounted into the probe's stats. A duplicate point's snapshot carries
// only its identity and operation counts. Points are visited in descending
// order, completion (0) first.
func (pl *positionLog) copyAt(probe *scenario, c int) *snapshot {
	k := &pl.kept[c]
	if k.dupOf > 0 {
		return pl.shell(probe, c)
	}
	snap := pl.rewind(probe, c)
	snap.rng, snap.extras, snap.rec = k.rng, k.extras, k.rec
	k.extras, k.rec = nil, nil
	snap.det, snap.image = probe.det.Clone(), probe.image.clone()
	probe.stats.SnapshotBytes += snap.det.FootprintBytes() + snap.image.footprintBytes() + snapshotOverheadBytes
	return snap
}

// handover rewinds a random-mode probe to its drawn crash point c and
// moves its own detector, image and (when mirrored) rng register into the
// snapshot its one crash scenario takes. The probe keeps none of them: its
// retire releases only the machine and the shell.
func (pl *positionLog) handover(probe *scenario, c int) *snapshot {
	snap := pl.rewind(probe, c)
	snap.det, snap.image, snap.take = probe.det, probe.image, true
	probe.det, probe.image = nil, imageTable{}
	if src := probe.rngSrc; src.mirrored {
		src.rewind(src.n - pl.points[c].rngDraws)
		snap.rng = &countingSource{state: src.state, mirrored: true, n: src.n}
		snap.ownRng = true
		src.state = nil
	}
	return snap
}

// rewind undoes the probe's journal back to crash point c and returns c's
// snapshot shell with the heap view at c's shape.
func (pl *positionLog) rewind(probe *scenario, c int) *snapshot {
	pos := &pl.points[c]
	probe.det.Rewind(&pl.journal, pos.jMark)
	snap := pl.shell(probe, c)
	snap.crashPoints = map[int]int{0: c}
	snap.heap = probe.heap.SnapshotAt(pos.heapNext, pos.allocs, pos.inits)
	if c > 0 {
		// The crash unwinds the other live threads (see newSnapshotShell).
		snap.unwind = pos.live - 1
	}
	return snap
}

// shell returns c's snapshot identity and operation counts.
func (pl *positionLog) shell(probe *scenario, c int) *snapshot {
	pos := &pl.points[c]
	return &snapshot{
		seed:     probe.seed,
		point:    c,
		crashSeq: pos.crashSeq,
		rngDraws: pos.rngDraws,
		stats:    Stats{Stores: pos.stores, Loads: pos.loads, Flushes: pos.flushes, Fences: pos.fences, RMWs: pos.rmws},
		recovery: pl.recovery,
		analyses: probe.stack.Names(),
	}
}
