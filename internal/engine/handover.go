// Probe position logs and the backward walk (DESIGN.md §4.1).
//
// Both modes put a scenario's analyses at a crash point the same way, for
// both analysis stacks and with or without a trace. A probe runs the
// schedule's pre-crash execution to completion once, with undo journals
// attached to its detector (core.Detector.AttachUndo) and to its xfd
// detector when selected (xfd.Detector.AttachUndo), and logs a compact
// position at every crash point: the journal marks and the trace
// recorder's length among it. After the run, the planner walks the points
// backwards and at each rewinds the probe to the point — the detectors and
// the recorder together:
//
//   - Model checking explores every point, so each gets a private copy of
//     the rewound detectors, recorder and image. A duplicate point under
//     crash-image memoization gets only its operation counts.
//   - A random execution's crash point c is drawn from the number of points
//     its schedule reaches, so c is known only after the probe. It has
//     exactly one consumer, so the probe's own detectors, recorder and
//     image go into its snapshot uncopied. So does its rng
//     register, if it drew: it has moved past c, and every draw is one
//     invertible generator step, so it is stepped back to c's draw count.
//
// The scheduler rng needs no copy in either mode: a snapshot records the
// point's draw count, and a resume places its source there
// (countingSource), filling a register only if it draws.
package engine

import (
	"hash/maphash"
	"sync"

	"yashme/internal/core"
	"yashme/internal/pmm"
	"yashme/internal/vclock"
)

// probePoint is a probe's position at one crash point: what a scenario
// crashing there holds beyond the rewound detectors and the image.
type probePoint struct {
	crashSeq vclock.Seq
	rngDraws uint64
	// stores..rmws are the per-kind operation counts (Stats.Stores through
	// Stats.RMWs); a snapshot zeroes the other counters anyway.
	stores, loads, flushes, fences, rmws int64
	heapNext                             pmm.Addr
	live, allocs, inits, jMark           int
	// xMark is the xfd journal's mark (0 without xfd), recLen the trace
	// recorder's length (0 untraced).
	xMark, recLen int
}

// positionLog is the planner's record of one probe at a time: points[p]
// is the position at crash point p, points[0] the completion. Every probe
// reuses the slices, the journal and the signature buffer, and planners
// take logs from a pool, so logging a point allocates nothing once they
// have grown.
type positionLog struct {
	journal core.Journal
	points  []probePoint
	// copies marks a model-check probe, whose points each get a private
	// copy, possibly resumed several times; dupOf runs parallel to points
	// for it alone, holding each duplicate point's representative under
	// crash-image memoization (0 = none). max caps the points logged
	// (0 = all).
	copies bool
	dupOf  []int
	max    int
	// recovery is the run's shared recovery program's recovery, which the
	// probe's snapshots resume with.
	recovery []func(*pmm.Thread)
	// Crash-image memoization (model checking, dedupEnabled): sigs files
	// the points by state signature, hashed under seed (sigSeed unless a
	// test swaps it), while the probe runs. The log owns the index, so the
	// next probe reuses its grown slab and map.
	dedup  bool
	seed   maphash.Seed
	sigBuf []byte
	sigs   sigIndex
}

// positionLogPool holds the logs of finished planners.
var positionLogPool = sync.Pool{New: func() any { return new(positionLog) }}

// watch arms the log for a fresh probe run under opts whose snapshots
// resume with recovery: the detector records into the emptied undo journal
// and the points restart.
func (pl *positionLog) watch(probe *scenario, opts Options, recovery []func(*pmm.Thread)) {
	probe.det.AttachUndo(&pl.journal)
	probe.stack.AttachUndo()
	pl.recovery = recovery
	pl.points = append(pl.points[:0], probePoint{})
	pl.copies = opts.Mode == ModelCheck
	pl.max = 0
	if pl.copies {
		pl.dupOf = append(pl.dupOf[:0], 0)
		pl.max = opts.MaxCrashPoints
	}
	pl.dedup = dedupEnabled(opts)
	if pl.dedup {
		pl.seed = sigSeed
		if pl.sigs.classes == nil {
			pl.sigs.classes = make(map[uint64][]sigClass)
		}
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
		xMark:    sc.stack.Mark(),
	}
	if sc.recorder != nil {
		pos.recLen = sc.recorder.Len()
	}
	if p == 0 {
		// The completion is never classified: the walk emits it first, and
		// it always runs.
		pl.points[0] = pos
		pl.seal()
		return
	}
	pl.points = append(pl.points, pos)
	if pl.copies {
		dup := 0
		if pl.dedup {
			dup = pl.classify(sc, p)
		}
		pl.dupOf = append(pl.dupOf, dup)
	}
}

// seal ends the classification window with the pre-crash execution: the
// signature index is emptied for the next probe, keeping what it grew.
func (pl *positionLog) seal() {
	clear(pl.sigs.classes)
	pl.sigs.slab = pl.sigs.slab[:0]
}

// release drops what the last probe's positions still point at and hands
// the log back to its pool.
func (pl *positionLog) release() {
	pl.seal()
	pl.recovery = nil
	positionLogPool.Put(pl)
}

// copyAt rewinds a model-check probe to crash point c and returns c's
// snapshot with private copies of the detectors, recorder and image,
// whose bytes are accounted into the probe's stats. A duplicate
// point's snapshot carries only its identity and operation counts. Points
// are visited in descending order, completion (0) first.
func (pl *positionLog) copyAt(probe *scenario, c int) *snapshot {
	if pl.dupOf[c] > 0 {
		return pl.shell(probe, c)
	}
	snap := pl.rewind(probe, c)
	snap.det, snap.image = probe.det.Clone(), probe.image.clone()
	probe.stats.SnapshotBytes += snap.det.FootprintBytes() + snap.image.footprintBytes() + snapshotOverheadBytes
	if x := probe.stack.XFD(); x != nil {
		snap.xfd = x.Clone()
		probe.stats.SnapshotBytes += x.FootprintBytes()
	}
	if probe.recorder != nil {
		snap.rec = probe.recorder.Clone()
	}
	return snap
}

// handover rewinds a random-mode probe to its drawn crash point c and
// moves its own detectors, recorder, image and (if it drew) rng register
// into the snapshot its one crash scenario takes, which owns them from
// then on: the resume rebuilds its stack around the detectors and rewires
// the recorder to that stack and its own heap (resumeScenario). The probe keeps none of them: its retire
// releases only the machine and the shell.
func (pl *positionLog) handover(probe *scenario, c int) *snapshot {
	snap := pl.rewind(probe, c)
	snap.det, snap.image, snap.take = probe.det, probe.image, true
	snap.xfd, snap.rec = probe.stack.XFD(), probe.recorder
	probe.det, probe.image, probe.recorder = nil, imageTable{}, nil
	src := probe.rngSrc
	src.rewind(src.n - snap.rngDraws)
	snap.rng, src.state = src.state, nil
	return snap
}

// rewind undoes the probe's journals back to crash point c, truncates its
// recorder there, and returns c's snapshot shell with the heap view at c's
// shape.
func (pl *positionLog) rewind(probe *scenario, c int) *snapshot {
	pos := &pl.points[c]
	probe.det.Rewind(&pl.journal, pos.jMark)
	probe.stack.Rewind(pos.xMark)
	if probe.recorder != nil {
		probe.recorder.Truncate(pos.recLen)
	}
	snap := pl.shell(probe, c)
	snap.heap = probe.heap.SnapshotAt(pos.heapNext, pos.allocs, pos.inits)
	if c > 0 {
		// A from-scratch crash at c unwinds the remaining live threads; the
		// scheduler draws Intn(j) for j = live-1 down to 2.
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
