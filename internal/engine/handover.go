// Random-mode probe handover (DESIGN.md §4.1).
//
// A random execution's crash point c is drawn from the number of points its
// schedule reaches, so the planner must probe the whole pre-crash execution
// before it knows c. Model checking turns its probe into snapshots many
// scenarios share (checkpoint.go); a random probe has exactly one consumer,
// so it hands over its own state instead of copying it. While the probe
// runs, its detector records an undo journal and the probe logs a compact
// position at every crash point. Once c is drawn, the detector is rewound
// to c (core.Detector.Rewind), and it goes with the probe's image (constant
// during the pre-crash execution), an O(1) heap view at c's shape and c's
// position into a single-use snapshot: resumeScenario takes the detector
// and image without cloning, and the probe's retire releases neither. The
// probe's rng register, which has moved past c, is stepped back to c's draw
// count (every draw is one invertible generator step) and handed over too;
// only an unmirrored fallback source makes the resume seed and skip.
package engine

import (
	"sync"

	"yashme/internal/analysis"
	"yashme/internal/core"
	"yashme/internal/pmm"
	"yashme/internal/vclock"
)

// handoverEnabled reports whether random-mode probes hand their rewound
// state to their crash scenario. The Reference configuration re-simulates
// by definition; extra analysis passes are not journaled, so their state
// cannot be rewound; and under Trace the scenario re-simulates too, which
// keeps the recorder's event log its own. Every such run takes the
// from-scratch path (snap == nil).
func handoverEnabled(opts Options) bool {
	return opts.Mode == RandomMode &&
		!opts.Reference &&
		!opts.Trace &&
		len(opts.Analyses) == 1 && opts.Analyses[0] == analysis.Yashme
}

// probePoint is a random-mode probe's position at one crash point: what a
// scenario crashing there holds beyond the rewound detector and the image.
type probePoint struct {
	crashSeq vclock.Seq
	rngDraws uint64
	// stores..rmws are the per-kind operation counts (Stats.Stores through
	// Stats.RMWs); a snapshot zeroes the other counters anyway.
	stores, loads, flushes, fences, rmws int64
	heapNext                             pmm.Addr
	live, allocs, inits, jMark           int
}

// positionLog is the planner's record of one probe at a time: points[p]
// is the position at crash point p, points[0] the completion. Every probe
// reuses the slice and the journal, and runs take logs from a pool, so
// logging a point allocates nothing once they have grown.
type positionLog struct {
	journal core.Journal
	points  []probePoint
}

// positionLogPool holds the logs of finished random-mode runs.
var positionLogPool = sync.Pool{New: func() any { return new(positionLog) }}

// watch arms the log for a fresh probe: the detector records into the
// emptied undo journal and the points restart.
func (pl *positionLog) watch(probe *scenario) {
	probe.det.AttachUndo(&pl.journal)
	pl.points = append(pl.points[:0], probePoint{})
	probe.positions = pl
}

// record logs the probe's position at point p (0 = completion). Crash
// points arrive in ascending order, so point p lands at index p.
func (pl *positionLog) record(sc *scenario, p int) {
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
	if p == 0 {
		pl.points[0] = pos
		return
	}
	pl.points = append(pl.points, pos)
}

// handover rewinds the probe to crash point c and moves its detector, image
// and (when mirrored) rng register into the snapshot the crash scenario
// resumes from. The probe keeps none of them: its retire releases only the
// machine and the shell.
func (pl *positionLog) handover(probe *scenario, c int) *snapshot {
	pos := &pl.points[c]
	probe.det.Rewind(&pl.journal, pos.jMark)
	snap := &snapshot{
		seed:        probe.seed,
		point:       c,
		crashSeq:    pos.crashSeq,
		rngDraws:    pos.rngDraws,
		stats:       Stats{Stores: pos.stores, Loads: pos.loads, Flushes: pos.flushes, Fences: pos.fences, RMWs: pos.rmws},
		crashPoints: map[int]int{0: c},
		heap:        probe.heap.SnapshotAt(pos.heapNext, pos.allocs, pos.inits),
		det:         probe.det,
		image:       probe.image,
		owned:       true,
		setupAllocs: probe.setupAllocs,
		setupNext:   probe.setupNext,
	}
	if c > 0 {
		// The crash unwinds the other live threads (see newSnapshotShell).
		snap.unwind = pos.live - 1
	}
	probe.det, probe.image = nil, imageTable{}
	if src := probe.rngSrc; src.mirrored {
		src.rewind(src.n - pos.rngDraws)
		snap.rng = &countingSource{state: src.state, mirrored: true, n: src.n}
		src.state = nil
	}
	return snap
}
