package core

import (
	"yashme/internal/pmm"
)

// Clone returns a deep copy of the detector — the execution stack with its
// storemap/history/lastflush/CVpre/persistLB state and the accumulated
// report. Store identity is positional (StoreRef = arena index), so a ref
// taken against the original names the corresponding record in the clone and
// no pointer remapping is needed.
//
// A clone owns everything it holds: the store and flush arenas, the
// per-address tables and the per-line state are copied into executions
// drawn from the pool, so the clone and the original may be mutated and
// retired independently. Only immutable state is shared: the clock arena
// is a capped view of committed snapshots, whose later appends go to a
// private backing array. The source is read, never written.
func (d *Detector) Clone() *Detector {
	nd := &Detector{cfg: d.cfg, report: d.report.Clone(), arena: d.arena.Clone()}
	nd.execs = make([]*Execution, len(d.execs))
	for i, e := range d.execs {
		nd.execs[i] = e.clone()
	}
	return nd
}

// SetLabeler replaces the address labeler. A scenario resumed from a
// checkpoint recovers on its own header over the snapshot's heap and points
// the cloned detector at that heap's labels.
func (d *Detector) SetLabeler(l func(pmm.Addr) string) { d.cfg.Labeler = l }

// clone copies the execution into a pooled one, so a warm clone reuses the
// arrays a retired one grew instead of allocating its own.
func (e *Execution) clone() *Execution {
	ne := newExecution(e.ID)
	ne.arena = append(withCap(ne.arena, len(e.arena)), e.arena...)
	ne.flushArena = append(withCap(ne.flushArena, len(e.flushArena)), e.flushArena...)
	ne.storeTab.CopyFrom(&e.storeTab)
	ne.persistTab.CopyFrom(&e.persistTab)
	ne.lastflush.CopyFrom(&e.lastflush) // flat: slots are arena refs
	ne.cvpre, ne.crashSeq = e.cvpre, e.crashSeq
	// Per-line address lists are the one reference-typed slot value both
	// sides may append to (on a first store), so the clone gets its own:
	// one flat backing carved into full-slice-capped runs, so an append to
	// one line reallocates that line alone instead of overrunning the next.
	ne.lineAddrs.CopyFrom(&e.lineAddrs)
	n := 0
	for l, end := pmm.Line(0), pmm.Line(e.lineAddrs.Len()); l < end; l++ {
		n += len(e.lineAddrs.At(l))
	}
	buf := withCap(ne.lineBuf, n)
	for l, end := pmm.Line(0), pmm.Line(ne.lineAddrs.Len()); l < end; l++ {
		if la := ne.lineAddrs.Ptr(l); len(*la) > 0 {
			lo := len(buf)
			buf = append(buf, *la...)
			*la = buf[lo:len(buf):len(buf)]
		}
	}
	ne.lineBuf = buf
	return ne
}

// withCap returns s emptied when it can hold n elements, else a fresh empty
// slice of capacity n.
func withCap[T any](s []T, n int) []T {
	if cap(s) >= n {
		return s[:0]
	}
	return make([]T, 0, n)
}
