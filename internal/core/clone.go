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
// Sharing rules: the store arena is shared with the original as a capped
// slice view — records (and their clock vectors) are immutable once
// committed, their mutable side lives in the parallel meta slice, and the
// capped capacity forces either side's later appends onto a private backing
// array. Everything mutable — the meta slice, the flush arena, per-address
// tables, per-line state — is copied, so the clone and the original may be
// mutated independently afterwards. The clone is private to its holder: its
// executions are drawn from the pool and Retire recycles them again, all but
// the borrowed arena view (see Retire). The source is read, never written;
// a source that owns its store arenas must be marked by its owner
// (MarkShared) before cloning.
func (d *Detector) Clone() *Detector {
	nd := &Detector{cfg: d.cfg, report: d.report.Clone(), arena: d.arena.Clone()}
	nd.execs = make([]*Execution, len(d.execs))
	for i, e := range d.execs {
		nd.execs[i] = e.clone()
	}
	return nd
}

// SetLabeler replaces the address labeler. A scenario resumed from a
// checkpoint re-runs the program's Setup against its own heap and points the
// cloned detector at that heap's LabelFor.
func (d *Detector) SetLabeler(l func(pmm.Addr) string) { d.cfg.Labeler = l }

// clone copies the execution into a pooled one, so a warm clone reuses the
// arrays a retired one grew instead of allocating its own; the store arena
// is borrowed as a capped view.
func (e *Execution) clone() *Execution {
	ne := newExecution(e.ID)
	ne.spare = ne.arena
	ne.arena = e.arena[:len(e.arena):len(e.arena)]
	ne.borrowed = true
	ne.meta = append(withCap(ne.meta, len(e.meta)), e.meta...)
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
