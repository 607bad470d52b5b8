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
// mutated independently afterwards. The clone's executions are born shared
// (Retire never recycles them); the source is read, never written, so a
// live source must be marked by its owner (MarkShared) before cloning.
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

func (e *Execution) clone() *Execution { return e.cloneSized(0, 0, 0) }

// cloneSized is clone with growth headroom for a pending journal replay:
// the meta and flush arenas get capacity for the segment's appends and the
// address-indexed tables get capacity up to its high-water address, so the
// replay performs no reallocation (see Detector.CloneReplay). The store
// arena needs no headroom — it is shared, and a replay extends the view
// over the journal's frozen arena rather than appending. Zero sizes degrade
// to a plain clone.
func (e *Execution) cloneSized(stores, flushes int, maxAddr pmm.Addr) *Execution {
	addrCap, lineCap := 0, 0
	if maxAddr > 0 {
		addrCap = int(maxAddr) + 1
		lineCap = int(pmm.LineOf(maxAddr)) + 1
	}
	ne := &Execution{
		ID:         e.ID,
		arena:      e.arena[:len(e.arena):len(e.arena)],
		meta:       append(make([]recMeta, 0, len(e.meta)+stores), e.meta...),
		flushArena: append(make([]flushNode, 0, len(e.flushArena)+flushes), e.flushArena...),
		storeTab:   e.storeTab.CloneCap(addrCap),
		lineAddrs:  e.lineAddrs.CloneCap(lineCap),
		lastflush:  e.lastflush.Clone(), // flat: slots are arena refs
		cvpre:      e.cvpre,
		persistTab: e.persistTab.CloneCap(addrCap),
		crashSeq:   e.crashSeq,
		shared:     true,
	}
	// The table clones are flat; detach the one reference-typed slot value
	// both sides may mutate: per-line address lists (appended to on first
	// store). Per-line flush clocks need no detaching anymore — a slot is a
	// ref into the immutable clock arena, and observations replace the ref
	// rather than joining a shared vector in place.
	ne.lineAddrs.ForEach(func(l pmm.Line, addrs []pmm.Addr) bool {
		if len(addrs) > 0 {
			ne.lineAddrs.Set(l, append([]pmm.Addr(nil), addrs...))
		}
		return true
	})
	return ne
}
