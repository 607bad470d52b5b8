package pmdk

import (
	"yashme/internal/pmm"
)

// Allocator is a miniature pmemobj object allocator: a persistent bump
// pointer over a pre-reserved arena, with the bump-pointer update staged
// through the redo log so allocation survives crashes atomically
// (libpmemobj routes its allocator metadata through exactly this kind of
// internal operation log). The paper notes that "some of the persistency
// races were found in memory allocators" (§7.2) — this allocator is built
// with the atomic-publication fix, so it contributes none; the deliberately
// broken counterexample lives in P-ART's Epoche code.
//
// A crash between staging and processing leaks at most the in-flight
// object (the classic persistent-allocator tradeoff); the bump pointer
// itself is never torn.
type Allocator struct {
	log *RedoLog
	// hdr: {bump} — the persistent offset of the next free byte.
	hdr   pmm.Struct
	arena pmm.Addr
	size  int
}

// ArenaSize is the default arena capacity in bytes.
const ArenaSize = 4096

// NewAllocator reserves the arena and its metadata during Setup.
func NewAllocator(h *pmm.Heap) *Allocator {
	a := &Allocator{
		log:   NewRedoLog(h),
		hdr:   h.AllocStruct("palloc", pmm.Layout{{Name: "bump", Size: 8}}),
		arena: h.AllocRaw("palloc_arena", ArenaSize),
		size:  ArenaSize,
	}
	return a
}

// Alloc reserves size bytes (rounded up to 16 for alignment) and returns
// the arena address, or 0 if the arena is exhausted. The bump update is
// staged and processed through the redo log: recovery either sees the old
// or the new bump value, never a torn one.
func (a *Allocator) Alloc(t *pmm.Thread, size int) pmm.Addr {
	size = (size + 15) &^ 15
	cur := t.LoadAcquire64(a.hdr.F("bump"))
	if int(cur)+size > a.size {
		return 0
	}
	a.log.Stage(t, a.hdr.F("bump"), cur+uint64(size))
	a.log.Process(t)
	return a.arena + pmm.Addr(cur)
}

// Used returns the persistent bump offset.
func (a *Allocator) Used(t *pmm.Thread) uint64 { return t.LoadAcquire64(a.hdr.F("bump")) }

// Recover replays an interrupted bump update.
func (a *Allocator) Recover(t *pmm.Thread) (applied int, valid bool) {
	return a.log.Recover(t)
}
