package pmdk

import (
	"yashme/internal/pmm"
)

// RedoLog is the second logging flavour libpmemobj uses (its internal
// "operation" log for allocator metadata): staged (offset, value) pairs are
// persisted first, then marked valid, then applied. Unlike the undo log —
// whose entry pointer carries the Table 4 race — this implementation is
// written the way the paper says the bug should be FIXED (§7.2): the
// validity word is an atomic release store, which on x86 compiles to a
// plain mov but forbids store tearing/inventing, so the detector finds no
// races in it. Recovery re-applies a valid log idempotently.
type RedoLog struct {
	hdr     pmm.Struct // "redo" {nentries (atomic), checksum}
	entries pmm.Array  // "redo_entry" {offset, value}
	staged  int
}

// RedoCap is the redo-log capacity in entries.
const RedoCap = 16

// NewRedoLog allocates a redo log in the pool during Setup.
func NewRedoLog(h *pmm.Heap) *RedoLog {
	return &RedoLog{
		hdr: h.AllocStruct("redo", pmm.Layout{
			{Name: "nentries", Size: 8},
			{Name: "checksum", Size: 8},
		}),
		entries: h.AllocArray("redo_entry", pmm.Layout{
			{Name: "offset", Size: 8},
			{Name: "value", Size: 8},
		}, RedoCap),
	}
}

// Stage records one deferred store. Entries are plain writes to
// not-yet-valid log space (unreachable until the atomic publication), then
// persisted.
func (r *RedoLog) Stage(t *pmm.Thread, addr pmm.Addr, val uint64) {
	if r.staged >= RedoCap {
		panic("pmdk: redo log full")
	}
	e := r.entries.At(r.staged)
	t.Store64(e.F("offset"), uint64(addr))
	t.Store64(e.F("value"), val)
	t.Persist(e.Base(), e.Size())
	r.staged++
}

// Process publishes the staged entries (atomic release — the FIXED
// protocol), applies them in place, persists the data, and retires the log.
func (r *RedoLog) Process(t *pmm.Thread) {
	if r.staged == 0 {
		return
	}
	t.Store64(r.hdr.F("checksum"), r.checksum(t, r.staged))
	t.Persist(r.hdr.F("checksum"), 8)
	// The fix: atomic release publication of the valid-entry count.
	t.StoreRelease64(r.hdr.F("nentries"), uint64(r.staged))
	t.Persist(r.hdr.F("nentries"), 8)
	r.apply(t, r.staged)
	// Retire: atomic clear, persisted.
	t.StoreRelease64(r.hdr.F("nentries"), 0)
	t.Persist(r.hdr.F("nentries"), 8)
	r.staged = 0
}

func (r *RedoLog) apply(t *pmm.Thread, n int) {
	for i := 0; i < n; i++ {
		e := r.entries.At(i)
		off := t.Load64(e.F("offset"))
		val := t.Load64(e.F("value"))
		t.Store64(pmm.Addr(off), val)
		t.Persist(pmm.Addr(off), 8)
	}
}

func (r *RedoLog) checksum(t *pmm.Thread, n int) uint64 {
	sum := uint64(0xCBF29CE484222325)
	for i := 0; i < n; i++ {
		e := r.entries.At(i)
		sum = (sum ^ t.Load64(e.F("offset"))) * 0x100000001B3
		sum = (sum ^ t.Load64(e.F("value"))) * 0x100000001B3
	}
	return sum
}

// Recover replays a published-but-unretired redo log. The count is read
// with an acquire load (atomic — no race); entry contents are validated
// under the checksum guard before being applied.
func (r *RedoLog) Recover(t *pmm.Thread) (applied int, valid bool) {
	n := t.LoadAcquire64(r.hdr.F("nentries"))
	if n == 0 || n > RedoCap {
		return 0, true
	}
	valid = false
	t.ChecksumGuard(func() {
		stored := t.Load64(r.hdr.F("checksum"))
		valid = stored == r.checksum(t, int(n))
	})
	if !valid {
		return 0, false
	}
	r.apply(t, int(n))
	t.StoreRelease64(r.hdr.F("nentries"), 0)
	t.Persist(r.hdr.F("nentries"), 8)
	return int(n), true
}

// NewRedoProg returns the redo-log driver (§7.2's fix at the framework
// level): the worker stages counter updates through the redo log, and
// recovery replays the log and reads the counters back. stats (optional)
// counts recoveries that saw a consistent or a corrupt counter state.
func NewRedoProg(stats *Stats) func() pmm.Program {
	return func() pmm.Program {
		var rl *RedoLog
		var a, b pmm.Addr
		return pmm.Program{
			Name: "redo",
			Setup: func(h *pmm.Heap) {
				NewPool(h)
				rl = NewRedoLog(h)
				obj := h.AllocStruct("counters", pmm.Layout{{Name: "a", Size: 8}, {Name: "b", Size: 8}})
				a, b = obj.F("a"), obj.F("b")
			},
			Workers: []func(*pmm.Thread){func(t *pmm.Thread) {
				rl.Stage(t, a, 11)
				rl.Stage(t, b, 22)
				rl.Process(t)
				rl.Stage(t, a, 33)
				rl.Process(t)
			}},
			PostCrash: func(t *pmm.Thread) {
				applied, valid := rl.Recover(t)
				va, vb := t.Load64(a), t.Load64(b)
				if stats == nil {
					return
				}
				stats.RolledBack += applied
				stats.LogValid = valid
				// a is 0, 11 or 33; b is 0 or 22 — anything else is
				// corruption.
				okA := va == 0 || va == 11 || va == 33
				okB := vb == 0 || vb == 22
				if okA && okB {
					stats.Found++
				} else {
					stats.Wrong++
				}
			},
		}
	}
}
