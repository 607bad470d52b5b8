// Package cceh reproduces the Cacheline-Conscious Extendible Hashing table
// (CCEH, FAST '19) as distributed with the RECIPE suite, including the two
// persistency races Yashme found in it (paper Table 3, bugs 1–2):
//
//	#1  value in Pair struct (pair.h)
//	#2  key   in Pair struct (pair.h)
//
// The insertion protocol is the paper's Figure 3: a CAS on the key field
// locks a slot (writing SENTINEL), the value field is stored, an mfence
// orders the stores, and then the key field is stored to commit the
// insertion — relying on key and value sharing a cache line so the value
// persists no later than the key. Both commits are NON-ATOMIC stores, so a
// poorly timed crash lets the compiler-torn key or value become partially
// persistent; the post-crash Get (Figure 10) reads both fields and observes
// the race.
package cceh

import (
	"yashme/internal/pmm"
)

// Slot states in the key field (as in CCEH's pair.h).
const (
	// Invalid marks an empty slot.
	Invalid = uint64(0)
	// Sentinel marks a slot locked for an in-flight insertion.
	Sentinel = ^uint64(0)
)

// Geometry of the (downsized) table: segments of line-grouped pairs, four
// 16-byte pairs per 64-byte cache line — the "cacheline-conscious" probing.
const (
	numSegments     = 2
	slotsPerSegment = 16
	probeWindow     = 4 // slots probed within one cache line group
)

// ExpectedRaces are the fields the paper reports for CCEH.
var ExpectedRaces = []string{"Pair.key", "Pair.value"}

// Table is a CCEH instance on the simulated persistent heap.
type Table struct {
	segments [numSegments]pmm.Array
}

// NewTable allocates the table. Every slot starts Invalid (zero).
func NewTable(h *pmm.Heap) *Table {
	tb := &Table{}
	layout := pmm.Layout{{Name: "key", Size: 8}, {Name: "value", Size: 8}}
	for i := range tb.segments {
		tb.segments[i] = h.AllocArray("Pair", layout, slotsPerSegment)
	}
	return tb
}

func hash(key uint64) uint64 { return key * 0x9E3779B97F4A7C15 }

func (tb *Table) slotFor(key uint64, probe int) (seg pmm.Array, idx int) {
	hv := hash(key)
	seg = tb.segments[hv%numSegments]
	group := int((hv>>8)%uint64(slotsPerSegment/probeWindow)) * probeWindow
	return seg, group + probe
}

// Insert implements Segment::Insert (paper Figure 3): CAS-lock the slot via
// the key field, store value, mfence, store key, then flush the pair. It
// reports whether the insertion found a free slot.
func (tb *Table) Insert(t *pmm.Thread, key, value uint64) bool {
	for probe := 0; probe < probeWindow; probe++ {
		seg, idx := tb.slotFor(key, probe)
		pair := seg.At(idx)
		keyAddr := pair.F("key")
		if !t.CAS64(keyAddr, Invalid, Sentinel) {
			continue // slot occupied or locked
		}
		// Bug #1: non-atomic store to the value field.
		t.Store64(pair.F("value"), value)
		t.MFence()
		// Bug #2: non-atomic store to the key field commits the insertion.
		t.Store64(keyAddr, key)
		// The caller flushes both stores (key and value share a line).
		t.CLFlush(keyAddr)
		return true
	}
	return false
}

// Get implements CCEH::Get (paper Figure 10): it reads the non-atomic key
// and value fields — the race-observing loads.
func (tb *Table) Get(t *pmm.Thread, key uint64) (uint64, bool) {
	for probe := 0; probe < probeWindow; probe++ {
		seg, idx := tb.slotFor(key, probe)
		pair := seg.At(idx)
		if t.Load64(pair.F("key")) == key {
			return t.Load64(pair.F("value")), true
		}
	}
	return 0, false
}

// Stats captures what the post-crash recovery observed, for functional
// verification.
type Stats struct {
	Found   int
	Missing int
	Wrong   int
}

// ValueFor is the deterministic value the driver inserts for a key.
func ValueFor(key uint64) uint64 { return key*10 + 1 }

// New returns the benchmark driver: the pre-crash worker inserts keys
// 1..numKeys, and the recovery looks every key up, verifying values.
// stats (optional) accumulates what recovery observed.
func New(numKeys int, stats *Stats) func() pmm.Program {
	return func() pmm.Program {
		var tb *Table
		return pmm.Program{
			Name: "CCEH",
			Setup: func(h *pmm.Heap) {
				tb = NewTable(h)
			},
			Workers: []func(*pmm.Thread){func(t *pmm.Thread) {
				for k := uint64(1); k <= uint64(numKeys); k++ {
					tb.Insert(t, k, ValueFor(k))
				}
			}},
			PostCrash: func(t *pmm.Thread) {
				for k := uint64(1); k <= uint64(numKeys); k++ {
					v, ok := tb.Get(t, k)
					if stats == nil {
						continue
					}
					switch {
					case !ok:
						stats.Missing++
					case v != ValueFor(k):
						stats.Wrong++
					default:
						stats.Found++
					}
				}
			},
		}
	}
}

// NewFixed returns the driver for the REPAIRED table: the paper's
// recommended fix (§3.1, §7.2) replaces the racing non-atomic key/value
// stores with atomic release stores — on x86 these compile to ordinary mov
// instructions, so the fix costs nothing, but it forbids the compiler
// optimizations (store tearing, store inventing) that make the plain
// stores dangerous. The detector must find zero races.
func NewFixed(numKeys int, stats *Stats) func() pmm.Program {
	return func() pmm.Program {
		var tb *Table
		return pmm.Program{
			Name:  "CCEH-fixed",
			Setup: func(h *pmm.Heap) { tb = NewTable(h) },
			Workers: []func(*pmm.Thread){func(t *pmm.Thread) {
				for k := uint64(1); k <= uint64(numKeys); k++ {
					tb.InsertFixed(t, k, ValueFor(k))
				}
			}},
			PostCrash: func(t *pmm.Thread) {
				for k := uint64(1); k <= uint64(numKeys); k++ {
					v, ok := tb.GetFixed(t, k)
					if stats == nil {
						continue
					}
					switch {
					case !ok:
						stats.Missing++
					case v != ValueFor(k):
						stats.Wrong++
					default:
						stats.Found++
					}
				}
			},
		}
	}
}

// InsertFixed is Insert with the persistency races repaired: value and key
// commit through atomic release stores (memory_order_release — a plain mov
// on x86, but no tearing allowed).
func (tb *Table) InsertFixed(t *pmm.Thread, key, value uint64) bool {
	for probe := 0; probe < probeWindow; probe++ {
		seg, idx := tb.slotFor(key, probe)
		pair := seg.At(idx)
		keyAddr := pair.F("key")
		if !t.CAS64(keyAddr, Invalid, Sentinel) {
			continue
		}
		t.StoreRelease64(pair.F("value"), value) // fixed: atomic release
		t.MFence()
		t.StoreRelease64(keyAddr, key) // fixed: atomic release
		t.CLFlush(keyAddr)
		return true
	}
	return false
}

// GetFixed reads the repaired fields with acquire loads.
func (tb *Table) GetFixed(t *pmm.Thread, key uint64) (uint64, bool) {
	for probe := 0; probe < probeWindow; probe++ {
		seg, idx := tb.slotFor(key, probe)
		pair := seg.At(idx)
		if t.LoadAcquire64(pair.F("key")) == key {
			return t.LoadAcquire64(pair.F("value")), true
		}
	}
	return 0, false
}
