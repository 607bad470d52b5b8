// Package pbwtree reproduces P-BwTree, the persistent Bw-Tree from the
// RECIPE suite, with the single persistency race Yashme reports for it
// (paper Table 3, bug 16):
//
//	#16  epoch in BwTreeBase class (bwtree.h)
//
// The Bw-Tree is a lock-free design: all structural updates install deltas
// into a mapping table with CAS (atomic — persistency-safe). Its
// epoch-based garbage collector, however, advances the global epoch counter
// with a plain 64-bit store that the recovery path reads back.
package pbwtree

import (
	"yashme/internal/pmm"
)

// MappingTableSize is the (downsized) number of mapping-table slots.
const MappingTableSize = 16

// ExpectedRaces is the single field the paper reports for P-BwTree.
var ExpectedRaces = []string{"BwTreeBase.epoch"}

// deltaLayout is one delta record: an insert/update/delete published by
// CAS onto a mapping-table slot's chain (the Bw-Tree's defining structure).
var deltaLayout = pmm.Layout{
	{Name: "kind", Size: 8}, // 0 = insert/update, 1 = delete
	{Name: "key", Size: 8},
	{Name: "value", Size: 8},
	{Name: "next", Size: 8}, // previous chain head
}

// Delta record kinds.
const (
	deltaInsert = uint64(0)
	deltaDelete = uint64(1)
)

// Tree is a P-BwTree instance: a mapping table whose slots head CAS-
// installed delta chains, plus the BwTreeBase epoch counter. Delta records
// are fully persisted before publication and the publication itself is a
// locked CAS, so the whole structure is persistency-race free — except the
// plain epoch counter (bug #16). Delta pointers read from persistent
// memory resolve through the thread's heap (deltaAt).
type Tree struct {
	base  pmm.Struct // "BwTreeBase" {epoch}
	table pmm.Array  // "mapping_table" slots: {head}
	// consolidations counts chain rewrites (exposed for tests).
	consolidations int
}

// ConsolidateThreshold is the chain length that triggers consolidation.
const ConsolidateThreshold = 4

// NewTree allocates the mapping table and the base structure.
func NewTree(h *pmm.Heap) *Tree {
	return &Tree{
		base:  h.AllocStruct("BwTreeBase", pmm.Layout{{Name: "epoch", Size: 8}}),
		table: h.AllocArray("mapping_table", pmm.Layout{{Name: "head", Size: 8}}, MappingTableSize),
	}
}

func slotOf(key uint64) int { return int((key * 0x61C88647) % MappingTableSize) }

// newDelta allocates and persists a delta record (unreachable until the
// CAS publishes it).
func (tr *Tree) newDelta(t *pmm.Thread, kind, key, value, next uint64) uint64 {
	d := t.Heap().AllocStruct("delta", deltaLayout)
	t.Store64(d.F("kind"), kind)
	t.Store64(d.F("key"), key)
	t.Store64(d.F("value"), value)
	t.Store64(d.F("next"), next)
	t.Persist(d.Base(), d.Size())
	return uint64(d.Base())
}

// deltaAt resolves a delta pointer loaded from persistent memory through
// the thread's heap, mirroring how recovery code casts a mapped PM offset
// back to a delta record pointer.
func deltaAt(t *pmm.Thread, addr uint64) (pmm.Struct, bool) {
	d, ok := t.Heap().StructAt(pmm.Addr(addr))
	return d, ok && d.Label() == "delta"
}

// publish CAS-installs a delta as the new chain head and persists the head.
func (tr *Tree) publish(t *pmm.Thread, slot pmm.Struct, old, delta uint64) bool {
	if !t.CAS64(slot.F("head"), old, delta) {
		return false
	}
	t.Persist(slot.F("head"), 8)
	return true
}

// Insert prepends an insert delta; long chains consolidate.
func (tr *Tree) Insert(t *pmm.Thread, key, value uint64) bool {
	slot := tr.table.At(slotOf(key))
	for {
		head := t.LoadAcquire64(slot.F("head"))
		d := tr.newDelta(t, deltaInsert, key, value, head)
		if tr.publish(t, slot, head, d) {
			tr.maybeConsolidate(t, slot)
			return true
		}
		t.Yield() // lost the CAS race; retry on the new head
	}
}

// Get walks the delta chain with atomic loads: the first record for the key
// wins (newest first).
func (tr *Tree) Get(t *pmm.Thread, key uint64) (uint64, bool) {
	slot := tr.table.At(slotOf(key))
	cur := t.LoadAcquire64(slot.F("head"))
	for hops := 0; cur != 0 && hops < 1024; hops++ {
		d, ok := deltaAt(t, cur)
		if !ok {
			return 0, false
		}
		if t.LoadAcquire64(d.F("key")) == key {
			if t.LoadAcquire64(d.F("kind")) == deltaDelete {
				return 0, false
			}
			return t.LoadAcquire64(d.F("value")), true
		}
		cur = t.LoadAcquire64(d.F("next"))
	}
	return 0, false
}

// maybeConsolidate rewrites a long chain into a compact one: the live
// key/value pairs become a fresh chain (persisted before publication), and
// the old chain is swapped out with one CAS — the Bw-Tree consolidation
// protocol, crash safe by construction.
func (tr *Tree) maybeConsolidate(t *pmm.Thread, slot pmm.Struct) {
	head := t.LoadAcquire64(slot.F("head"))
	// Measure the chain and collect the live bindings (newest first wins).
	type kv struct{ k, v uint64 }
	var live []kv
	seen := map[uint64]bool{}
	length := 0
	for cur := head; cur != 0; length++ {
		d, ok := deltaAt(t, cur)
		if !ok {
			break
		}
		k := t.LoadAcquire64(d.F("key"))
		if !seen[k] {
			seen[k] = true
			if t.LoadAcquire64(d.F("kind")) == deltaInsert {
				live = append(live, kv{k, t.LoadAcquire64(d.F("value"))})
			}
		}
		cur = t.LoadAcquire64(d.F("next"))
	}
	if length < ConsolidateThreshold {
		return
	}
	// Build the compact chain bottom-up, fully persisted.
	next := uint64(0)
	for i := len(live) - 1; i >= 0; i-- {
		next = tr.newDelta(t, deltaInsert, live[i].k, live[i].v, next)
	}
	if tr.publish(t, slot, head, next) {
		tr.consolidations++
	}
}

// AdvanceEpoch is the epoch manager's tick — bug #16: a plain store to the
// shared epoch counter, flushed afterwards.
func (tr *Tree) AdvanceEpoch(t *pmm.Thread) {
	e := t.Load64(tr.base.F("epoch"))
	t.Store64(tr.base.F("epoch"), e+1)
	t.CLFlush(tr.base.F("epoch"))
	t.SFence()
}

// Epoch reads the epoch counter — the race-observing load.
func (tr *Tree) Epoch(t *pmm.Thread) uint64 { return t.Load64(tr.base.F("epoch")) }

// Stats captures what recovery observed.
type Stats struct {
	Found   int
	Missing int
	Wrong   int
	Epoch   uint64
}

// ValueFor is the deterministic value the driver inserts for a key.
func ValueFor(key uint64) uint64 { return key ^ 0xBEEF }

// New returns the benchmark driver: interleave inserts with epoch advances;
// recovery reads the epoch and looks every key up.
func New(numKeys int, stats *Stats) func() pmm.Program {
	return func() pmm.Program {
		var tr *Tree
		return pmm.Program{
			Name:  "P-BwTree",
			Setup: func(h *pmm.Heap) { tr = NewTree(h) },
			Workers: []func(*pmm.Thread){func(t *pmm.Thread) {
				for k := uint64(1); k <= uint64(numKeys); k++ {
					tr.Insert(t, k, ValueFor(k))
					if k%2 == 0 {
						tr.AdvanceEpoch(t)
					}
				}
			}},
			PostCrash: func(t *pmm.Thread) {
				ep := tr.Epoch(t)
				if stats != nil {
					stats.Epoch = ep
				}
				for k := uint64(1); k <= uint64(numKeys); k++ {
					v, ok := tr.Get(t, k)
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
