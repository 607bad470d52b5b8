// Package pclht reproduces P-CLHT, the persistent Cache-Line Hash Table
// from the RECIPE suite — the one benchmark in which Yashme found NO
// persistency races (paper Table 3 and §3.2): P-CLHT "uses a lock-free
// design and critical store operations are defined as volatile and the
// compiler did not optimize them with memory operations".
//
// Every store the recovery path can observe is an atomic operation here
// (modelling the volatile/atomic fields of the original), so the package
// serves as the detector's true-negative control.
package pclht

import (
	"yashme/internal/pmm"
)

// Geometry: buckets of ENTRIES_PER_BUCKET slots, one bucket per cache line.
const (
	NumBuckets     = 8
	EntriesPerSlot = 3
	lockFree       = 0
	lockHeld       = 1
)

// ExpectedRaces is empty: P-CLHT is the paper's zero-race benchmark.
var ExpectedRaces = []string{}

// Table is a P-CLHT instance. Overflow buckets chain off the fixed array
// through atomically published next pointers, so the zero-race discipline
// extends to unbounded occupancy (CLHT's linked buckets); a next pointer
// resolves through the thread's heap (nextBucket).
type Table struct {
	buckets pmm.Array // "bucket_t": {lock, key0..2, val0..2, next}
}

var bucketLayout = pmm.Layout{
	{Name: "lock", Size: 8},
	{Name: "key0", Size: 8}, {Name: "key1", Size: 8}, {Name: "key2", Size: 8},
	{Name: "val0", Size: 8}, {Name: "val1", Size: 8}, {Name: "val2", Size: 8},
	{Name: "next", Size: 8}, // overflow chain (atomic publication)
}

// NewTable allocates the bucket array.
func NewTable(h *pmm.Heap) *Table {
	return &Table{buckets: h.AllocArray("bucket_t", bucketLayout, NumBuckets)}
}

// nextBucket follows an overflow link (atomic load) and resolves it through
// the thread's heap, mirroring how recovery code casts a mapped PM offset
// back to bucket_t*.
func (tb *Table) nextBucket(t *pmm.Thread, b pmm.Struct) (pmm.Struct, bool) {
	addr := t.LoadAcquire64(b.F("next"))
	if addr == 0 {
		return pmm.Struct{}, false
	}
	ob, ok := t.Heap().StructAt(pmm.Addr(addr))
	if !ok || ob.Label() != "bucket_t" {
		return pmm.Struct{}, false
	}
	return ob, true
}

// addOverflow allocates, persists and atomically publishes a fresh overflow
// bucket behind b.
func (tb *Table) addOverflow(t *pmm.Thread, b pmm.Struct) pmm.Struct {
	ob := t.Heap().AllocStruct("bucket_t", bucketLayout)
	t.Persist(ob.Base(), ob.Size())
	t.StoreRelease64(b.F("next"), uint64(ob.Base()))
	t.Persist(b.F("next"), 8)
	return ob
}

func bucketOf(key uint64) int { return int((key * 0x2545F4914F6CDD1D) % NumBuckets) }

func keyField(i int) string { return []string{"key0", "key1", "key2"}[i] }
func valField(i int) string { return []string{"val0", "val1", "val2"}[i] }

// Put inserts or updates a key. The bucket lock is a CAS spinlock; the key
// and value stores are atomic release stores (the volatile fields of the
// original), then persisted with clwb+sfence before the slot is published.
func (tb *Table) Put(t *pmm.Thread, key, value uint64) bool {
	b := tb.buckets.At(bucketOf(key))
	lock := b.F("lock")
	for !t.CAS64(lock, lockFree, lockHeld) {
		t.Yield()
	}
	defer func() {
		t.StoreRelease64(lock, lockFree)
	}()
	cur := b
	for {
		free := -1
		for i := 0; i < EntriesPerSlot; i++ {
			k := t.LoadAcquire64(cur.F(keyField(i)))
			if k == key {
				t.StoreRelease64(cur.F(valField(i)), value)
				t.Persist(cur.F(valField(i)), 8)
				return true
			}
			if k == 0 && free < 0 {
				free = i
			}
		}
		if free >= 0 {
			// Value first, persist, then publish the key atomically and
			// persist: the atomic publication means a post-crash reader
			// that sees the key also gets coherence protection for the
			// value.
			t.StoreRelease64(cur.F(valField(free)), value)
			t.Persist(cur.F(valField(free)), 8)
			t.StoreRelease64(cur.F(keyField(free)), key)
			t.Persist(cur.F(keyField(free)), 8)
			return true
		}
		next, ok := tb.nextBucket(t, cur)
		if !ok {
			next = tb.addOverflow(t, cur)
		}
		cur = next
	}
}

// Get looks a key up with atomic loads only, following overflow links.
func (tb *Table) Get(t *pmm.Thread, key uint64) (uint64, bool) {
	cur := tb.buckets.At(bucketOf(key))
	for {
		for i := 0; i < EntriesPerSlot; i++ {
			if t.LoadAcquire64(cur.F(keyField(i))) == key {
				return t.LoadAcquire64(cur.F(valField(i))), true
			}
		}
		next, ok := tb.nextBucket(t, cur)
		if !ok {
			return 0, false
		}
		cur = next
	}
}

// Stats captures what recovery observed.
type Stats struct {
	Found   int
	Missing int
	Wrong   int
}

// ValueFor is the deterministic value the driver inserts for a key.
func ValueFor(key uint64) uint64 { return key*3 + 1 }

// New returns the benchmark driver: two concurrent writers insert disjoint
// keys; recovery looks everything up with atomic loads.
func New(numKeys int, stats *Stats) func() pmm.Program {
	return func() pmm.Program {
		var tb *Table
		return pmm.Program{
			Name:  "P-CLHT",
			Setup: func(h *pmm.Heap) { tb = NewTable(h) },
			Workers: []func(*pmm.Thread){
				func(t *pmm.Thread) {
					for k := uint64(1); k <= uint64(numKeys); k += 2 {
						tb.Put(t, k, ValueFor(k))
					}
				},
				func(t *pmm.Thread) {
					for k := uint64(2); k <= uint64(numKeys); k += 2 {
						tb.Put(t, k, ValueFor(k))
					}
				},
			},
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
