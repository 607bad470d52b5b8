package pmdk

import (
	"yashme/internal/pmm"
)

// Stats captures what a driver's post-crash recovery observed.
type Stats struct {
	Found      int
	Missing    int
	Wrong      int
	RolledBack int
	LogValid   bool
}

// ValueFor is the deterministic value the drivers insert for a key.
func ValueFor(key uint64) uint64 { return key*7 + 3 }

type kvStore interface {
	put(t *pmm.Thread, key, val uint64)
	get(t *pmm.Thread, key uint64) (uint64, bool)
}

// driver builds the common Program shape: insert keys pre-crash, then
// recover the pool and look every key up post-crash. A key may legitimately
// be missing after a crash (the transaction was rolled back); Wrong counts
// the real failures — values that exist but differ.
func driver(name string, numKeys int, stats *Stats, build func(h *pmm.Heap, p *Pool) kvStore) func() pmm.Program {
	return func() pmm.Program {
		var pool *Pool
		var store kvStore
		return pmm.Program{
			Name: name,
			Setup: func(h *pmm.Heap) {
				pool = NewPool(h)
				store = build(h, pool)
			},
			Workers: []func(*pmm.Thread){func(t *pmm.Thread) {
				for k := uint64(1); k <= uint64(numKeys); k++ {
					store.put(t, k, ValueFor(k))
				}
			}},
			PostCrash: func(t *pmm.Thread) {
				rb, valid := pool.Recover(t)
				if stats != nil {
					stats.RolledBack += rb
					stats.LogValid = valid
				}
				for k := uint64(1); k <= uint64(numKeys); k++ {
					v, ok := store.get(t, k)
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

type btreeStore struct{ bt *BTree }

func (s btreeStore) put(t *pmm.Thread, k, v uint64)             { s.bt.Insert(t, k, v) }
func (s btreeStore) get(t *pmm.Thread, k uint64) (uint64, bool) { return s.bt.Get(t, k) }

type ctreeStore struct{ ct *CTree }

func (s ctreeStore) put(t *pmm.Thread, k, v uint64)             { s.ct.Insert(t, k, v) }
func (s ctreeStore) get(t *pmm.Thread, k uint64) (uint64, bool) { return s.ct.Get(t, k) }

type rbtreeStore struct{ rb *RBTree }

func (s rbtreeStore) put(t *pmm.Thread, k, v uint64)             { s.rb.Insert(t, k, v) }
func (s rbtreeStore) get(t *pmm.Thread, k uint64) (uint64, bool) { return s.rb.Get(t, k) }

type hashTXStore struct{ hm *HashmapTX }

func (s hashTXStore) put(t *pmm.Thread, k, v uint64)             { s.hm.Put(t, k, v) }
func (s hashTXStore) get(t *pmm.Thread, k uint64) (uint64, bool) { return s.hm.Get(t, k) }

type hashAtomicStore struct{ hm *HashmapAtomic }

func (s hashAtomicStore) put(t *pmm.Thread, k, v uint64)             { s.hm.Put(t, k, v) }
func (s hashAtomicStore) get(t *pmm.Thread, k uint64) (uint64, bool) { return s.hm.Get(t, k) }

// NewBTreeProg returns the Btree benchmark driver (paper Table 5 row
// "Btree").
func NewBTreeProg(numKeys int, stats *Stats) func() pmm.Program {
	return driver("Btree", numKeys, stats, func(h *pmm.Heap, p *Pool) kvStore { return btreeStore{NewBTree(h, p)} })
}

// NewCTreeProg returns the Ctree benchmark driver.
func NewCTreeProg(numKeys int, stats *Stats) func() pmm.Program {
	return driver("Ctree", numKeys, stats, func(h *pmm.Heap, p *Pool) kvStore { return ctreeStore{NewCTree(h, p)} })
}

// NewRBTreeProg returns the RBtree benchmark driver.
func NewRBTreeProg(numKeys int, stats *Stats) func() pmm.Program {
	return driver("RBtree", numKeys, stats, func(h *pmm.Heap, p *Pool) kvStore { return rbtreeStore{NewRBTree(h, p)} })
}

// NewHashmapTXProg returns the hashmap-tx benchmark driver.
func NewHashmapTXProg(numKeys int, stats *Stats) func() pmm.Program {
	return driver("hashmap-tx", numKeys, stats, func(h *pmm.Heap, p *Pool) kvStore { return hashTXStore{NewHashmapTX(h, p)} })
}

// NewHashmapAtomicProg returns the hashmap-atomic benchmark driver.
func NewHashmapAtomicProg(numKeys int, stats *Stats) func() pmm.Program {
	return driver("hashmap-atomic", numKeys, stats, func(h *pmm.Heap, p *Pool) kvStore { return hashAtomicStore{NewHashmapAtomic(h, p)} })
}

// NewPMDKProg returns the whole-framework driver used for Table 4: all five
// example structures against one pool under the single benchmark name
// "PMDK" (races deduplicate across structures, leaving the one ulog bug).
func NewPMDKProg(numKeys int, stats *Stats) func() pmm.Program {
	return func() pmm.Program {
		var pool *Pool
		var stores []kvStore
		return pmm.Program{
			Name: "PMDK",
			Setup: func(h *pmm.Heap) {
				pool = NewPool(h)
				stores = []kvStore{
					btreeStore{NewBTree(h, pool)},
					ctreeStore{NewCTree(h, pool)},
					rbtreeStore{NewRBTree(h, pool)},
					hashTXStore{NewHashmapTX(h, pool)},
					hashAtomicStore{NewHashmapAtomic(h, pool)},
				}
			},
			Workers: []func(*pmm.Thread){func(t *pmm.Thread) {
				for k := uint64(1); k <= uint64(numKeys); k++ {
					for _, s := range stores {
						s.put(t, k, ValueFor(k))
					}
				}
			}},
			PostCrash: func(t *pmm.Thread) {
				rb, valid := pool.Recover(t)
				if stats != nil {
					stats.RolledBack += rb
					stats.LogValid = valid
				}
				for k := uint64(1); k <= uint64(numKeys); k++ {
					for _, s := range stores {
						v, ok := s.get(t, k)
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
				}
			},
		}
	}
}
