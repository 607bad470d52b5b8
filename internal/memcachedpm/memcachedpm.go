// Package memcachedpm reproduces the persistent-memory port of Memcached
// (lenovo/memcached-pmem) that the paper evaluates, with the four
// persistency races Yashme reports for it (Table 4, bugs 2–5):
//
//	#2  valid    in pslab_pool_t struct (pslab.c:368)
//	#3  id       in pslab_t struct      (pslab.c:92)
//	#4  it_flags in item_chunk struct   (slabs.c:543, items.c)
//	#5  cas      in item struct         (memcached.c:4290, items.c:538)
//
// Memcached-pmem manages a pool of persistent slabs through the low-level
// libpmem API; the pool-header validity flag, slab ids, item-chunk flags
// and per-item CAS counters are all plain stores that the restart path
// reads back. Item payloads, by contrast, are verified against a checksum
// before use — races on them are benign (§7.5).
package memcachedpm

import (
	"yashme/internal/pmm"
)

// Pool geometry (downsized).
const (
	NumSlabs      = 2
	ItemsPerSlab  = 4
	chunksPerSlab = ItemsPerSlab
)

// ExpectedHarmful are the Table 4 fields for Memcached.
var ExpectedHarmful = []string{
	"item.cas",
	"item_chunk.it_flags",
	"pslab_pool_t.valid",
	"pslab_t.id",
}

// ExpectedBenign are the checksum-guarded item payload races.
var ExpectedBenign = []string{"item.checksum", "item.key", "item.value"}

// Server is a miniature memcached-pmem instance.
type Server struct {
	pool   pmm.Struct // "pslab_pool_t" {valid}
	slabs  pmm.Array  // "pslab_t" {id}
	chunks pmm.Array  // "item_chunk" {it_flags}
	items  pmm.Array  // "item" {cas, key, value, checksum}
	casSeq uint64
}

// NewServer allocates the pool layout during Setup.
func NewServer(h *pmm.Heap) *Server {
	return &Server{
		pool:   h.AllocStruct("pslab_pool_t", pmm.Layout{{Name: "valid", Size: 1}}),
		slabs:  h.AllocArray("pslab_t", pmm.Layout{{Name: "id", Size: 8}}, NumSlabs),
		chunks: h.AllocArray("item_chunk", pmm.Layout{{Name: "it_flags", Size: 1}}, NumSlabs*chunksPerSlab),
		items: h.AllocArray("item", pmm.Layout{
			{Name: "cas", Size: 8}, {Name: "key", Size: 8},
			{Name: "value", Size: 8}, {Name: "checksum", Size: 8},
		}, NumSlabs*ItemsPerSlab),
	}
}

// Startup initializes the slab pool: the pool is marked in-use (valid=0)
// and each slab gets its id — both plain stores (bugs #2/#3).
func (s *Server) Startup(t *pmm.Thread) {
	// Bug #2: plain store to the pool validity flag.
	t.Store8(s.pool.F("valid"), 0)
	t.CLFlush(s.pool.F("valid"))
	for i := 0; i < NumSlabs; i++ {
		// Bug #3: plain store to the slab id.
		t.Store64(s.slabs.At(i).F("id"), uint64(i+1))
		t.CLFlush(s.slabs.At(i).F("id"))
	}
	t.SFence()
}

func itemChecksum(key, value, cas uint64) uint64 {
	sum := uint64(0xCBF29CE484222325)
	for _, v := range [...]uint64{key, value, cas} {
		sum = (sum ^ v) * 0x100000001B3
	}
	return sum
}

// SetItem stores a key/value pair into slot idx: the chunk flags and the
// CAS counter are plain stores (bugs #4/#5); the payload is checksummed.
func (s *Server) SetItem(t *pmm.Thread, idx int, key, value uint64) {
	s.casSeq++
	cas := s.casSeq
	chunk := s.chunks.At(idx)
	item := s.items.At(idx)
	// Bug #4: plain store to the chunk flags (ITEM_LINKED etc.).
	t.Store8(chunk.F("it_flags"), 1)
	t.Store64(item.F("key"), key)
	t.Store64(item.F("value"), value)
	// Bug #5: plain store to the item CAS counter.
	t.Store64(item.F("cas"), cas)
	t.Store64(item.F("checksum"), itemChecksum(key, value, cas))
	t.Persist(chunk.Base(), chunk.Size())
	t.Persist(item.Base(), item.Size())
}

// Shutdown marks the pool cleanly closed (valid=1), again a plain store.
func (s *Server) Shutdown(t *pmm.Thread) {
	t.Store8(s.pool.F("valid"), 1)
	t.CLFlush(s.pool.F("valid"))
	t.SFence()
}

// RecoveredItem is what the restart path reports per slot.
type RecoveredItem struct {
	Key, Value uint64
	Linked     bool
	ChecksumOK bool
}

// Restart is the post-crash path: it reads the pool validity flag, slab
// ids, chunk flags and CAS counters directly (the four harmful races) and
// validates item payloads under the checksum guard (benign races).
func (s *Server) Restart(t *pmm.Thread) (valid bool, out []RecoveredItem) {
	// Bug #2's observing load.
	valid = t.Load8(s.pool.F("valid")) == 1
	for i := 0; i < NumSlabs; i++ {
		// Bug #3's observing load.
		_ = t.Load64(s.slabs.At(i).F("id"))
	}
	for i := 0; i < NumSlabs*ItemsPerSlab; i++ {
		chunk, item := s.chunks.At(i), s.items.At(i)
		// Bug #4's observing load.
		linked := t.Load8(chunk.F("it_flags")) == 1
		if !linked {
			out = append(out, RecoveredItem{})
			continue
		}
		// Bug #5's observing load.
		cas := t.Load64(item.F("cas"))
		var key, value, stored uint64
		t.ChecksumGuard(func() {
			key = t.Load64(item.F("key"))
			value = t.Load64(item.F("value"))
			stored = t.Load64(item.F("checksum"))
		})
		ok := stored == itemChecksum(key, value, cas)
		ri := RecoveredItem{Linked: true, ChecksumOK: ok}
		if ok {
			ri.Key, ri.Value = key, value
		}
		out = append(out, ri)
	}
	return valid, out
}

// Stats captures what the restart path observed.
type Stats struct {
	Valid     bool
	Recovered int
	BadSums   int
}

// ValueFor is the deterministic value the driver stores for a key.
func ValueFor(key uint64) uint64 { return key<<4 | 0x9 }

// New returns the benchmark driver: the server starts the slab pool, two
// client-feed threads set items, the server shuts down; the restart path
// then recovers the pool.
func New(numItems int, stats *Stats) func() pmm.Program {
	if numItems > NumSlabs*ItemsPerSlab {
		numItems = NumSlabs * ItemsPerSlab
	}
	n := numItems
	return func() pmm.Program {
		var srv *Server
		return pmm.Program{
			Name:  "Memcached",
			Setup: func(h *pmm.Heap) { srv = NewServer(h) },
			Workers: []func(*pmm.Thread){func(t *pmm.Thread) {
				srv.Startup(t)
				for i := 0; i < n; i++ {
					srv.SetItem(t, i, uint64(i+1), ValueFor(uint64(i+1)))
				}
				srv.Shutdown(t)
			}},
			PostCrash: func(t *pmm.Thread) {
				valid, items := srv.Restart(t)
				if stats == nil {
					return
				}
				stats.Valid = valid
				for _, it := range items {
					if !it.Linked {
						continue
					}
					if it.ChecksumOK {
						stats.Recovered++
					} else {
						stats.BadSums++
					}
				}
			},
		}
	}
}
