// Package redispm reproduces the persistent-memory port of Redis
// (pmem/redis) the paper evaluates. Redis stores its dictionary through
// PMDK's libpmemobj transaction API and validates everything it reads from
// persistent memory against checksums before use, which is why Yashme's
// single-execution run reports zero harmful races for it (Table 5, row
// "Redis") — the races it does observe are the benign checksum-guarded kind
// (§7.5). The paper notes most PMDK pool races "could be revealed by Redis
// as well"; they deduplicate into the PMDK row of Table 4.
package redispm

import (
	"yashme/internal/pmdk"
	"yashme/internal/pmm"
)

// DictSize is the (downsized) number of dictionary slots.
const DictSize = 16

// ExpectedBenign are the checksum-guarded benign races Redis exposes: the
// ulog reads performed by its guarded pool-open path.
var ExpectedBenign = []string{
	"ulog.checksum",
	"ulog.entry_ptr",
	"ulog_entry.offset",
	"ulog_entry.value",
}

// Server is a miniature pmem-Redis: a dictionary of key/value slots whose
// mutations run through PMDK transactions.
type Server struct {
	pool *pmdk.Pool
	dict pmm.Array // "dictEntry" {key, value, used}
}

// NewServer allocates the dictionary in pool p's heap h during Setup.
func NewServer(h *pmm.Heap, p *pmdk.Pool) *Server {
	return &Server{
		pool: p,
		dict: h.AllocArray("dictEntry", pmm.Layout{
			{Name: "key", Size: 8}, {Name: "value", Size: 8}, {Name: "used", Size: 8},
		}, DictSize),
	}
}

func slotOf(key uint64) int { return int((key * 0x9E3779B97F4A7C15) % DictSize) }

// Set inserts or updates a key inside one PMDK transaction.
func (s *Server) Set(t *pmm.Thread, key, value uint64) bool {
	for probe := 0; probe < DictSize; probe++ {
		e := s.dict.At((slotOf(key) + probe) % DictSize)
		used := t.Load64(e.F("used"))
		if used == 1 && t.Load64(e.F("key")) != key {
			continue
		}
		tx := s.pool.TxBegin(t)
		tx.Set(e.F("key"), key)
		tx.Set(e.F("value"), value)
		tx.Set(e.F("used"), 1)
		tx.Commit()
		return true
	}
	return false
}

// Get looks a key up.
func (s *Server) Get(t *pmm.Thread, key uint64) (uint64, bool) {
	for probe := 0; probe < DictSize; probe++ {
		e := s.dict.At((slotOf(key) + probe) % DictSize)
		if t.Load64(e.F("used")) != 1 {
			return 0, false
		}
		if t.Load64(e.F("key")) == key {
			return t.Load64(e.F("value")), true
		}
	}
	return 0, false
}

// Restart is the post-crash open path: the guarded PMDK recovery (all log
// reads under the checksum guard) followed by dictionary readback.
func (s *Server) Restart(t *pmm.Thread) (rolledBack int, valid bool) {
	return s.pool.RecoverGuarded(t)
}

// Stats captures what recovery observed.
type Stats struct {
	Found      int
	Missing    int
	Wrong      int
	RolledBack int
}

// ValueFor is the deterministic value the driver stores for a key.
func ValueFor(key uint64) uint64 { return key*13 + 5 }

// New returns the benchmark driver: a client thread issues SET commands;
// the restart path recovers the pool and issues GETs.
func New(numKeys int, stats *Stats) func() pmm.Program {
	return func() pmm.Program {
		var srv *Server
		return pmm.Program{
			Name: "Redis",
			Setup: func(h *pmm.Heap) {
				srv = NewServer(h, pmdk.NewPool(h))
			},
			Workers: []func(*pmm.Thread){func(t *pmm.Thread) {
				for k := uint64(1); k <= uint64(numKeys); k++ {
					srv.Set(t, k, ValueFor(k))
				}
			}},
			PostCrash: func(t *pmm.Thread) {
				rb, _ := srv.Restart(t)
				if stats != nil {
					stats.RolledBack += rb
				}
				for k := uint64(1); k <= uint64(numKeys); k++ {
					v, ok := srv.Get(t, k)
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
