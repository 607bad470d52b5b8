package pmdk

import (
	"testing"

	"yashme/internal/engine"
	"yashme/internal/pmm"
	"yashme/internal/progs/progtest"
)

// allocDriver allocates objects, writes a sentinel into each, and has
// recovery replay the allocator log and validate the bump pointer.
func allocDriver(nAllocs int, bumpSeen *[]uint64) func() pmm.Program {
	return func() pmm.Program {
		var alloc *Allocator
		return pmm.Program{
			Name: "palloc",
			Setup: func(h *pmm.Heap) {
				NewPool(h)
				alloc = NewAllocator(h)
			},
			Workers: []func(*pmm.Thread){func(t *pmm.Thread) {
				for i := 0; i < nAllocs; i++ {
					obj := alloc.Alloc(t, 24)
					if obj == 0 {
						break
					}
					// Initialize the object and persist before any use.
					t.Store64(obj, uint64(i)+1)
					t.Persist(obj, 8)
				}
			}},
			PostCrash: func(t *pmm.Thread) {
				alloc.Recover(t)
				if bumpSeen != nil {
					*bumpSeen = append(*bumpSeen, alloc.Used(t))
				}
			},
		}
	}
}

// The allocator is built with the atomic-publication fix: no harmful and
// no benign races at any crash point.
func TestAllocatorNoRaces(t *testing.T) {
	res := engine.Run(allocDriver(4, nil), engine.Options{Mode: engine.ModelCheck, Prefix: true, MaxCrashPoints: 60})
	if res.Report.Count() != 0 {
		t.Fatalf("allocator raced:\n%s", res.Report)
	}
}

// The bump pointer is never torn: across every crash point it is always a
// multiple of the rounded allocation size and within the arena.
func TestAllocatorBumpNeverTorn(t *testing.T) {
	var seen []uint64
	// Workers: 1 — the driver appends to the shared seen slice.
	engine.Run(allocDriver(4, &seen), engine.Options{Mode: engine.ModelCheck, Prefix: true, MaxCrashPoints: 60, Workers: 1})
	if len(seen) == 0 {
		t.Fatal("no recoveries observed")
	}
	for _, b := range seen {
		if b%32 != 0 || b > ArenaSize {
			t.Fatalf("torn or out-of-range bump pointer: %d", b)
		}
	}
}

func TestAllocatorFullRun(t *testing.T) {
	var seen []uint64
	progtest.RunFull(t, allocDriver(3, &seen))
	if len(seen) != 1 || seen[0] != 3*32 {
		t.Fatalf("bump after 3 x 24-byte (rounded 32) allocs = %v, want [96]", seen)
	}
}

func TestAllocatorExhaustion(t *testing.T) {
	var got pmm.Addr = 1
	mk := func() pmm.Program {
		var alloc *Allocator
		return pmm.Program{
			Name: "palloc-full",
			Setup: func(h *pmm.Heap) {
				NewPool(h)
				alloc = NewAllocator(h)
			},
			Workers: []func(*pmm.Thread){func(t *pmm.Thread) {
				for i := 0; i < ArenaSize/16+1; i++ {
					got = alloc.Alloc(t, 16)
				}
			}},
		}
	}
	progtest.RunFull(t, mk)
	if got != 0 {
		t.Fatal("exhausted arena did not return 0")
	}
}

func TestAllocatorAlignment(t *testing.T) {
	var a1, a2 pmm.Addr
	mk := func() pmm.Program {
		var alloc *Allocator
		return pmm.Program{
			Name: "palloc-align",
			Setup: func(h *pmm.Heap) {
				NewPool(h)
				alloc = NewAllocator(h)
			},
			Workers: []func(*pmm.Thread){func(t *pmm.Thread) {
				a1 = alloc.Alloc(t, 1)  // rounds to 16
				a2 = alloc.Alloc(t, 17) // rounds to 32
			}},
		}
	}
	progtest.RunFull(t, mk)
	if a2-a1 != 16 {
		t.Fatalf("second allocation offset = %d, want 16", a2-a1)
	}
	if a1%16 != 0 || a2%16 != 0 {
		t.Fatal("allocations not 16-byte aligned")
	}
}
