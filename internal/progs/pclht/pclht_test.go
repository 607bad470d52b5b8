package pclht

import (
	"testing"

	"yashme/internal/engine"
	"yashme/internal/pmm"
	"yashme/internal/progs/progtest"
)

func TestNoRacesMatchPaperTable3(t *testing.T) {
	// P-CLHT is the paper's zero-race benchmark: every observable store is
	// atomic (the original's volatile fields).
	progtest.AssertNoRaces(t, New(6, nil))
}

func TestNoRacesInRandomModeEither(t *testing.T) {
	res := engine.Run(New(6, nil), engine.Options{Mode: engine.RandomMode, Prefix: true, Seed: 11, Executions: 10})
	if res.Report.Count() != 0 {
		t.Fatalf("random mode found races in P-CLHT:\n%s", res.Report)
	}
}

func TestFunctionalFullRun(t *testing.T) {
	var stats Stats
	progtest.RunFull(t, New(6, &stats))
	if stats.Found != 6 || stats.Missing != 0 || stats.Wrong != 0 {
		t.Fatalf("full-run recovery stats = %+v, want 6/0/0", stats)
	}
}

func TestPutGetSemantics(t *testing.T) {
	var v uint64
	var ok bool
	mk := func() pmm.Program {
		var tb *Table
		return pmm.Program{
			Name:  "clht-sem",
			Setup: func(h *pmm.Heap) { tb = NewTable(h) },
			Workers: []func(*pmm.Thread){func(t *pmm.Thread) {
				tb.Put(t, 3, 33)
				tb.Put(t, 3, 34) // update
				v, ok = tb.Get(t, 3)
			}},
		}
	}
	progtest.RunFull(t, mk)
	if !ok || v != 34 {
		t.Fatalf("get = (%d,%v), want (34,true)", v, ok)
	}
}

func TestBucketOverflowChains(t *testing.T) {
	// Fill one bucket beyond its 3 slots: the table chains an overflow
	// bucket (atomic publication) and every key stays reachable.
	var inserted []uint64
	found := 0
	mk := func() pmm.Program {
		var tb *Table
		return pmm.Program{
			Name:  "clht-chain",
			Setup: func(h *pmm.Heap) { tb = NewTable(h) },
			Workers: []func(*pmm.Thread){func(t *pmm.Thread) {
				inserted = nil
				base := uint64(1)
				for i := uint64(0); len(inserted) < 2*EntriesPerSlot && i < 1000; i++ {
					k := base + i
					if bucketOf(k) != bucketOf(base) {
						continue
					}
					if tb.Put(t, k, k*2) {
						inserted = append(inserted, k)
					}
				}
				found = 0
				for _, k := range inserted {
					if v, ok := tb.Get(t, k); ok && v == k*2 {
						found++
					}
				}
			}},
		}
	}
	progtest.RunFull(t, mk)
	if found != 2*EntriesPerSlot {
		t.Fatalf("found %d of %d chained keys", found, 2*EntriesPerSlot)
	}
}

// Overflow chaining preserves the zero-race discipline.
func TestOverflowChainsNoRaces(t *testing.T) {
	mk := func() pmm.Program {
		var tb *Table
		return pmm.Program{
			Name:  "clht-chain-races",
			Setup: func(h *pmm.Heap) { tb = NewTable(h) },
			Workers: []func(*pmm.Thread){func(t *pmm.Thread) {
				base := uint64(1)
				n := 0
				for i := uint64(0); n < 5 && i < 1000; i++ {
					k := base + i
					if bucketOf(k) != bucketOf(base) {
						continue
					}
					tb.Put(t, k, k)
					n++
				}
			}},
			PostCrash: func(t *pmm.Thread) {
				base := uint64(1)
				n := 0
				for i := uint64(0); n < 5 && i < 1000; i++ {
					k := base + i
					if bucketOf(k) != bucketOf(base) {
						continue
					}
					tb.Get(t, k)
					n++
				}
			},
		}
	}
	res := engine.Run(mk, engine.Options{Mode: engine.ModelCheck, Prefix: true, MaxCrashPoints: 40})
	if res.Report.Count() != 0 {
		t.Fatalf("overflow chain raced: %v", res.Report.Races())
	}
}

func TestConcurrentWritersStayConsistent(t *testing.T) {
	// The two workers write disjoint keys under bucket locks; a full run
	// must retain every insertion.
	var stats Stats
	progtest.RunFull(t, New(8, &stats))
	if stats.Found != 8 {
		t.Fatalf("concurrent writers lost data: %+v", stats)
	}
}
