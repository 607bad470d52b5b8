package fastfair

import (
	"testing"

	"yashme/internal/engine"
	"yashme/internal/pmm"
	"yashme/internal/progs/progtest"
)

func TestRacesMatchPaperTable3(t *testing.T) {
	progtest.AssertRaces(t, New(7, nil), ExpectedRaces)
}

func TestFunctionalFullRun(t *testing.T) {
	var stats Stats
	progtest.RunFull(t, New(9, &stats))
	// Key 2 was deleted by the driver.
	if stats.Found != 8 || stats.Missing != 1 || stats.Wrong != 0 {
		t.Fatalf("full-run recovery stats = %+v, want 8 found / 1 missing (deleted) / 0 wrong", stats)
	}
}

func TestInsertSearchAcrossSplits(t *testing.T) {
	results := map[uint64]uint64{}
	mk := func() pmm.Program {
		var tr *Tree
		return pmm.Program{
			Name:  "ff-sem",
			Setup: func(h *pmm.Heap) { tr = NewTree(h) },
			Workers: []func(*pmm.Thread){func(t *pmm.Thread) {
				// Enough keys for multi-level splits with cardinality 4.
				for k := uint64(1); k <= 20; k++ {
					tr.Insert(t, k, ValueFor(k))
				}
				for k := uint64(1); k <= 20; k++ {
					if v, ok := tr.Search(t, k); ok {
						results[k] = v
					}
				}
			}},
		}
	}
	progtest.RunFull(t, mk)
	for k := uint64(1); k <= 20; k++ {
		if results[k] != ValueFor(k) {
			t.Fatalf("key %d = %#x, want %#x", k, results[k], ValueFor(k))
		}
	}
}

func TestDescendingInsertOrder(t *testing.T) {
	found := 0
	mk := func() pmm.Program {
		var tr *Tree
		return pmm.Program{
			Name:  "ff-desc",
			Setup: func(h *pmm.Heap) { tr = NewTree(h) },
			Workers: []func(*pmm.Thread){func(t *pmm.Thread) {
				for k := uint64(12); k >= 1; k-- {
					tr.Insert(t, k, ValueFor(k))
				}
				for k := uint64(1); k <= 12; k++ {
					if v, ok := tr.Search(t, k); ok && v == ValueFor(k) {
						found++
					}
				}
			}},
		}
	}
	progtest.RunFull(t, mk)
	if found != 12 {
		t.Fatalf("descending insert: found %d of 12", found)
	}
}

func TestDeleteSemantics(t *testing.T) {
	var okDel, foundAfter bool
	mk := func() pmm.Program {
		var tr *Tree
		return pmm.Program{
			Name:  "ff-del",
			Setup: func(h *pmm.Heap) { tr = NewTree(h) },
			Workers: []func(*pmm.Thread){func(t *pmm.Thread) {
				for k := uint64(1); k <= 3; k++ {
					tr.Insert(t, k, ValueFor(k))
				}
				okDel = tr.Delete(t, 2)
				_, foundAfter = tr.Search(t, 2)
			}},
		}
	}
	progtest.RunFull(t, mk)
	if !okDel || foundAfter {
		t.Fatalf("delete=%v foundAfter=%v", okDel, foundAfter)
	}
}

func TestDeleteMissingKey(t *testing.T) {
	var ok bool
	mk := func() pmm.Program {
		var tr *Tree
		return pmm.Program{
			Name:  "ff-delmiss",
			Setup: func(h *pmm.Heap) { tr = NewTree(h) },
			Workers: []func(*pmm.Thread){func(t *pmm.Thread) {
				tr.Insert(t, 1, 10)
				ok = tr.Delete(t, 99)
			}},
		}
	}
	progtest.RunFull(t, mk)
	if ok {
		t.Fatal("deleting a missing key reported success")
	}
}

// Construction-time fields (level, leftmost_ptr) are flushed before the
// node is published and must never be reported.
func TestConstructionFieldsAreSafe(t *testing.T) {
	res := engine.Run(New(7, nil), engine.Options{Mode: engine.ModelCheck, Prefix: true})
	for _, r := range res.Report.Races() {
		if r.Field == "header.level" || r.Field == "header.leftmost_ptr" {
			t.Fatalf("construction-time field raced: %v", r)
		}
	}
}

func TestPrefixBeatsBaselineOnSingleExecution(t *testing.T) {
	best := 0
	for seed := int64(1); seed <= 8; seed++ {
		prefix, baseline := progtest.BaselineFindsFewer(t, New(7, nil), seed)
		if d := prefix - baseline; d > best {
			best = d
		}
	}
	if best < 1 {
		t.Fatal("no seed exposed prefix-only races on Fast_Fair")
	}
}
