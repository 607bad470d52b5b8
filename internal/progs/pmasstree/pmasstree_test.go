package pmasstree

import (
	"testing"

	"yashme/internal/pmm"
	"yashme/internal/progs/progtest"
)

func TestRacesMatchPaperTable3(t *testing.T) {
	// 7 descending keys force a split (next/root_ updates) plus ordinary
	// permutation commits.
	progtest.AssertRaces(t, New(7, nil), ExpectedRaces)
}

func TestFunctionalFullRun(t *testing.T) {
	var stats Stats
	progtest.RunFull(t, New(7, &stats))
	if stats.Found != 7 || stats.Missing != 0 || stats.Wrong != 0 {
		t.Fatalf("full-run recovery stats = %+v, want 7/0/0", stats)
	}
}

func TestPermutationEncoding(t *testing.T) {
	p := uint64(0)
	p = permInsert(p, 0, 0, 0) // key in slot 0, rank 0
	if permCount(p) != 1 || permSlot(p, 0) != 0 {
		t.Fatalf("after first insert: count=%d slot0=%d", permCount(p), permSlot(p, 0))
	}
	// Insert a smaller key into slot 1: it takes rank 0, pushing slot 0 to
	// rank 1.
	p = permInsert(p, 0, 1, 1)
	if permCount(p) != 2 || permSlot(p, 0) != 1 || permSlot(p, 1) != 0 {
		t.Fatalf("after second insert: count=%d ranks=[%d %d]", permCount(p), permSlot(p, 0), permSlot(p, 1))
	}
	// Insert a larger key into slot 2 at rank 2.
	p = permInsert(p, 2, 2, 2)
	if permCount(p) != 3 || permSlot(p, 2) != 2 || permSlot(p, 0) != 1 {
		t.Fatalf("after third insert: count=%d ranks=[%d %d %d]",
			permCount(p), permSlot(p, 0), permSlot(p, 1), permSlot(p, 2))
	}
	// Middle insert: slot 3 at rank 1 shifts ranks 1,2 up.
	p = permInsert(p, 1, 3, 3)
	want := []int{1, 3, 0, 2}
	for r, w := range want {
		if permSlot(p, r) != w {
			t.Fatalf("after middle insert rank %d = %d, want %d", r, permSlot(p, r), w)
		}
	}
}

func TestInsertAscendingAndDescending(t *testing.T) {
	for name, order := range map[string][]uint64{
		"ascending":  {1, 2, 3, 4, 5, 6, 7, 8, 9, 10},
		"descending": {10, 9, 8, 7, 6, 5, 4, 3, 2, 1},
		"mixed":      {5, 1, 9, 3, 7, 2, 8, 4, 10, 6},
	} {
		found := 0
		order := order
		mk := func() pmm.Program {
			var tr *Tree
			return pmm.Program{
				Name:  "mass-" + name,
				Setup: func(h *pmm.Heap) { tr = NewTree(h) },
				Workers: []func(*pmm.Thread){func(t *pmm.Thread) {
					for _, k := range order {
						tr.Insert(t, k, ValueFor(k))
					}
					for _, k := range order {
						if v, ok := tr.Get(t, k); ok && v == ValueFor(k) {
							found++
						}
					}
				}},
			}
		}
		progtest.RunFull(t, mk)
		if found != len(order) {
			t.Fatalf("%s: found %d of %d", name, found, len(order))
		}
	}
}

func TestGetMissingKey(t *testing.T) {
	var ok bool
	mk := func() pmm.Program {
		var tr *Tree
		return pmm.Program{
			Name:  "mass-miss",
			Setup: func(h *pmm.Heap) { tr = NewTree(h) },
			Workers: []func(*pmm.Thread){func(t *pmm.Thread) {
				tr.Insert(t, 5, 50)
				_, ok = tr.Get(t, 6)
			}},
		}
	}
	progtest.RunFull(t, mk)
	if ok {
		t.Fatal("missing key reported found")
	}
}
