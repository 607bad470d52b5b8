package part

import (
	"testing"

	"yashme/internal/engine"
	"yashme/internal/pmm"
	"yashme/internal/progs/progtest"
)

func TestRacesMatchPaperTable3(t *testing.T) {
	// 6 primary keys overflow the leaf-level N4, triggering growth + Epoche
	// retirement.
	progtest.AssertRaces(t, New(6, nil), ExpectedRaces)
}

func TestFunctionalFullRun(t *testing.T) {
	var stats Stats
	progtest.RunFull(t, New(6, &stats))
	want := len(DriverKeys(6))
	if stats.Missing != 0 || stats.Wrong != 0 || stats.Found != want {
		t.Fatalf("full-run recovery stats = %+v, want %d/0/0", stats, want)
	}
}

func TestNoGrowthNoEpocheRaces(t *testing.T) {
	// 2 primary keys (+1 in the second subtree) fit in the N4 nodes: no
	// retirement, so the DeletionList fields are never written and must not
	// be reported.
	res := engine.Run(New(2, nil), engine.Options{Mode: engine.ModelCheck, Prefix: true})
	for _, r := range res.Report.Races() {
		if r.Field != "N.compactCount" && r.Field != "N.count" {
			t.Fatalf("unexpected race without growth: %v", r)
		}
	}
}

func TestByteAt(t *testing.T) {
	if byteAt(0x1234, 0) != 0x12 || byteAt(0x1234, 1) != 0x34 {
		t.Fatalf("byteAt wrong: %x %x", byteAt(0x1234, 0), byteAt(0x1234, 1))
	}
}

func TestInsertUpdateSemantics(t *testing.T) {
	var v1, v2 uint64
	var ok1, ok2 bool
	mk := func() pmm.Program {
		var tr *Tree
		return pmm.Program{
			Name:  "part-sem",
			Setup: func(h *pmm.Heap) { tr = NewTree(h) },
			Workers: []func(*pmm.Thread){func(t *pmm.Thread) {
				tr.Insert(t, 5, 50)
				v1, ok1 = tr.Lookup(t, 5)
				tr.Insert(t, 5, 55) // update in place
				v2, ok2 = tr.Lookup(t, 5)
			}},
		}
	}
	progtest.RunFull(t, mk)
	if !ok1 || v1 != 50 {
		t.Fatalf("first lookup = (%d,%v)", v1, ok1)
	}
	if !ok2 || v2 != 55 {
		t.Fatalf("after update = (%d,%v)", v2, ok2)
	}
}

func TestMultiLevelSeparation(t *testing.T) {
	// Keys 0x0005 and 0x0105 share the low byte but live in different
	// level-0 subtrees: they must not collide.
	var vA, vB uint64
	var okA, okB bool
	mk := func() pmm.Program {
		var tr *Tree
		return pmm.Program{
			Name:  "part-levels",
			Setup: func(h *pmm.Heap) { tr = NewTree(h) },
			Workers: []func(*pmm.Thread){func(t *pmm.Thread) {
				tr.Insert(t, 0x0005, 111)
				tr.Insert(t, 0x0105, 222)
				vA, okA = tr.Lookup(t, 0x0005)
				vB, okB = tr.Lookup(t, 0x0105)
			}},
		}
	}
	progtest.RunFull(t, mk)
	if !okA || vA != 111 || !okB || vB != 222 {
		t.Fatalf("multi-level lookups = (%d,%v) (%d,%v)", vA, okA, vB, okB)
	}
}

func TestGrowthPreservesEntries(t *testing.T) {
	found := 0
	total := 0
	mk := func() pmm.Program {
		var tr *Tree
		return pmm.Program{
			Name:  "part-grow",
			Setup: func(h *pmm.Heap) { tr = NewTree(h) },
			Workers: []func(*pmm.Thread){func(t *pmm.Thread) {
				// 10 keys in one subtree force leaf-level N4 → N16 growth;
				// 3 more level-0 subtrees grow the root too.
				var keys []uint64
				for k := uint64(1); k <= 10; k++ {
					keys = append(keys, k)
				}
				for s := uint64(1); s <= 4; s++ {
					keys = append(keys, s<<8|1)
				}
				total = len(keys)
				for _, k := range keys {
					tr.Insert(t, k, ValueFor(k))
				}
				for _, k := range keys {
					if v, ok := tr.Lookup(t, k); ok && v == ValueFor(k) {
						found++
					}
				}
			}},
		}
	}
	progtest.RunFull(t, mk)
	if found != total {
		t.Fatalf("after growth found %d of %d", found, total)
	}
}

func TestByteSizedAddedFieldRaces(t *testing.T) {
	// Bug #14 is a 1-byte field: the paper stresses that even byte-size
	// fields are unsafe (store inventing).
	res := engine.Run(New(6, nil), engine.Options{Mode: engine.ModelCheck, Prefix: true})
	found := false
	for _, r := range res.Report.Races() {
		if r.Field == "DeletionList.added" {
			found = true
		}
	}
	if !found {
		t.Fatal("byte-size DeletionList.added race not reported")
	}
}
