package pbwtree

import (
	"testing"

	"yashme/internal/engine"
	"yashme/internal/pmm"
	"yashme/internal/progs/progtest"
)

func TestRacesMatchPaperTable3(t *testing.T) {
	progtest.AssertRaces(t, New(6, nil), ExpectedRaces)
}

func TestFunctionalFullRun(t *testing.T) {
	var stats Stats
	progtest.RunFull(t, New(6, &stats))
	if stats.Found != 6 || stats.Missing != 0 || stats.Wrong != 0 {
		t.Fatalf("full-run recovery stats = %+v, want 6/0/0", stats)
	}
	if stats.Epoch != 3 {
		t.Fatalf("recovered epoch = %d, want 3 (advanced every 2nd insert)", stats.Epoch)
	}
}

func TestInsertUpdateGetSemantics(t *testing.T) {
	var v1, v2 uint64
	var ok1, ok2, okMiss bool
	mk := func() pmm.Program {
		var tr *Tree
		return pmm.Program{
			Name:  "bw-sem",
			Setup: func(h *pmm.Heap) { tr = NewTree(h) },
			Workers: []func(*pmm.Thread){func(t *pmm.Thread) {
				tr.Insert(t, 10, 100)
				v1, ok1 = tr.Get(t, 10)
				tr.Insert(t, 10, 111)
				v2, ok2 = tr.Get(t, 10)
				_, okMiss = tr.Get(t, 999)
			}},
		}
	}
	progtest.RunFull(t, mk)
	if !ok1 || v1 != 100 || !ok2 || v2 != 111 {
		t.Fatalf("get results = (%d,%v) (%d,%v)", v1, ok1, v2, ok2)
	}
	if okMiss {
		t.Fatal("missing key reported found")
	}
}

func TestDeltaChainConsolidation(t *testing.T) {
	var consolidations int
	var after uint64
	var ok bool
	mk := func() pmm.Program {
		var tr *Tree
		return pmm.Program{
			Name:  "bw-consolidate",
			Setup: func(h *pmm.Heap) { tr = NewTree(h) },
			Workers: []func(*pmm.Thread){func(t *pmm.Thread) {
				// Repeated updates of one key grow its slot's delta chain
				// past the threshold, forcing a consolidation rewrite.
				for i := uint64(1); i <= 8; i++ {
					tr.Insert(t, 42, i*10)
				}
				consolidations = tr.consolidations
				after, ok = tr.Get(t, 42)
			}},
		}
	}
	progtest.RunFull(t, mk)
	if consolidations == 0 {
		t.Fatal("no consolidation after 8 updates of one key")
	}
	if !ok || after != 80 {
		t.Fatalf("post-consolidation Get = (%d,%v), want (80,true)", after, ok)
	}
}

// The delta chain itself is persistency-race free: construction-persisted
// records published by CAS. Only the epoch races.
func TestDeltaChainRaceFree(t *testing.T) {
	mk := func() pmm.Program {
		var tr *Tree
		return pmm.Program{
			Name:  "bw-chain",
			Setup: func(h *pmm.Heap) { tr = NewTree(h) },
			Workers: []func(*pmm.Thread){func(t *pmm.Thread) {
				for i := uint64(1); i <= 6; i++ {
					tr.Insert(t, i%3, i) // updates + consolidations
				}
			}},
			PostCrash: func(t *pmm.Thread) {
				for k := uint64(0); k < 3; k++ {
					tr.Get(t, k)
				}
			},
		}
	}
	res := engine.Run(mk, engine.Options{Mode: engine.ModelCheck, Prefix: true})
	if res.Report.Count() != 0 {
		t.Fatalf("delta chain raced:\n%s", res.Report)
	}
}
