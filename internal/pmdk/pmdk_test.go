package pmdk

import (
	"sort"
	"testing"

	"yashme/internal/engine"
	"yashme/internal/pmm"
	"yashme/internal/progs/progtest"
)

func modelCheck(t *testing.T, mk func() pmm.Program) *engine.Result {
	t.Helper()
	return engine.Run(mk, engine.Options{Mode: engine.ModelCheck, Prefix: true, MaxCrashPoints: 60})
}

// Every PMDK example structure exposes exactly one harmful race: the ulog
// entry pointer (Table 4 bug #1, Table 5's per-structure "1" rows).
func TestEachStructureExposesOnlyULogRace(t *testing.T) {
	cases := map[string]func() pmm.Program{
		"Btree":          NewBTreeProg(5, nil),
		"Ctree":          NewCTreeProg(5, nil),
		"RBtree":         NewRBTreeProg(5, nil),
		"hashmap-tx":     NewHashmapTXProg(5, nil),
		"hashmap-atomic": NewHashmapAtomicProg(5, nil),
	}
	for name, mk := range cases {
		res := modelCheck(t, mk)
		fields := res.Report.Fields()
		if len(fields) != 1 || fields[0] != "ulog.entry_ptr" {
			t.Errorf("%s harmful races = %v, want [ulog.entry_ptr]\n%s", name, fields, res.Report)
		}
	}
}

func TestWholeFrameworkDeduplicatesToOneRace(t *testing.T) {
	res := modelCheck(t, NewPMDKProg(3, nil))
	fields := res.Report.Fields()
	if len(fields) != 1 || fields[0] != "ulog.entry_ptr" {
		t.Fatalf("PMDK harmful races = %v, want [ulog.entry_ptr]", fields)
	}
}

// The checksum-guarded log reads are benign races (§7.5).
func TestBenignChecksumRaces(t *testing.T) {
	res := modelCheck(t, NewBTreeProg(5, nil))
	var got []string
	for _, r := range res.Report.Benign() {
		got = append(got, r.Field)
	}
	sort.Strings(got)
	want := append([]string(nil), ExpectedBenign...)
	sort.Strings(want)
	if len(got) != len(want) {
		t.Fatalf("benign races = %v, want %v", got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("benign races = %v, want %v", got, want)
		}
	}
}

// Functional: every structure retains all data across a full run.
func TestFunctionalFullRuns(t *testing.T) {
	cases := map[string]func(*Stats) func() pmm.Program{
		"Btree":          func(s *Stats) func() pmm.Program { return NewBTreeProg(8, s) },
		"Ctree":          func(s *Stats) func() pmm.Program { return NewCTreeProg(8, s) },
		"RBtree":         func(s *Stats) func() pmm.Program { return NewRBTreeProg(8, s) },
		"hashmap-tx":     func(s *Stats) func() pmm.Program { return NewHashmapTXProg(8, s) },
		"hashmap-atomic": func(s *Stats) func() pmm.Program { return NewHashmapAtomicProg(8, s) },
	}
	for name, mk := range cases {
		var stats Stats
		progtest.RunFull(t, mk(&stats))
		if stats.Found != 8 || stats.Missing != 0 || stats.Wrong != 0 {
			t.Errorf("%s full-run stats = %+v, want 8/0/0", name, stats)
		}
		if !stats.LogValid {
			t.Errorf("%s log invalid after clean run", name)
		}
	}
}

// Crash consistency: across every crash point and image policy, recovery
// must never observe a WRONG value — a key either round-trips or its
// transaction was rolled back (missing is acceptable mid-insert).
func TestNoWrongValuesAtAnyCrashPoint(t *testing.T) {
	var stats Stats
	// Workers: 1 — the program writes the shared stats.
	res := engine.Run(NewHashmapTXProg(4, &stats),
		engine.Options{Mode: engine.ModelCheck, Prefix: true, MaxCrashPoints: 80, Workers: 1})
	if stats.Wrong != 0 {
		t.Fatalf("recovery observed %d wrong values across %d executions", stats.Wrong, res.ExecutionsRun)
	}
}

// The undo log rolls back uncommitted transactions.
func TestRollbackRestoresPreTxState(t *testing.T) {
	var observed uint64
	var rolledBack int
	mk := func() pmm.Program {
		var pool *Pool
		var x pmm.Addr
		return pmm.Program{
			Name: "rollback",
			Setup: func(h *pmm.Heap) {
				pool = NewPool(h)
				x = h.AllocStruct("obj", pmm.Layout{{Name: "x", Size: 8}}).F("x")
				h.Init(x, 8, 100)
			},
			Workers: []func(*pmm.Thread){func(t *pmm.Thread) {
				tx := pool.TxBegin(t)
				tx.Set(x, 200)
				// No commit: the run ends with the tx open; recovery must
				// roll x back to 100.
			}},
			PostCrash: func(t *pmm.Thread) {
				rb, _ := pool.Recover(t)
				rolledBack = rb
				observed = t.Load64(x)
			},
		}
	}
	progtest.RunFull(t, mk)
	if rolledBack != 1 || observed != 100 {
		t.Fatalf("rollback=%d observed=%d, want 1 and 100", rolledBack, observed)
	}
}

// Committed transactions survive recovery untouched.
func TestCommittedTxSurvives(t *testing.T) {
	var observed uint64
	mk := func() pmm.Program {
		var pool *Pool
		var x pmm.Addr
		return pmm.Program{
			Name: "committed",
			Setup: func(h *pmm.Heap) {
				pool = NewPool(h)
				x = h.AllocStruct("obj", pmm.Layout{{Name: "x", Size: 8}}).F("x")
			},
			Workers: []func(*pmm.Thread){func(t *pmm.Thread) {
				tx := pool.TxBegin(t)
				tx.Set(x, 42)
				tx.Commit()
			}},
			PostCrash: func(t *pmm.Thread) {
				pool.Recover(t)
				observed = t.Load64(x)
			},
		}
	}
	progtest.RunFull(t, mk)
	if observed != 42 {
		t.Fatalf("committed value = %d, want 42", observed)
	}
}

func TestBTreeSplitAndLookup(t *testing.T) {
	var stats Stats
	progtest.RunFull(t, NewBTreeProg(6, &stats)) // > BTreeOrder forces a split
	if stats.Found != 6 {
		t.Fatalf("btree after split found %d of 6: %+v", stats.Found, stats)
	}
}

func TestRBTreeColorsAndUpdates(t *testing.T) {
	var v1, v2 uint64
	mk := func() pmm.Program {
		var pool *Pool
		var rb *RBTree
		return pmm.Program{
			Name: "rb-sem",
			Setup: func(h *pmm.Heap) {
				pool = NewPool(h)
				rb = NewRBTree(h, pool)
			},
			Workers: []func(*pmm.Thread){func(t *pmm.Thread) {
				rb.Insert(t, 5, 50)
				rb.Insert(t, 3, 30)
				rb.Insert(t, 5, 55) // update
				v1, _ = rb.Get(t, 5)
				v2, _ = rb.Get(t, 3)
			}},
		}
	}
	progtest.RunFull(t, mk)
	if v1 != 55 || v2 != 30 {
		t.Fatalf("rbtree get = %d/%d, want 55/30", v1, v2)
	}
}

func TestPrefixBeatsBaselineOnSingleExecution(t *testing.T) {
	best := 0
	for seed := int64(1); seed <= 8; seed++ {
		p, b := progtest.BaselineFindsFewer(t, NewBTreeProg(4, nil), seed)
		if d := p - b; d > best {
			best = d
		}
	}
	if best < 1 {
		t.Fatal("no seed exposed prefix-only races on the PMDK btree")
	}
}

// The pool header is validated at open; creation-time fields never race.
func TestPoolHeaderValidation(t *testing.T) {
	var err error
	mk := func() pmm.Program {
		var pool *Pool
		return pmm.Program{
			Name:  "hdr",
			Setup: func(h *pmm.Heap) { pool = NewPool(h) },
			Workers: []func(*pmm.Thread){func(t *pmm.Thread) {
				err = pool.ValidateHeader(t)
			}},
			PostCrash: func(t *pmm.Thread) {
				if e := pool.ValidateHeader(t); e != nil {
					err = e
				}
			},
		}
	}
	// Workers: 1 — the program writes the shared err variable.
	res := engine.Run(mk, engine.Options{Mode: engine.ModelCheck, Prefix: true, Workers: 1})
	if err != nil {
		t.Fatalf("header validation failed: %v", err)
	}
	if res.Report.Count() != 0 || res.Report.BenignCount() != 0 {
		t.Fatalf("header reads raced:\n%s", res.Report)
	}
}
