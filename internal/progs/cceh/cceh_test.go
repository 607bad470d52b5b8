package cceh

import (
	"testing"

	"yashme/internal/engine"
	"yashme/internal/pmm"
	"yashme/internal/progs/progtest"
)

func TestRacesMatchPaperTable3(t *testing.T) {
	progtest.AssertRaces(t, New(4, nil), ExpectedRaces)
}

func TestFunctionalFullRun(t *testing.T) {
	var stats Stats
	progtest.RunFull(t, New(6, &stats))
	if stats.Missing != 0 || stats.Wrong != 0 {
		t.Fatalf("full run lost data: %+v", stats)
	}
	if stats.Found != 6 {
		t.Fatalf("found %d of 6 keys", stats.Found)
	}
}

func TestInsertGetSemantics(t *testing.T) {
	var got uint64
	var ok1 bool
	mk := func() pmm.Program {
		var tb *Table
		return pmm.Program{
			Name:  "cceh-sem",
			Setup: func(h *pmm.Heap) { tb = NewTable(h) },
			Workers: []func(*pmm.Thread){func(t *pmm.Thread) {
				tb.Insert(t, 42, 420)
				got, ok1 = tb.Get(t, 42)
			}},
		}
	}
	progtest.RunFull(t, mk)
	if !ok1 || got != 420 {
		t.Fatalf("Get after Insert = (%d, %v)", got, ok1)
	}
}

func TestInsertFullGroupFails(t *testing.T) {
	// Keys that collide into the same probe group eventually exhaust it.
	inserted := 0
	mk := func() pmm.Program {
		var tb *Table
		return pmm.Program{
			Name:  "cceh-full",
			Setup: func(h *pmm.Heap) { tb = NewTable(h) },
			Workers: []func(*pmm.Thread){func(t *pmm.Thread) {
				// Same key hashed repeatedly lands in the same group;
				// distinct keys with identical hashes aren't constructable
				// here, so insert the same key 5 times: each insert claims a
				// fresh slot in the 4-slot window, the 5th must fail.
				for i := 0; i < 5; i++ {
					if tb.Insert(t, 7, uint64(i)) {
						inserted++
					}
				}
			}},
		}
	}
	progtest.RunFull(t, mk)
	if inserted != 4 {
		t.Fatalf("inserted %d times into a 4-slot group, want 4", inserted)
	}
}

func TestPrefixBeatsBaselineOnSingleExecution(t *testing.T) {
	// Table 5 row: CCEH prefix=2, baseline=0 on a single random execution.
	// The crash point is random per seed, so scan a few seeds: prefix must
	// never trail baseline, and at least one seed must expose races the
	// baseline misses.
	best := 0
	for seed := int64(1); seed <= 8; seed++ {
		prefix, baseline := progtest.BaselineFindsFewer(t, New(4, nil), seed)
		if d := prefix - baseline; d > best {
			best = d
		}
	}
	if best < 1 {
		t.Fatal("no seed exposed prefix-only races on CCEH")
	}
}

func TestPairFieldsShareCacheLine(t *testing.T) {
	h := pmm.NewHeap()
	tb := NewTable(h)
	for s := range tb.segments {
		for i := 0; i < slotsPerSegment; i++ {
			p := tb.segments[s].At(i)
			if !pmm.SameLine(p.F("key"), p.F("value")) {
				t.Fatalf("segment %d pair %d: key and value on different lines (breaks the CCEH ordering assumption)", s, i)
			}
		}
	}
}

func TestRecoveryNeverSeesSentinel(t *testing.T) {
	// The CAS sentinel is an atomic store; even when the crash lands between
	// the CAS and the key store, recovery sees Sentinel (atomic, no race) —
	// Get just doesn't match it. Make sure the sentinel value is never
	// reported as a racing field.
	res := engine.Run(New(3, nil), engine.Options{Mode: engine.ModelCheck, Prefix: true})
	for _, r := range res.Report.Races() {
		if r.Field != "Pair.key" && r.Field != "Pair.value" {
			t.Fatalf("unexpected racing field %q", r.Field)
		}
	}
}

// The paper's fix (atomic release stores) eliminates both races without
// changing the data-structure logic — and recovery still finds all data.
func TestFixedVariantHasNoRaces(t *testing.T) {
	progtest.AssertNoRaces(t, NewFixed(4, nil))
}

func TestFixedVariantFunctional(t *testing.T) {
	var stats Stats
	progtest.RunFull(t, NewFixed(6, &stats))
	if stats.Found != 6 || stats.Missing != 0 || stats.Wrong != 0 {
		t.Fatalf("fixed variant full-run stats = %+v", stats)
	}
}
