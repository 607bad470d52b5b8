package redispm

import (
	"sort"
	"testing"

	"yashme/internal/engine"
	"yashme/internal/progs/progtest"
)

func TestNoHarmfulRaces(t *testing.T) {
	// Table 5 row "Redis": zero harmful races — everything Redis reads from
	// PM is checksum-validated, and its dictionary updates are fully
	// transactional.
	res := engine.Run(New(4, nil), engine.Options{Mode: engine.ModelCheck, Prefix: true, MaxCrashPoints: 60})
	if res.Report.Count() != 0 {
		t.Fatalf("harmful races in Redis:\n%s", res.Report)
	}
}

func TestBenignGuardedLogRaces(t *testing.T) {
	res := engine.Run(New(4, nil), engine.Options{Mode: engine.ModelCheck, Prefix: true, MaxCrashPoints: 60})
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
	if stats.Found != 6 || stats.Missing != 0 || stats.Wrong != 0 {
		t.Fatalf("full-run stats = %+v, want 6/0/0", stats)
	}
}

// Across all crash points, recovery never serves a wrong value (rollback
// keeps the dictionary transactionally consistent).
func TestNoWrongValuesAtAnyCrashPoint(t *testing.T) {
	var stats Stats
	// Workers: 1 — the program writes the shared stats.
	engine.Run(New(3, &stats), engine.Options{Mode: engine.ModelCheck, Prefix: true, MaxCrashPoints: 60, Workers: 1})
	if stats.Wrong != 0 {
		t.Fatalf("recovery observed %d wrong values", stats.Wrong)
	}
}

func TestSetUpdateGet(t *testing.T) {
	var stats Stats
	mk := New(3, &stats)
	progtest.RunFull(t, mk)
	if stats.Found != 3 {
		t.Fatalf("stats = %+v", stats)
	}
}

func TestSingleRandomExecutionFindsNothing(t *testing.T) {
	// The Table 5 configuration: one random execution, prefix on.
	res := engine.Run(New(4, nil), engine.Options{Mode: engine.RandomMode, Prefix: true, Seed: 5, Executions: 1})
	if res.Report.Count() != 0 {
		t.Fatalf("single random execution found harmful races:\n%s", res.Report)
	}
}
