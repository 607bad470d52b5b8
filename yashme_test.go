package yashme_test

import (
	"context"
	"runtime"
	"testing"

	"yashme"
	"yashme/internal/suite"
	"yashme/internal/tables"
	"yashme/internal/workload"
)

// The public facade detects the Figure 1 race end to end.
func TestFacadeDetectsFigure1(t *testing.T) {
	res := yashme.Run(figure1, yashme.Options{Mode: yashme.ModelCheck, Prefix: true})
	races := res.Report.Races()
	if len(races) != 1 || races[0].Field != "pmobj.val" {
		t.Fatalf("races = %v", races)
	}
}

func TestFacadeRunOnce(t *testing.T) {
	res := yashme.RunOnce(figure1, yashme.Options{Prefix: true}, 0, yashme.PersistLatest, 1)
	if res.ExecutionsRun != 1 {
		t.Fatalf("RunOnce executed %d scenarios, want 1", res.ExecutionsRun)
	}
	if res.Report.Count() != 1 {
		t.Fatalf("RunOnce races = %d, want 1 (flushed store still races under prefix)", res.Report.Count())
	}
}

func TestFacadeConstants(t *testing.T) {
	if yashme.CacheLineSize != 64 {
		t.Fatalf("CacheLineSize = %d", yashme.CacheLineSize)
	}
	if yashme.ModelCheck == yashme.RandomMode {
		t.Fatal("modes not distinct")
	}
}

// The paper's headline result: 24 real persistency races across all
// benchmarks (19 in the indexes + 5 in the frameworks), plus the zero-race
// P-CLHT control ("found persistency bugs in all but one of the programs").
func TestHeadline24Races(t *testing.T) {
	if testing.Short() {
		t.Skip("full sweep")
	}
	res := suite.RunContext(context.Background(), suite.Config{
		Tags:     []string{workload.TagTable3, workload.TagTable4},
		Variants: []string{suite.VariantRaces},
	})
	t3 := tables.Table3(res)
	t4 := tables.Table4(res)
	if got := len(t3) + len(t4); got != 24 {
		t.Fatalf("total races = %d (%d + %d), paper reports 24", got, len(t3), len(t4))
	}
	for _, r := range t3 {
		if r.Benchmark == "P-CLHT" {
			t.Fatalf("P-CLHT must be the race-free control, found %v", r)
		}
	}
}

// TestTable3AllocationGate: a resumed model-check scenario borrows its
// detector tables, TSO records, shell and report sets from pools and
// returns them when it dies (DESIGN.md, "Scenario state ownership and
// recycling"), so a warm Table 3 sweep must stay under table3AllocBound
// (alloc_norace_test.go, alloc_race_test.go).
func TestTable3AllocationGate(t *testing.T) {
	cfg := suite.Config{Tags: []string{workload.TagTable3}, Variants: []string{suite.VariantRaces}}
	suite.RunContext(context.Background(), cfg) // warm the pools
	const sweeps = 3
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < sweeps; i++ {
		if races := suite.RunContext(context.Background(), cfg).TotalRaces(suite.RunRaces); races != 19 {
			t.Fatalf("Table 3 sweep found %d races, paper reports 19", races)
		}
	}
	runtime.ReadMemStats(&after)
	mb := float64(after.TotalAlloc-before.TotalAlloc) / 1e6 / sweeps
	t.Logf("Table 3 sweep allocates %.2f MB", mb)
	if mb > table3AllocBound {
		t.Fatalf("warm Table 3 sweep allocates %.2f MB, gate is %g MB: scenario-state recycling regressed", mb, table3AllocBound)
	}
}

// TestTable4AllocationGate: dead scenarios' detector executions, machines,
// rng registers and image tables are recycled (DESIGN.md, "Scenario state
// ownership and recycling"), so a warm Table 4 sweep must stay under
// table4AllocBound (alloc_norace_test.go, alloc_race_test.go). Benchguard's byte gates cover only the Table 3 suite
// modes; this one keeps random mode from silently regressing.
func TestTable4AllocationGate(t *testing.T) {
	cfg := suite.Config{Tags: []string{workload.TagTable4}, Variants: []string{suite.VariantRaces}}
	suite.RunContext(context.Background(), cfg) // warm the pools
	const sweeps = 3
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < sweeps; i++ {
		if races := suite.RunContext(context.Background(), cfg).TotalRaces(suite.RunRaces); races != 5 {
			t.Fatalf("Table 4 sweep found %d races, paper reports 5", races)
		}
	}
	runtime.ReadMemStats(&after)
	mb := float64(after.TotalAlloc-before.TotalAlloc) / 1e6 / sweeps
	t.Logf("Table 4 sweep allocates %.2f MB", mb)
	if mb > table4AllocBound {
		t.Fatalf("warm Table 4 sweep allocates %.2f MB, gate is %g MB: scenario-state recycling regressed", mb, table4AllocBound)
	}
}
