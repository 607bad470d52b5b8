package suite

import (
	"context"
	"runtime"
	"sync"
	"testing"
	"time"

	"yashme/internal/engine"
	"yashme/internal/pmm"
	"yashme/internal/workload"
)

// cancelSpec is an ad-hoc table3-shaped workload whose pre-crash body
// fires onWorker — the hook the tests use to cancel mid-suite from a point
// that is deterministically inside a run.
func cancelSpec(name string, onWorker func()) workload.Spec {
	return workload.Spec{
		Name:       name,
		ModelCheck: true,
		Tags:       []string{workload.TagTable3},
		Make: func() pmm.Program {
			var val pmm.Addr
			return pmm.Program{
				Name: name,
				Setup: func(h *pmm.Heap) {
					val = h.AllocStruct("o", pmm.Layout{{Name: "v", Size: 8}}).F("v")
				},
				Workers: []func(*pmm.Thread){func(t *pmm.Thread) {
					if onWorker != nil {
						onWorker()
					}
					for i := 0; i < 6; i++ {
						t.Store64(val, uint64(i))
						t.CLFlush(val)
						t.SFence()
					}
				}},
				PostCrash: func(t *pmm.Thread) { t.Load64(val) },
			}
		},
	}
}

func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= base+2 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutine leak: %d live, baseline %d", runtime.NumGoroutine(), base)
}

// A pre-cancelled suite run returns promptly: every benchmark slot exists
// (named, paper-ordered) but no engine run started, and the result is
// marked Cancelled.
func TestSuiteRunContextPreCancelled(t *testing.T) {
	base := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res := RunContext(ctx, smallCfg())
	if !res.Cancelled {
		t.Fatal("pre-cancelled suite not marked Cancelled")
	}
	for _, b := range res.Benchmarks {
		if b.Name == "" {
			t.Fatal("benchmark slot left unnamed")
		}
		if len(b.Runs) != 0 {
			t.Fatalf("benchmark %s ran %d jobs under a cancelled context", b.Name, len(b.Runs))
		}
	}
	waitGoroutines(t, base)
}

// Cancelling mid-suite cuts the in-flight run at a scenario boundary and
// skips the rest: the cut run carries Cancelled, the partial Result is
// well-formed (valid Canonical JSON), and no goroutines outlive the call.
// Both orchestration paths are exercised.
func TestSuiteRunContextCancelMidRun(t *testing.T) {
	for _, seq := range []bool{false, true} {
		base := runtime.NumGoroutine()
		ctx, cancel := context.WithCancel(context.Background())
		var once sync.Once
		cfg := Config{
			Specs:      []workload.Spec{cancelSpec("ctx-cancel", func() { once.Do(cancel) })},
			Variants:   []string{VariantRaces},
			Sequential: seq,
		}
		res := RunContext(ctx, cfg)
		cancel()
		if !res.Cancelled {
			t.Fatalf("seq=%v: cancelled suite not marked Cancelled", seq)
		}
		run := res.Benchmarks[0].Run(RunRaces)
		if run == nil {
			t.Fatalf("seq=%v: the started run is missing from the partial result", seq)
		}
		if !run.Cancelled {
			t.Fatalf("seq=%v: cut run not marked Cancelled", seq)
		}
		if _, err := res.Canonical().JSON(); err != nil {
			t.Fatalf("seq=%v: partial result does not marshal: %v", seq, err)
		}
		waitGoroutines(t, base)
	}
}

// An external Budget is honored (Workers ignored) and a Seed override
// lands in every run's options and in the Summary.
func TestSuiteExternalBudgetAndSeed(t *testing.T) {
	cfg := smallCfg()
	cfg.Budget = engine.NewBudget(3)
	cfg.Workers = 64 // must be ignored in favor of the budget's size
	cfg.Seed = 42
	res := RunContext(context.Background(), cfg)
	if res.Config.Workers != 3 {
		t.Fatalf("Summary.Workers = %d, want the external budget's 3", res.Config.Workers)
	}
	if res.Config.Seed != 42 {
		t.Fatalf("Summary.Seed = %d, want 42", res.Config.Seed)
	}
	if res.Cancelled {
		t.Fatal("complete run marked Cancelled")
	}
}
