package engine

import (
	"context"
	"sync/atomic"
	"testing"

	"yashme/internal/pmm"
)

// budgetProbe is a single-worker program whose pre-crash and post-crash
// bodies track how many simulations execute at once. One worker thread
// keeps the in-scenario concurrency at one, so the gauge measures exactly
// the cross-scenario parallelism the budget is supposed to bound.
func budgetProbe(inFlight, maxSeen *int32) func() pmm.Program {
	enter := func() {
		n := atomic.AddInt32(inFlight, 1)
		for {
			m := atomic.LoadInt32(maxSeen)
			if n <= m || atomic.CompareAndSwapInt32(maxSeen, m, n) {
				break
			}
		}
	}
	return func() pmm.Program {
		var val pmm.Addr
		return pmm.Program{
			Name: "budget-probe",
			Setup: func(h *pmm.Heap) {
				val = h.AllocStruct("o", pmm.Layout{{Name: "v", Size: 8}}).F("v")
			},
			Workers: []func(*pmm.Thread){func(t *pmm.Thread) {
				enter()
				for i := 0; i < 8; i++ {
					t.Store64(val, uint64(i))
					t.CLFlush(val)
					t.SFence()
				}
				atomic.AddInt32(inFlight, -1)
			}},
			PostCrash: func(t *pmm.Thread) {
				enter()
				t.Load64(val)
				atomic.AddInt32(inFlight, -1)
			},
		}
	}
}

// A Budget of one serializes simulations even when the worker pool is
// wide, and the results stay byte-identical to an unbudgeted run.
func TestBudgetBoundsConcurrency(t *testing.T) {
	var inFlight, maxSeen int32
	opts := Options{Mode: ModelCheck, Prefix: true, Workers: 4, Budget: NewBudget(1)}
	res := Run(budgetProbe(&inFlight, &maxSeen), opts)
	if got := atomic.LoadInt32(&maxSeen); got != 1 {
		t.Fatalf("max concurrent simulations = %d, want 1 under a budget of 1", got)
	}
	plain := Run(budgetProbe(new(int32), new(int32)), Options{Mode: ModelCheck, Prefix: true, Workers: 4})
	if got, want := res.Report.String(), plain.Report.String(); got != want {
		t.Fatalf("budgeted report differs from unbudgeted:\n%s\nvs\n%s", got, want)
	}
	if res.Stats != plain.Stats {
		t.Fatalf("budgeted stats = %+v, unbudgeted %+v", res.Stats, plain.Stats)
	}
}

// A nil budget is a no-op (unlimited), and sizing defaults to GOMAXPROCS.
func TestBudgetNilAndSize(t *testing.T) {
	var b *Budget
	if !b.AcquireCtx(context.Background()) { // must not panic or block
		t.Fatal("nil budget refused a live context")
	}
	b.Release()
	if b.Size() != 0 {
		t.Fatalf("nil budget Size = %d, want 0", b.Size())
	}
	if NewBudget(3).Size() != 3 {
		t.Fatal("Size should echo the constructor")
	}
	if NewBudget(0).Size() < 1 {
		t.Fatal("NewBudget(0) should default to GOMAXPROCS")
	}
}
