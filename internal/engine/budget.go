package engine

import (
	"context"
	"runtime"
)

// Budget is a counting semaphore bounding how many crash scenarios (and
// planner probe runs) simulate concurrently across every engine Run that
// shares it. A single Run bounds its own parallelism with Options.Workers;
// when a layer above runs several benchmarks at once — the suite runner in
// internal/suite — each Run's workers would multiply and oversubscribe the
// machine. Threading one Budget through every Options keeps the total
// number of in-flight simulations at the budget's size, process-wide,
// while per-Run worker pools stay free to claim the whole budget when the
// other runs are idle.
//
// Tokens are held only while a probe or scenario group actually simulates,
// or a model-check walk copies a crash point's state, never across channel
// sends, so a Budget cannot deadlock: every holder releases without needing
// a second token. A nil *Budget is valid and unlimited — AcquireCtx never
// blocks on it and Release is a no-op — so the zero Options behaves
// exactly as before.
type Budget struct {
	tokens chan struct{}
}

// NewBudget returns a budget admitting n concurrent simulations
// (n <= 0 = runtime.GOMAXPROCS(0)).
func NewBudget(n int) *Budget {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	return &Budget{tokens: make(chan struct{}, n)}
}

// Size returns the number of concurrent simulations the budget admits
// (0 for a nil, unlimited budget).
func (b *Budget) Size() int {
	if b == nil {
		return 0
	}
	return cap(b.tokens)
}

// AcquireCtx blocks until a token is free or the context is done, and
// reports whether a token was acquired. It keeps cancellation prompt even
// when the budget is saturated by other runs: a cancelled run must not
// wait for someone else's simulation to finish before it can give up its
// place in line. A nil (unlimited) budget never blocks, so there the call
// is purely the cancellation check.
func (b *Budget) AcquireCtx(ctx context.Context) bool {
	if b == nil {
		return ctx.Err() == nil
	}
	if ctx.Err() != nil {
		return false
	}
	select {
	case b.tokens <- struct{}{}:
		return true
	case <-ctx.Done():
		return false
	}
}

// InUse returns how many tokens are currently held (0 for a nil budget) —
// the budget-utilization gauge the service's /metrics endpoint exposes.
func (b *Budget) InUse() int {
	if b == nil {
		return 0
	}
	return len(b.tokens)
}

// Release returns a token. No-op on a nil budget.
func (b *Budget) Release() {
	if b != nil {
		<-b.tokens
	}
}
