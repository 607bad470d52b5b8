package suite

import (
	"bytes"
	"context"
	"runtime"
	"testing"

	"yashme/internal/workload"
)

// TestWarmPoolsByteIdentical searches for ownership bugs in scenario-state
// recycling. Dead scenarios hand their detector executions, machines, rng
// registers and image tables to process-wide pools, and later scenarios on
// any worker reuse that memory. If a pooled piece were still shared with a
// live holder (a snapshot, a clone, a journal), a later run would read
// another run's records. So the Table 3, 4 and 5 selections first run
// with empty pools. Then the pools are dirtied with differently shaped
// workloads, the selections run again at one and four workers, and every
// rerun must match the cold run's Canonical JSON byte for byte. The
// reference configuration, run on the same warm pools, must match it too
// once the cost counters are set aside.
func TestWarmPoolsByteIdentical(t *testing.T) {
	sel := Config{
		Tags:     []string{workload.TagTable3, workload.TagTable4, workload.TagTable5},
		Variants: []string{VariantRaces, VariantTable5},
		Workers:  1,
	}
	// sync.Pool drops what it holds within two collections.
	runtime.GC()
	runtime.GC()
	cold := RunContext(context.Background(), sel)
	coldJSON := anyWorkers(t, cold)
	if races := cold.TotalRaces(RunRaces); races != 24 {
		t.Fatalf("cold run found %d races in the races variant, want 24", races)
	}

	// Dirty the pools: model-checked capped and baseline runs, a stacked
	// xfd sweep and a many-execution random run leave executions, machines,
	// registers and images of other shapes behind.
	RunContext(context.Background(), Config{Variants: []string{VariantBenign, VariantWindow}})
	RunContext(context.Background(), Config{Tags: []string{workload.TagXFD}, Variants: []string{VariantRaces}, Analyses: []string{"yashme", "xfd"}})
	RunContext(context.Background(), Config{Names: []string{"Redis"}, Variants: []string{VariantRaces}, Seed: 99})

	for _, workers := range []int{1, 4} {
		cfg := sel
		cfg.Workers = workers
		if got := anyWorkers(t, RunContext(context.Background(), cfg)); !bytes.Equal(got, coldJSON) {
			t.Fatalf("warm run at %d workers != cold run canonical JSON:\n%s\nvs\n%s", workers, got, coldJSON)
		}
	}

	want := workOnly(t, cold)
	for _, workers := range []int{1, 4} {
		cfg := sel
		cfg.Workers = workers
		cfg.Reference = true
		if got := workOnly(t, RunContext(context.Background(), cfg)); !bytes.Equal(got, want) {
			t.Fatalf("reference at %d workers != cold run:\n%s\nvs\n%s", workers, got, want)
		}
	}
}

// anyWorkers is the result's Canonical JSON with the worker count, which
// the config summary records, set aside.
func anyWorkers(t *testing.T, r *Result) []byte {
	t.Helper()
	c := r.Canonical()
	c.Config.Workers = 0
	data, err := c.JSON()
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	return data
}

// workOnly is anyWorkers with the cost counters, which measure how the
// work was done, zeroed too (engine.Stats.ZeroCost), leaving races,
// windows, executions and per-kind operation counts.
func workOnly(t *testing.T, r *Result) []byte {
	t.Helper()
	c := r.Canonical()
	c.Config.Workers = 0
	for i := range c.Benchmarks {
		for j := range c.Benchmarks[i].Runs {
			c.Benchmarks[i].Runs[j].Stats.ZeroCost()
		}
	}
	data, err := c.JSON()
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	return data
}
