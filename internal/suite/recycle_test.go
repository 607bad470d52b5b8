package suite

import (
	"bytes"
	"encoding/json"
	"runtime"
	"testing"

	"yashme/internal/engine"
	"yashme/internal/workload"

	// Link the xfd pass for the stacked run that dirties the pools.
	_ "yashme/internal/analysis/all"
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
// checkpoint-off and direct-run-off configurations must match it too, once
// their cost counters are set aside, and so must full-clone checkpoints
// (keyframe 1), which pin the probe's arena by clone alone, with no journal.
func TestWarmPoolsByteIdentical(t *testing.T) {
	sel := Config{
		Tags:     []string{workload.TagTable3, workload.TagTable4, workload.TagTable5},
		Variants: []string{VariantRaces, VariantTable5},
		Workers:  1,
	}
	// sync.Pool drops what it holds within two collections.
	runtime.GC()
	runtime.GC()
	cold := Run(sel)
	coldJSON := anyWorkers(t, cold)
	if races := cold.TotalRaces(RunRaces); races != 24 {
		t.Fatalf("cold run found %d races in the races variant, want 24", races)
	}

	// Dirty the pools: model-checked capped and baseline runs, a stacked
	// xfd sweep and a many-execution random run leave executions, machines,
	// registers and images of other shapes behind.
	Run(Config{Variants: []string{VariantBenign, VariantWindow}})
	Run(Config{Tags: []string{workload.TagXFD}, Variants: []string{VariantRaces}, Analyses: []string{"yashme", "xfd"}})
	Run(Config{Names: []string{"Redis"}, Variants: []string{VariantRaces}, Seed: 99})

	for _, workers := range []int{1, 4} {
		cfg := sel
		cfg.Workers = workers
		if got := anyWorkers(t, Run(cfg)); !bytes.Equal(got, coldJSON) {
			t.Fatalf("warm run at %d workers != cold run canonical JSON:\n%s\nvs\n%s", workers, got, coldJSON)
		}
	}

	want := workOnly(t, cold)
	for _, ref := range []struct {
		name string
		mod  func(*Config)
	}{
		{"checkpoint=false", func(c *Config) { c.Checkpoint = engine.CheckpointOff }},
		{"directrun=false", func(c *Config) { c.DirectRun = engine.DirectRunOff }},
		{"keyframe=1", func(c *Config) { c.Keyframe = 1 }},
	} {
		for _, workers := range []int{1, 4} {
			cfg := sel
			cfg.Workers = workers
			ref.mod(&cfg)
			if got := workOnly(t, Run(cfg)); !bytes.Equal(got, want) {
				t.Fatalf("%s at %d workers != cold run:\n%s\nvs\n%s", ref.name, workers, got, want)
			}
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

// workOnly renders a result's benchmarks with the counters that measure how
// the work was done (simulation path, snapshot capture, memoization, clock
// interning) zeroed, leaving races, windows, executions and per-kind
// operation counts. The config summary is left out: it names the fast paths.
func workOnly(t *testing.T, r *Result) []byte {
	t.Helper()
	c := r.Canonical()
	for i := range c.Benchmarks {
		for j := range c.Benchmarks[i].Runs {
			s := &c.Benchmarks[i].Runs[j].Stats
			s.SimulatedOps, s.Handoffs, s.DirectOps = 0, 0, 0
			s.SnapshotBytes, s.JournalOps, s.DedupedScenarios = 0, 0, 0
			s.ClockInterned, s.EpochHits, s.EpochMisses = 0, 0, 0
		}
	}
	data, err := json.Marshal(c.Benchmarks)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	return data
}
