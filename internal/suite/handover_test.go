package suite

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"testing"

	"yashme/internal/engine"
	"yashme/internal/workload"
)

// TestProbeStopOwnership pins the ownership rules of probes that stop at
// the end of the pre-crash execution. A random-mode probe hands its
// detector and image to its crash scenario, whose retire then recycles
// them; a model-check probe is walked backwards and each crash point's
// copy is released when its spec ends. A model check whose scenarios
// resume one copy several times — recovery-crash follow-ups and
// read-choice expansions, all resumed from the first-crash copy — runs
// right after a Table 4 run has filled the pools, at one and
// four workers, and its canonical result must equal the reference
// configuration's.
func TestProbeStopOwnership(t *testing.T) {
	variants := []struct {
		name string
		opts engine.Options
	}{
		{"recovery-crashes", engine.Options{Mode: engine.ModelCheck, Prefix: true, RecoveryCrashes: 2}},
		{"explore-reads", engine.Options{Mode: engine.ModelCheck, Prefix: true, ExploreReads: true}},
	}
	for _, workers := range []int{1, 4} {
		for _, v := range variants {
			for _, name := range []string{"CCEH", "Fast_Fair"} {
				spec, ok := workload.Lookup(name)
				if !ok {
					t.Fatalf("%s not registered", name)
				}
				RunContext(context.Background(), Config{Tags: []string{workload.TagTable4}, Variants: []string{VariantRaces}, Workers: workers})
				opts := v.opts
				opts.Workers = workers
				def := engine.Run(spec.Make, opts)
				opts.Reference = true
				ref := engine.Run(spec.Make, opts)
				id := fmt.Sprintf("%s %s at %d workers", name, v.name, workers)
				if dj, rj := engineWorkOnly(t, def), engineWorkOnly(t, ref); !bytes.Equal(dj, rj) {
					t.Fatalf("%s: default != reference:\n%s\nvs\n%s", id, dj, rj)
				}
				if def.ExecutionsRun <= def.CrashPoints {
					t.Fatalf("%s: %d executions over %d crash points ran no expansion", id, def.ExecutionsRun, def.CrashPoints)
				}
			}
		}
	}
}

// engineWorkOnly renders an engine result the way a suite run records it
// (RunResult), cost counters zeroed.
func engineWorkOnly(t *testing.T, er *engine.Result) []byte {
	t.Helper()
	run := RunResult{
		Races:       er.Report.Races(),
		Benign:      er.Report.Benign(),
		RaceCount:   er.Report.Count(),
		Executions:  er.ExecutionsRun,
		CrashPoints: er.CrashPoints,
		Stats:       er.Stats,
		Window:      er.Window,
	}
	run.Stats.ZeroCost()
	data, err := json.Marshal(run)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	return data
}
