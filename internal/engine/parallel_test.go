package engine_test

// External test package: exercises the plan/execute/merge determinism
// contract through the public API on the real benchmarks, which must not
// be imported from inside package engine.

import (
	"reflect"
	"testing"

	"yashme/internal/engine"
	"yashme/internal/pmdk"
	"yashme/internal/pmm"
	"yashme/internal/progs/cceh"
	"yashme/internal/progs/fastfair"
)

// The determinism contract: Run's Result is byte-identical for every
// worker count. Each case runs with Workers=1 (fully sequential) and
// Workers=8, in the default and in the reference configuration, and
// compares every observable field, cost counters included, per
// configuration. The suite runs under -race in CI,
// so it also proves the pool shares no scenario state — including the
// probe records every crash point's copy is cloned from.
func TestParallelRunMatchesSequential(t *testing.T) {
	cases := []struct {
		name string
		mk   func() pmm.Program
		opts engine.Options
	}{
		{"cceh/model-check", cceh.New(4, nil),
			engine.Options{Mode: engine.ModelCheck, Prefix: true}},
		{"cceh/model-check/explore-reads", cceh.New(3, nil),
			engine.Options{Mode: engine.ModelCheck, Prefix: true, ExploreReads: true, MaxCrashPoints: 30}},
		{"cceh/random", cceh.New(4, nil),
			engine.Options{Mode: engine.RandomMode, Prefix: true, Seed: 3, Executions: 8}},
		{"fastfair/model-check", fastfair.New(7, nil),
			engine.Options{Mode: engine.ModelCheck, Prefix: true}},
		{"fastfair/model-check/recovery-crashes", fastfair.New(5, nil),
			engine.Options{Mode: engine.ModelCheck, Prefix: true, RecoveryCrashes: 2, MaxCrashPoints: 25}},
		{"fastfair/random", fastfair.New(7, nil),
			engine.Options{Mode: engine.RandomMode, Prefix: true, Seed: 11, Executions: 8}},
		{"pmdk/model-check", pmdk.NewBTreeProg(4, nil),
			engine.Options{Mode: engine.ModelCheck, Prefix: true, MaxCrashPoints: 40}},
		{"pmdk/random", pmdk.NewPMDKProg(3, nil),
			engine.Options{Mode: engine.RandomMode, Prefix: true, Seed: 1, Executions: 10}},
	}
	// The subtests name the two configurations by their checkpoint layer:
	// the reference configuration has checkpoints off, along with every
	// other fast path.
	checkpoints := []struct {
		name      string
		reference bool
	}{
		{"checkpoint-on", false},
		{"checkpoint-off", true},
	}
	for _, tc := range cases {
		for _, ck := range checkpoints {
			tc, ck := tc, ck
			t.Run(tc.name+"/"+ck.name, func(t *testing.T) {
				t.Parallel()
				seqOpts, parOpts := tc.opts, tc.opts
				seqOpts.Workers, seqOpts.Reference = 1, ck.reference
				parOpts.Workers, parOpts.Reference = 8, ck.reference
				seq := engine.Run(tc.mk, seqOpts)
				par := engine.Run(tc.mk, parOpts)

				if s, p := seq.Report.String(), par.Report.String(); s != p {
					t.Errorf("reports diverge:\nWorkers=1:\n%s\nWorkers=8:\n%s", s, p)
				}
				if !reflect.DeepEqual(seq.Window, par.Window) {
					t.Errorf("windows diverge:\nWorkers=1: %v\nWorkers=8: %v", seq.Window, par.Window)
				}
				if seq.Stats != par.Stats {
					t.Errorf("stats diverge:\nWorkers=1: %+v\nWorkers=8: %+v", seq.Stats, par.Stats)
				}
				if seq.ExecutionsRun != par.ExecutionsRun {
					t.Errorf("executions diverge: %d vs %d", seq.ExecutionsRun, par.ExecutionsRun)
				}
				if seq.CrashPoints != par.CrashPoints {
					t.Errorf("crash points diverge: %d vs %d", seq.CrashPoints, par.CrashPoints)
				}
				if seq.Report.RawCount != par.Report.RawCount {
					t.Errorf("raw race counts diverge: %d vs %d", seq.Report.RawCount, par.Report.RawCount)
				}
			})
		}
	}
}
