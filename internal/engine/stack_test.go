package engine_test

// Differential tests for the analysis stack (internal/analysis): running
// both passes over one simulation must be observationally equivalent, per
// pass, to running each pass alone. The fan-out listener consumes no
// randomness and the xfd detector never influences scheduling, image
// derivation or the model detector, so a stacked run's per-pass reports —
// and every workload-behavior counter — must be byte-identical to the
// single-pass runs, across random programs, in the default and the
// reference configuration. (The cost counters legitimately differ: the
// xfd detector participates in the crash-image memoization signature, so
// a stacked run may dedup fewer scenarios.)

import (
	"encoding/json"
	"reflect"
	"testing"

	"yashme/internal/engine"
	"yashme/internal/fuzzprog"
	"yashme/internal/report"
)

// passJSON is the canonical byte representation a pass's report is compared
// under: the deduplicated races and benign races, witnesses included,
// JSON-marshaled.
func passJSON(t *testing.T, s *report.Set) string {
	t.Helper()
	return racesJSON(t, s.Races(), s.Benign())
}

// unwitnessedJSON is passJSON with every witness dropped, for comparing a
// traced run's report with an untraced one's.
func unwitnessedJSON(t *testing.T, s *report.Set) string {
	t.Helper()
	races, benign := s.Races(), s.Benign()
	for _, rs := range [][]report.Race{races, benign} {
		for i := range rs {
			rs[i].Witness = ""
		}
	}
	return racesJSON(t, races, benign)
}

func racesJSON(t *testing.T, races, benign []report.Race) string {
	t.Helper()
	b, err := json.Marshal(struct {
		Races  []report.Race
		Benign []report.Race
	}{races, benign})
	if err != nil {
		t.Fatalf("marshal report: %v", err)
	}
	return string(b)
}

// TestStackedPassesMatchSolo: for random programs, running
// Analyses={yashme,xfd} produces, per pass, byte-identical reports to
// running that pass alone — and identical workload-behavior stats, window
// and execution counts to the yashme-only run (the primary pass drives
// those) — in the default configuration and in the reference one, which
// turns every fast path off ("allescape").
func TestStackedPassesMatchSolo(t *testing.T) {
	variants := []struct {
		name string
		opts engine.Options
	}{
		{"ckpt/direct/dedup", engine.Options{}},
		{"allescape", engine.Options{Reference: true}},
	}
	for _, v := range variants {
		v := v
		t.Run(v.name, func(t *testing.T) {
			t.Parallel()
			for seed := int64(1); seed <= 8; seed++ {
				mk, _ := fuzzprog.Generate(fuzzprog.Default(), seed)
				base := v.opts
				base.Mode = engine.ModelCheck
				base.Prefix = true
				base.Seed = seed

				yOpts, xOpts, sOpts := base, base, base
				yOpts.Analyses = []string{"yashme"}
				xOpts.Analyses = []string{"xfd"}
				sOpts.Analyses = []string{"yashme", "xfd"}
				yashme := engine.Run(mk, yOpts)
				xfd := engine.Run(mk, xOpts)
				stacked := engine.Run(mk, sOpts)

				if len(stacked.Passes) != 2 {
					t.Fatalf("seed %d: stacked passes = %d, want 2", seed, len(stacked.Passes))
				}
				if got, want := passJSON(t, stacked.Passes[0].Report), passJSON(t, yashme.Report); got != want {
					t.Fatalf("seed %d: stacked yashme pass diverges from solo:\nstacked: %s\nsolo:    %s", seed, got, want)
				}
				if got, want := passJSON(t, stacked.Passes[1].Report), passJSON(t, xfd.Report); got != want {
					t.Fatalf("seed %d: stacked xfd pass diverges from solo:\nstacked: %s\nsolo:    %s", seed, got, want)
				}
				if stacked.Report != stacked.Passes[0].Report {
					t.Fatalf("seed %d: Result.Report does not alias the primary pass", seed)
				}
				// The extra pass must not perturb the simulation: every
				// workload-behavior observable matches the yashme-only run.
				sStats, yStats := stacked.Stats, yashme.Stats
				sStats.ZeroCost()
				yStats.ZeroCost()
				if sStats != yStats {
					t.Fatalf("seed %d: stats diverge:\nstacked: %+v\nyashme:  %+v", seed, sStats, yStats)
				}
				if !reflect.DeepEqual(stacked.Window, yashme.Window) {
					t.Fatalf("seed %d: windows diverge:\nstacked: %v\nyashme:  %v", seed, stacked.Window, yashme.Window)
				}
				if stacked.ExecutionsRun != yashme.ExecutionsRun {
					t.Fatalf("seed %d: executions diverge: %d vs %d", seed, stacked.ExecutionsRun, yashme.ExecutionsRun)
				}
				if stacked.CrashPoints != yashme.CrashPoints {
					t.Fatalf("seed %d: crash points diverge: %d vs %d", seed, stacked.CrashPoints, yashme.CrashPoints)
				}
			}
		})
	}
}

// TestStackedWorkerCountsAgree: a stacked run's per-pass reports are
// byte-identical at every worker count (the merge folds per-pass report
// sets in spec order, like the single-pass merge always has).
func TestStackedWorkerCountsAgree(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		mk, _ := fuzzprog.Generate(fuzzprog.Default(), seed)
		opts := engine.Options{
			Mode: engine.ModelCheck, Prefix: true, Seed: seed,
			Analyses: []string{"yashme", "xfd"}, Workers: 1,
		}
		seq := engine.Run(mk, opts)
		opts.Workers = 4
		par := engine.Run(mk, opts)
		for i := range seq.Passes {
			if got, want := passJSON(t, par.Passes[i].Report), passJSON(t, seq.Passes[i].Report); got != want {
				t.Fatalf("seed %d pass %s: parallel diverges from sequential:\npar: %s\nseq: %s",
					seed, seq.Passes[i].Name, got, want)
			}
		}
	}
}

// TestRandomStacksHandOver: random-mode runs with an extra pass or a trace
// hand the probe's rewound state to the crash scenario like a yashme-only
// run does: they simulate fewer operations than the reference, exactly as
// many as the yashme-only handover run of the same program, and agree with
// it on everything but the cost counters.
func TestRandomStacksHandOver(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		mk, _ := fuzzprog.Generate(fuzzprog.Default(), seed)
		base := engine.Options{Mode: engine.RandomMode, Prefix: true, Seed: seed, Executions: 5}
		handover := engine.Run(mk, base)
		for _, v := range []struct {
			name string
			opts func(*engine.Options)
		}{
			{"stacked", func(o *engine.Options) { o.Analyses = []string{"yashme", "xfd"} }},
			{"traced", func(o *engine.Options) { o.Trace = true }},
		} {
			opts := base
			v.opts(&opts)
			got := engine.Run(mk, opts)
			opts.Reference = true
			ref := engine.Run(mk, opts)
			if got.Stats.SimulatedOps >= ref.Stats.SimulatedOps {
				t.Fatalf("seed %d %s: %d simulated ops, reference %d: the probe did not hand over",
					seed, v.name, got.Stats.SimulatedOps, ref.Stats.SimulatedOps)
			}
			if got.Stats.SimulatedOps != handover.Stats.SimulatedOps {
				t.Fatalf("seed %d %s: %d simulated ops, yashme-only handover %d",
					seed, v.name, got.Stats.SimulatedOps, handover.Stats.SimulatedOps)
			}
			if g, h := unwitnessedJSON(t, got.Report), passJSON(t, handover.Report); g != h {
				t.Fatalf("seed %d %s: yashme pass diverges from the handover run:\n%s\nvs\n%s", seed, v.name, g, h)
			}
			gs, hs := got.Stats, handover.Stats
			gs.ZeroCost()
			hs.ZeroCost()
			if gs != hs || got.ExecutionsRun != handover.ExecutionsRun || got.CrashPoints != handover.CrashPoints {
				t.Fatalf("seed %d %s: run diverges from the handover run:\n%+v (%d executions, %d points)\nvs\n%+v (%d executions, %d points)",
					seed, v.name, gs, got.ExecutionsRun, got.CrashPoints, hs, handover.ExecutionsRun, handover.CrashPoints)
			}
		}
	}
}
