package engine_test

// Property tests for the fast paths against the reference configuration
// (Options.Reference): checkpoint resume, crash-image memoization, the
// direct-run lease and interned clocks must be observationally invisible —
// every Result field except the Stats cost counters is byte-identical to
// the reference exploration, across random programs, both modes, and every
// option that interacts with the snapshot machinery.

import (
	"fmt"
	"reflect"
	"testing"

	"yashme/internal/engine"
	"yashme/internal/fuzzprog"
	"yashme/internal/pmm"
)

// sameResult fails the test unless got and ref agree on every Result field
// once the Stats cost counters are zeroed: every pass's report, each race's
// witness included.
func sameResult(t *testing.T, name string, got, ref *engine.Result) {
	t.Helper()
	if g, r := got.Report.String(), ref.Report.String(); g != r {
		t.Fatalf("%s: reports diverge:\ndefault:\n%s\nreference:\n%s", name, g, r)
	}
	if len(got.Passes) != len(ref.Passes) {
		t.Fatalf("%s: %d passes by default, %d reference", name, len(got.Passes), len(ref.Passes))
	}
	for i := range got.Passes {
		gp, rp := got.Passes[i], ref.Passes[i]
		if g, r := passJSON(t, gp.Report), passJSON(t, rp.Report); gp.Name != rp.Name || g != r {
			t.Fatalf("%s: pass %d diverges:\ndefault %s:   %s\nreference %s: %s", name, i, gp.Name, g, rp.Name, r)
		}
	}
	if !reflect.DeepEqual(got.Window, ref.Window) {
		t.Fatalf("%s: windows diverge:\ndefault:   %v\nreference: %v", name, got.Window, ref.Window)
	}
	if got.ExecutionsRun != ref.ExecutionsRun {
		t.Fatalf("%s: executions diverge: %d vs %d", name, got.ExecutionsRun, ref.ExecutionsRun)
	}
	if got.CrashPoints != ref.CrashPoints {
		t.Fatalf("%s: crash points diverge: %d vs %d", name, got.CrashPoints, ref.CrashPoints)
	}
	if got.Report.RawCount != ref.Report.RawCount {
		t.Fatalf("%s: raw race counts diverge: %d vs %d", name, got.Report.RawCount, ref.Report.RawCount)
	}
	g, r := got.Stats, ref.Stats
	g.ZeroCost()
	r.ZeroCost()
	if g != r {
		t.Fatalf("%s: stats diverge:\ndefault:   %+v\nreference: %+v", name, g, r)
	}
}

// runReference runs mk under opts and under opts with Reference set, fails
// the test unless the two Results match (sameResult) and the reference run
// took none of the fast paths, and returns both.
func runReference(t *testing.T, name string, mk func() pmm.Program, opts engine.Options) (def, ref *engine.Result) {
	t.Helper()
	refOpts := opts
	refOpts.Reference = true
	def, ref = engine.Run(mk, opts), engine.Run(mk, refOpts)
	sameResult(t, name, def, ref)
	st := ref.Stats
	if st.DirectOps != 0 || st.DedupedScenarios != 0 || st.EpochHits != 0 || st.SnapshotBytes != 0 || st.JournalOps != 0 {
		t.Fatalf("%s: the reference run took a fast path: %+v", name, st)
	}
	for _, r := range []*engine.Result{def, ref} {
		if s := r.Stats; s.Handoffs+s.DirectOps != s.SimulatedOps {
			t.Fatalf("%s: Handoffs (%d) + DirectOps (%d) != SimulatedOps (%d)",
				name, s.Handoffs, s.DirectOps, s.SimulatedOps)
		}
	}
	return def, ref
}

// TestCheckpointMatchesScratch: for random programs, the default run and
// the reference run, which re-simulates every scenario from scratch,
// produce identical Results modulo the cost counters, and both modes
// actually simulate fewer operations in the default configuration.
func TestCheckpointMatchesScratch(t *testing.T) {
	variants := []struct {
		name string
		opts engine.Options
	}{
		{"model-check", engine.Options{Mode: engine.ModelCheck, Prefix: true}},
		{"model-check/baseline", engine.Options{Mode: engine.ModelCheck, Prefix: false}},
		{"model-check/eadr", engine.Options{Mode: engine.ModelCheck, Prefix: true, EADR: true}},
		{"model-check/expansions", engine.Options{Mode: engine.ModelCheck, Prefix: true,
			ExploreReads: true, RecoveryCrashes: 2, MaxCrashPoints: 15}},
		{"model-check/torn-values", engine.Options{Mode: engine.ModelCheck, Prefix: true, TornValues: true}},
		{"model-check/candidate-limit", engine.Options{Mode: engine.ModelCheck, Prefix: true, CandidateLimit: 1}},
		// Minimal first marks the policy twins, Random in between is never
		// paired, and Latest last may repeat Minimal's outcome.
		{"model-check/policy-order", engine.Options{Mode: engine.ModelCheck, Prefix: true,
			PersistPolicies: []engine.PersistPolicy{engine.PersistMinimal, engine.PersistRandom, engine.PersistLatest}}},
		{"random", engine.Options{Mode: engine.RandomMode, Prefix: true, Executions: 6}},
		{"random/recovery-crashes", engine.Options{Mode: engine.RandomMode, Prefix: true, Executions: 6, RecoveryCrashes: 2}},
		{"random/eadr", engine.Options{Mode: engine.RandomMode, Prefix: true, Executions: 6, EADR: true}},
	}
	// The backward walk's edges, each at one and four workers: a capped
	// walk that starts below the last point, on every schedule; a truncated
	// trace recorder (Trace turns memoization off) and a rewound xfd
	// detector, copied at each model-check point and handed over whole by
	// each random-mode probe; and both under recovery crashes, whose
	// follow-ups resume from the crash point's copies and run the first
	// recovery again up to its own crash.
	stacked := []string{"yashme", "xfd"}
	for _, workers := range []int{1, 4} {
		for _, v := range []struct {
			name string
			opts engine.Options
		}{
			{"model-check/schedules-capped", engine.Options{Mode: engine.ModelCheck, Prefix: true, Schedules: 3, MaxCrashPoints: 4}},
			{"model-check/trace", engine.Options{Mode: engine.ModelCheck, Prefix: true, Trace: true}},
			{"model-check/stacked", engine.Options{Mode: engine.ModelCheck, Prefix: true, Analyses: stacked}},
			{"model-check/recovery-crashes/stacked-trace", engine.Options{Mode: engine.ModelCheck, Prefix: true,
				RecoveryCrashes: 3, Trace: true, Analyses: stacked}},
			{"random/trace", engine.Options{Mode: engine.RandomMode, Prefix: true, Executions: 6, Trace: true}},
			{"random/stacked", engine.Options{Mode: engine.RandomMode, Prefix: true, Executions: 6, Analyses: stacked}},
		} {
			v.opts.Workers = workers
			variants = append(variants, struct {
				name string
				opts engine.Options
			}{fmt.Sprintf("%s/workers-%d", v.name, workers), v.opts})
		}
	}
	for _, v := range variants {
		v := v
		t.Run(v.name, func(t *testing.T) {
			t.Parallel()
			for seed := int64(1); seed <= 12; seed++ {
				mk, _ := fuzzprog.Generate(fuzzprog.Default(), seed)
				if v.opts.RecoveryCrashes > 0 {
					mk = withRecoveryWrites(mk)
				}
				opts := v.opts
				opts.Seed = seed
				def, ref := runReference(t, fmt.Sprintf("seed %d", seed), mk, opts)
				// The perf claim itself: model checking with more than one
				// crash point must simulate strictly fewer operations, and
				// so must random mode, whose probes hand their pre-crash
				// state to the crash scenario.
				if (v.opts.Mode == engine.RandomMode || def.CrashPoints > 1) && def.Stats.SimulatedOps >= ref.Stats.SimulatedOps {
					t.Fatalf("seed %d: the fast paths saved nothing: %d simulated ops by default, %d reference (%d crash points)",
						seed, def.Stats.SimulatedOps, ref.Stats.SimulatedOps, def.CrashPoints)
				}
			}
		})
	}
}

// spinRecovery is a program whose recovery schedule shows in its operation
// counts: both stores are flushed before the last crash points, so the
// Latest and Minimal images agree there, and one recovery thread spins on
// y until the other overwrites it — how often it loads y depends on the
// scheduler's draws.
func spinRecovery() pmm.Program {
	var x, y pmm.Addr
	return pmm.Program{
		Name: "spin-recovery",
		Setup: func(h *pmm.Heap) {
			x = h.AllocStruct("a", pmm.Layout{{Name: "x", Size: 8}}).F("x")
			y = h.AllocStruct("b", pmm.Layout{{Name: "y", Size: 8}}).F("y")
		},
		Workers: []func(*pmm.Thread){func(t *pmm.Thread) {
			t.Store64(x, 1)
			t.CLFlush(x)
			t.SFence()
			t.Store64(y, 1)
			t.CLFlush(y)
			t.SFence()
		}},
		PostCrashWorkers: []func(*pmm.Thread){
			func(t *pmm.Thread) {
				t.Load64(x)
				t.Store64(y, 5)
			},
			func(t *pmm.Thread) {
				for t.Load64(y) != 5 {
					t.Yield()
				}
			},
		},
	}
}

// TestPolicyTwinsNeverPairRandom: PersistRandom draws from the scheduler's
// rng once per line while it builds its image, so even where its image
// equals the Minimal one its multi-threaded recovery schedules differently
// and must run. Minimal runs first and Random sits between it and Latest,
// which does repeat Minimal's outcome; the default run must match the
// reference at every seed.
func TestPolicyTwinsNeverPairRandom(t *testing.T) {
	opts := engine.Options{Mode: engine.ModelCheck, Prefix: true,
		PersistPolicies: []engine.PersistPolicy{engine.PersistMinimal, engine.PersistRandom, engine.PersistLatest}}
	for seed := int64(1); seed <= 8; seed++ {
		opts.Seed = seed
		def, _ := runReference(t, fmt.Sprintf("seed %d", seed), spinRecovery, opts)
		if def.Stats.DedupedScenarios == 0 {
			t.Fatalf("seed %d: no Latest scenario repeated its Minimal twin", seed)
		}
	}
}
