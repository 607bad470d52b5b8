package fuzzprog

import (
	"testing"

	"yashme/internal/engine"
	"yashme/internal/report"
)

const fuzzSeeds = 60

// Property: all-atomic programs can never race (Definition 5.1 cond 1):
// any report would be a false positive.
func TestNoFalsePositivesOnAtomicPrograms(t *testing.T) {
	cfg := Default()
	cfg.AllAtomic = true
	for seed := int64(1); seed <= fuzzSeeds; seed++ {
		mk, _ := Generate(cfg, seed)
		res := engine.Run(mk, engine.Options{Mode: engine.ModelCheck, Prefix: true, MaxCrashPoints: 20})
		if res.Report.Count() != 0 || res.Report.BenignCount() != 0 {
			t.Fatalf("seed %d: false positive on all-atomic program:\n%s", seed, res.Report)
		}
	}
}

// Property: every reported race names a field the program actually stored
// to non-atomically.
func TestRacesOnlyOnNonAtomicFields(t *testing.T) {
	for seed := int64(1); seed <= fuzzSeeds; seed++ {
		mk, legal := Generate(Default(), seed)
		res := engine.Run(mk, engine.Options{Mode: engine.ModelCheck, Prefix: true, MaxCrashPoints: 20})
		for _, r := range res.Report.Races() {
			if !legal[report.NormalizeField(r.Field)] {
				t.Fatalf("seed %d: race on %q, which was never stored non-atomically", seed, r.Field)
			}
		}
	}
}

// Property: the baseline (no prefix expansion) never finds races the prefix
// detector misses.
func TestBaselineSubsetOfPrefix(t *testing.T) {
	for seed := int64(1); seed <= fuzzSeeds; seed++ {
		mk, _ := Generate(Default(), seed)
		p := engine.Run(mk, engine.Options{Mode: engine.ModelCheck, Prefix: true, MaxCrashPoints: 15})
		b := engine.Run(mk, engine.Options{Mode: engine.ModelCheck, Prefix: false, MaxCrashPoints: 15})
		pf := map[string]bool{}
		for _, f := range p.Report.Fields() {
			pf[f] = true
		}
		for _, f := range b.Report.Fields() {
			if !pf[f] {
				t.Fatalf("seed %d: baseline-only race on %q", seed, f)
			}
		}
	}
}

// Property: eADR races are a subset of default-mode races (§7.5: "the
// absence of races on a non-eADR system implies the absence of races on
// eADR systems").
func TestEADRSubsetOfDefault(t *testing.T) {
	for seed := int64(1); seed <= fuzzSeeds; seed++ {
		mk, _ := Generate(Default(), seed)
		d := engine.Run(mk, engine.Options{Mode: engine.ModelCheck, Prefix: true, MaxCrashPoints: 15})
		e := engine.Run(mk, engine.Options{Mode: engine.ModelCheck, Prefix: true, EADR: true, MaxCrashPoints: 15})
		df := map[string]bool{}
		for _, f := range d.Report.Fields() {
			df[f] = true
		}
		for _, f := range e.Report.Fields() {
			if !df[f] {
				t.Fatalf("seed %d: eADR-only race on %q", seed, f)
			}
		}
	}
}

// Property: identical seeds produce identical reports (full determinism of
// the scheduler, crash injection and image derivation).
func TestDeterminismAcrossRuns(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		mk, _ := Generate(Default(), seed)
		a := engine.Run(mk, engine.Options{Mode: engine.RandomMode, Prefix: true, Seed: seed, Executions: 3})
		b := engine.Run(mk, engine.Options{Mode: engine.RandomMode, Prefix: true, Seed: seed, Executions: 3})
		if a.Report.String() != b.Report.String() || a.Stats != b.Stats {
			t.Fatalf("seed %d: nondeterministic results", seed)
		}
	}
}

// Robustness: the engine neither panics nor deadlocks on any generated
// program, across modes, policies and multi-crash exploration.
func TestEngineRobustness(t *testing.T) {
	cfg := Config{Objects: 4, Workers: 3, OpsPerWorker: 16}
	for seed := int64(1); seed <= 30; seed++ {
		mk, _ := Generate(cfg, seed)
		engine.Run(mk, engine.Options{Mode: engine.ModelCheck, Prefix: true, MaxCrashPoints: 10,
			RecoveryCrashes: 2, TornValues: true,
			PersistPolicies: []engine.PersistPolicy{engine.PersistLatest, engine.PersistMinimal, engine.PersistRandom}})
		engine.Run(mk, engine.Options{Mode: engine.RandomMode, Prefix: true, Seed: seed, Executions: 5})
	}
}

// Generator sanity: the same seed generates the same program structure.
func TestGeneratorDeterminism(t *testing.T) {
	_, fieldsA := Generate(Default(), 7)
	_, fieldsB := Generate(Default(), 7)
	if len(fieldsA) != len(fieldsB) {
		t.Fatal("generator nondeterministic")
	}
	for f := range fieldsA {
		if !fieldsB[f] {
			t.Fatalf("field sets differ on %q", f)
		}
	}
}

// Property: on programs with no atomic stores, every cross-failure race
// (XFDetector baseline) is also a Yashme persistency race — reading an
// unpersisted non-atomic store violates Definition 5.1 conditions 3/4 a
// fortiori. Neither inclusion holds in general: Yashme alone sees
// flushed-store races, while the cross-failure detector alone flags
// unpersisted ATOMIC stores (which can never be persistency races) — the
// "different bug classes" point of §1.
func TestCrossFailureSubsetOfYashme(t *testing.T) {
	cfg := Default()
	cfg.Workers = 1 // the baseline checks a single given execution
	cfg.NoAtomics = true
	for seed := int64(1); seed <= 40; seed++ {
		mk, _ := Generate(cfg, seed)
		xfdRes := engine.Run(mk, engine.Options{
			Mode:            engine.ModelCheck,
			PersistPolicies: []engine.PersistPolicy{engine.PersistLatest},
			Analyses:        []string{"xfd"},
			Seed:            1,
		})
		xfdFields := map[string]bool{}
		for _, r := range xfdRes.Report.Races() {
			xfdFields[r.Field] = true
		}
		res := engine.Run(mk, engine.Options{Mode: engine.ModelCheck, Prefix: true})
		yashmeFields := map[string]bool{}
		for _, f := range res.Report.Fields() {
			yashmeFields[f] = true
		}
		for f := range xfdFields {
			if !yashmeFields[f] {
				t.Fatalf("seed %d: cross-failure race on %q not found by yashme", seed, f)
			}
		}
	}
}
