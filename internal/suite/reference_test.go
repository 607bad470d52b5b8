package suite

import (
	"bytes"
	"context"
	"fmt"
	"testing"
)

// TestReferenceMatchesDefault is the whole-registry oracle: every
// registered workload, through every variant group, at one and four
// workers, in the default yashme stack and the stacked yashme,xfd one,
// must give the same Canonical JSON in the default configuration and in
// the reference one (every fast path off) once the cost counters are
// zeroed. The reference run must also really bypass the fast paths —
// no memoized scenario, no epoch hit, no direct-run op — while the default
// run takes all three. In both stacks every random-mode run (the
// PMDK, Memcached and Redis workloads) must simulate fewer operations by
// default: the probe hands its pre-crash state to the crash scenario,
// which the reference re-simulates.
func TestReferenceMatchesDefault(t *testing.T) {
	for _, run := range []struct {
		workers  int
		analyses []string
	}{{1, nil}, {4, nil}, {1, []string{"yashme", "xfd"}}, {4, []string{"yashme", "xfd"}}} {
		def := RunContext(context.Background(), Config{Workers: run.workers, Analyses: run.analyses})
		ref := RunContext(context.Background(), Config{Workers: run.workers, Analyses: run.analyses, Reference: true})
		name := fmt.Sprintf("workers %d, analyses %v", run.workers, run.analyses)
		if dj, rj := workOnly(t, def), workOnly(t, ref); !bytes.Equal(dj, rj) {
			t.Fatalf("%s: default != reference canonical JSON:\n%s\nvs\n%s", name, dj, rj)
		}
		if s := ref.TotalStats(); s.DedupedScenarios != 0 || s.EpochHits != 0 || s.DirectOps != 0 {
			t.Errorf("%s: the reference run took a fast path: %d deduped scenarios, %d epoch hits, %d direct ops",
				name, s.DedupedScenarios, s.EpochHits, s.DirectOps)
		}
		if s := def.TotalStats(); s.DedupedScenarios == 0 || s.EpochHits == 0 || s.DirectOps == 0 {
			t.Errorf("%s: the default run skipped a fast path: %d deduped scenarios, %d epoch hits, %d direct ops",
				name, s.DedupedScenarios, s.EpochHits, s.DirectOps)
		}
		random := 0
		for i := range def.Benchmarks {
			db, rb := &def.Benchmarks[i], &ref.Benchmarks[i]
			if db.ModelCheck {
				continue
			}
			for j := range db.Runs {
				random++
				d, r := db.Runs[j].Stats.SimulatedOps, rb.Runs[j].Stats.SimulatedOps
				if d >= r {
					t.Errorf("%s: %s %s re-simulated its pre-crash prefixes: %d simulated ops by default, %d reference",
						name, db.Name, db.Runs[j].Variant, d, r)
				}
			}
		}
		if random == 0 {
			t.Fatalf("%s: no random-mode run in the registry", name)
		}
	}
}
