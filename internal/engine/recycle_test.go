package engine_test

import (
	"reflect"
	"runtime"
	"testing"

	"yashme/internal/engine"
)

// TestRecoveryCrashesSurviveWarmPools: retiring a scenario whose recovery
// execution a snapshot cloned must leave the snapshot intact. The
// recovery-crash sweep runs once with empty pools, then again after other
// runs filled them, and once in the reference configuration with no
// snapshots at all; all three must agree on every race and every non-cost
// counter.
func TestRecoveryCrashesSurviveWarmPools(t *testing.T) {
	opts := engine.Options{Mode: engine.ModelCheck, Prefix: true, RecoveryCrashes: 3, Workers: 1}
	runtime.GC()
	runtime.GC()
	cold := engine.Run(engine.RecoveryWriter, opts)
	for i := 0; i < 3; i++ {
		engine.Run(engine.RecoveryWriter, engine.Options{Mode: engine.RandomMode, Prefix: true, Seed: int64(i + 5), RecoveryCrashes: 3})
	}
	warm := engine.Run(engine.RecoveryWriter, opts)
	refOpts := opts
	refOpts.Reference = true
	ref := engine.Run(engine.RecoveryWriter, refOpts)

	work := func(s engine.Stats) engine.Stats {
		s.ZeroCost()
		return s
	}
	if cold.Report.Count() == 0 {
		t.Fatal("recovery-crash sweep found no races")
	}
	for name, r := range map[string]*engine.Result{"warm": warm, "reference": ref} {
		if got, want := r.Report.String(), cold.Report.String(); got != want {
			t.Errorf("%s run reports diverge from the cold run:\n%s\nvs\n%s", name, got, want)
		}
		if got, want := work(r.Stats), work(cold.Stats); got != want {
			t.Errorf("%s run stats diverge from the cold run:\n%+v\nvs\n%+v", name, got, want)
		}
		if !reflect.DeepEqual(r.Window, cold.Window) || r.ExecutionsRun != cold.ExecutionsRun {
			t.Errorf("%s run window or executions diverge from the cold run", name)
		}
	}
	if warm.Stats != cold.Stats {
		t.Errorf("warm run cost counters diverge from the cold run:\n%+v\nvs\n%+v", warm.Stats, cold.Stats)
	}
}
