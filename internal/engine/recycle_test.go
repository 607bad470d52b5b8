package engine_test

import (
	"reflect"
	"runtime"
	"testing"

	"yashme/internal/engine"
	"yashme/internal/pmm"
)

// recoveryWriter's recovery stores and flushes records of its own, so with
// recovery crashes on, the checkpoint layer snapshots the live recovery
// execution and every follow-up scenario resumes from clones that share its
// store arena. A second recovery takes the other branch: it commits stores
// to fresh addresses before it reads the first recovery's records, so a
// recycled arena still shared with a snapshot would be overwritten before
// those records are race-checked.
func recoveryWriter() pmm.Program {
	var data, mark, x, y pmm.Addr
	var fresh []pmm.Addr
	return pmm.Program{
		Name: "recovery-writer",
		Setup: func(h *pmm.Heap) {
			data = h.AllocStruct("data", pmm.Layout{{Name: "a", Size: 8}}).F("a")
			r := h.AllocStruct("rec", pmm.Layout{{Name: "mark", Size: 8}, {Name: "x", Size: 8}, {Name: "y", Size: 8}})
			mark, x, y = r.F("mark"), r.F("x"), r.F("y")
			f := h.AllocStruct("fresh", pmm.Layout{{Name: "p", Size: 8}, {Name: "q", Size: 8}, {Name: "r", Size: 8}})
			fresh = []pmm.Addr{f.F("p"), f.F("q"), f.F("r")}
		},
		Workers: []func(*pmm.Thread){func(t *pmm.Thread) {
			t.Store64(data, 1)
			t.CLFlush(data)
		}},
		PostCrash: func(t *pmm.Thread) {
			t.Load64(data)
			if t.Load64(mark) == 0 {
				t.Store64(mark, 1)
				t.CLFlush(mark)
				t.Store64(x, 7)
				t.CLFlush(x)
				t.Store64(y, 8)
				t.CLFlush(y)
				return
			}
			for i, a := range fresh {
				t.Store64(a, uint64(i+1))
			}
			t.Load64(x)
			t.Load64(y)
		},
	}
}

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
	cold := engine.Run(recoveryWriter, opts)
	for i := 0; i < 3; i++ {
		engine.Run(recoveryWriter, engine.Options{Mode: engine.RandomMode, Prefix: true, Seed: int64(i + 5), RecoveryCrashes: 3})
	}
	warm := engine.Run(recoveryWriter, opts)
	refOpts := opts
	refOpts.Reference = true
	ref := engine.Run(recoveryWriter, refOpts)

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
