package engine

// Internal tests for the checkpoint layer's ownership: crash-point copies
// must survive the pools being reused around them.

import (
	"bytes"
	"encoding/json"
	"runtime"
	"testing"

	"yashme/internal/fuzzprog"
	"yashme/internal/pmm"
	"yashme/internal/report"
	"yashme/internal/workload"
	_ "yashme/internal/workload/all"
)

// TestResumeTwiceAroundWarmRetire: a resumed scenario's detector, image,
// rng and shell go back to the pools when it retires, while the crash
// point's copy it resumed from stays valid for the spec's later resumes. Each crash
// point's snapshot is resumed, the scenario retired, the pools dirtied by
// a random-mode run, and the same snapshot resumed again: both resumes
// must render the same canonical result, cost counters included.
func TestResumeTwiceAroundWarmRetire(t *testing.T) {
	// Empty pools and one P keep them last-in first-out, so the dirtying
	// run draws exactly what the first resume retired.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	runtime.GC()
	runtime.GC()
	resumes := 0
	for seed := int64(1); seed <= 12; seed++ {
		mk, _ := fuzzprog.Generate(fuzzprog.Default(), seed)
		opts := Options{Mode: ModelCheck, Prefix: true, Seed: seed, Workers: 1}.withDefaults()
		snaps := probeSnapshots(mk, opts)
		resume := func(c int) []byte {
			r := newSpecResult(scenarioSpec{}, opts)
			r.absorb(runPlanned(mk, opts, snaps[c], plan{0: c}, PersistLatest, seed, nil))
			res := newResult(opts)
			res.mergeSpec(r)
			b, err := json.Marshal(struct {
				Races, Benign []report.Race
				Raw, Runs     int
				Stats         Stats
			}{res.Report.Races(), res.Report.Benign(), res.Report.RawCount, res.ExecutionsRun, res.Stats})
			if err != nil {
				t.Fatal(err)
			}
			return b
		}
		for c := range snaps {
			first := resume(c)
			Run(mk, Options{Mode: RandomMode, Executions: 3, Seed: seed, Workers: 1})
			if second := resume(c); !bytes.Equal(first, second) {
				t.Fatalf("seed %d point %d: resuming after a warm retire differs:\n%s\nvs\n%s", seed, c, first, second)
			}
			resumes++
		}
	}
	if resumes == 0 {
		t.Fatal("no snapshot resumed")
	}
}

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

// RecoveryWriter exports recoveryWriter to the package's external tests.
var RecoveryWriter = recoveryWriter

// TestSchedulerRegisterFilledOnFirstDraw: a scheduler source fills its
// register only when it draws. CCEH's one worker never gives the scheduler
// a choice, so model-checking it leaves the probe and every resumed
// scenario without a register. P-CLHT's two workers make its probe draw;
// its resumed scenarios draw only under PersistRandom, which picks each
// line's persist point from the scheduler rng, and exactly the ones that
// draw get a register.
func TestSchedulerRegisterFilledOnFirstDraw(t *testing.T) {
	for _, tc := range []struct {
		name     string
		policies []PersistPolicy
		solo     bool
	}{
		{"CCEH", nil, true},
		{"P-CLHT", []PersistPolicy{PersistLatest, PersistMinimal, PersistRandom}, false},
	} {
		spec, ok := workload.Lookup(tc.name)
		if !ok {
			t.Fatalf("%s is not registered", tc.name)
		}
		opts := Options{Mode: ModelCheck, Prefix: true, PersistPolicies: tc.policies, Workers: 1}.withDefaults()
		probe := newScenario(spec.Make, opts, plan{}, PersistLatest, opts.Seed)
		probe.runPreCrash()
		if filled := probe.rngSrc.state != nil; filled == tc.solo {
			t.Fatalf("%s: probe at draw %d has a register: %v", tc.name, probe.rngSrc.n, filled)
		}
		probe.retire()
		drew, idle := 0, 0
		for c, snap := range probeSnapshots(spec.Make, opts) {
			for _, pp := range opts.PersistPolicies {
				sc := runPlanned(spec.Make, opts, snap, plan{0: c}, pp, opts.Seed, nil)
				filled, moved := sc.rngSrc.state != nil, sc.rngSrc.n > snap.rngDraws
				if filled != moved {
					t.Fatalf("%s point %d policy %v: resumed at draw %d, now at %d, has a register: %v",
						tc.name, c, pp, snap.rngDraws, sc.rngSrc.n, filled)
				}
				if moved {
					drew++
				} else {
					idle++
				}
				sc.retire()
			}
			snap.release()
		}
		if tc.solo && drew > 0 || !tc.solo && (drew == 0 || idle == 0) {
			t.Fatalf("%s: %d resumed scenarios drew, %d did not", tc.name, drew, idle)
		}
	}
}
