package engine_test

import (
	"strings"
	"sync/atomic"
	"testing"

	"yashme/internal/engine"
	"yashme/internal/pmdk"
	"yashme/internal/pmm"
	"yashme/internal/progs/fastfair"
)

// countMakes wraps mk so that every instantiation is counted.
func countMakes(mk func() pmm.Program, n *atomic.Int64) func() pmm.Program {
	return func() pmm.Program {
		n.Add(1)
		return mk()
	}
}

// TestOneSetupPerProbe: outside the reference configuration an engine run
// builds one program per probe plus one recovery program that every
// resumed scenario shares; the reference configuration builds one per
// probe and one per scenario. A Table 3 program is model-checked over two
// schedules and a Table 4 program runs in random mode, at one and four
// workers.
func TestOneSetupPerProbe(t *testing.T) {
	cases := []struct {
		name   string
		mk     func() pmm.Program
		opts   engine.Options
		probes int
	}{
		{"fastfair/model-check", fastfair.New(7, nil),
			engine.Options{Mode: engine.ModelCheck, Prefix: true, Schedules: 2}, 2},
		{"pmdk/random", pmdk.NewPMDKProg(3, nil),
			engine.Options{Mode: engine.RandomMode, Prefix: true, Seed: 1, Executions: 10}, 10},
	}
	for _, tc := range cases {
		for _, workers := range []int{1, 4} {
			for _, reference := range []bool{false, true} {
				var makes atomic.Int64
				opts := tc.opts
				opts.Workers, opts.Reference = workers, reference
				res := engine.Run(countMakes(tc.mk, &makes), opts)
				want := int64(tc.probes + 1)
				if reference {
					want = int64(tc.probes + res.ExecutionsRun)
				}
				if got := makes.Load(); got != want {
					t.Errorf("%s workers=%d reference=%v: makeProg called %d times for %d scenarios, want %d",
						tc.name, workers, reference, got, res.ExecutionsRun, want)
				}
			}
		}
	}
}

// privateHeapProg's recovery allocates on its thread's heap and branches
// on what it reads back: the number of loads it issues depends on where
// its allocation landed and on how many allocations the heap holds, and
// it reads the log a crashed earlier recovery published. If two scenarios
// resumed from one snapshot shared a heap, the second would place its log
// elsewhere, issue a different number of loads and diverge from the
// reference configuration, which builds every scenario from scratch.
func privateHeapProg() pmm.Program {
	var root pmm.Struct
	layout := pmm.Layout{{Name: "x", Size: 8}, {Name: "pad", Size: 8}}
	return pmm.Program{
		Name: "private-heap",
		Setup: func(h *pmm.Heap) {
			root = h.AllocStruct("root", pmm.Layout{{Name: "val", Size: 8}, {Name: "ptr", Size: 8}, {Name: "logp", Size: 8}})
		},
		Workers: []func(*pmm.Thread){func(t *pmm.Thread) {
			for i := uint64(1); i <= 3; i++ {
				t.Store64(root.F("val"), i)
				t.CLFlush(root.F("val"))
				t.SFence()
			}
			n := t.Heap().AllocStruct("node", layout)
			t.Store64(n.F("x"), 7)
			t.Persist(n.Base(), n.Size())
			t.Store64(root.F("ptr"), uint64(n.Base()))
			t.Persist(root.F("ptr"), 8)
		}},
		PostCrash: func(t *pmm.Thread) {
			h := t.Heap()
			v := t.Load64(root.F("val"))
			if n, ok := h.StructAt(pmm.Addr(t.Load64(root.F("ptr")))); ok {
				t.Load64(n.F("x"))
			}
			// The log an earlier, crashed recovery published.
			if prev, ok := h.StructAt(pmm.Addr(t.Load64(root.F("logp")))); ok && prev.Label() == "log" {
				t.Load64(prev.F("x"))
			}
			lg := h.AllocStruct("log", layout)
			t.Store64(lg.F("x"), v)
			// Publish before x is flushed: a later recovery that follows
			// logp may read an unpersisted log.x.
			t.Store64(root.F("logp"), uint64(lg.Base()))
			t.CLFlush(root.F("logp"))
			t.SFence()
			t.CLFlush(lg.F("x"))
			t.SFence()
			extra := int(uint64(lg.Base())/pmm.CacheLineSize)%4 + h.AllocCount()
			if t.Load64(lg.F("x")) == v {
				extra++
			}
			for i := 0; i < extra; i++ {
				t.Load64(root.F("val"))
			}
		},
	}
}

// TestRecoveryHeapIsPrivate: policy twins, read-choice expansions and
// recovery-crash follow-ups resumed from one snapshot must not see each
// other's recovery allocations. Each configuration runs by default and in
// the reference configuration at one and four workers, and all four must
// tell the same story.
func TestRecoveryHeapIsPrivate(t *testing.T) {
	cases := []struct {
		name string
		opts engine.Options
	}{
		{"policy-twins", engine.Options{Mode: engine.ModelCheck, Prefix: true}},
		{"explore-reads", engine.Options{Mode: engine.ModelCheck, Prefix: true, ExploreReads: true}},
		{"recovery-crashes", engine.Options{Mode: engine.ModelCheck, Prefix: true, RecoveryCrashes: 3}},
		{"random", engine.Options{Mode: engine.RandomMode, Prefix: true, Seed: 5, Executions: 12, RecoveryCrashes: 3}},
	}
	for _, tc := range cases {
		var want string
		for _, reference := range []bool{true, false} {
			for _, workers := range []int{1, 4} {
				opts := tc.opts
				opts.Workers, opts.Reference = workers, reference
				res := engine.Run(privateHeapProg, opts)
				got := canonical(t, res, res.Passes)
				if want == "" {
					want = got
					if tc.name == "recovery-crashes" && !strings.Contains(got, "log.x") {
						t.Fatalf("%s: no race named on the recovery's own allocation:\n%s", tc.name, res.Report)
					}
					continue
				}
				if got != want {
					t.Fatalf("%s reference=%v workers=%d diverges:\n%s\nwant (reference, one worker):\n%s",
						tc.name, reference, workers, got, want)
				}
			}
		}
	}
}
