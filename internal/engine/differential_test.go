package engine_test

import (
	"encoding/json"
	"testing"

	"yashme/internal/engine"
	"yashme/internal/fuzzprog"
	"yashme/internal/pmm"
	"yashme/internal/report"
)

// canonicalPass is one pass's outcome: its races, benign races and raw
// report count.
type canonicalPass struct {
	Name          string
	Races, Benign []report.Race
	Raw           int
}

func passOf(p engine.PassResult) canonicalPass {
	return canonicalPass{p.Name, p.Report.Races(), p.Report.Benign(), p.Report.RawCount}
}

// canonical renders everything a Result says about the explored program —
// the given passes' outcomes, the window, the execution and crash-point
// counts and the operation counts — with the cost counters zeroed
// (Stats.ZeroCost): the engine's side of the suite's Canonical JSON.
func canonical(t *testing.T, r *engine.Result, passes []engine.PassResult) string {
	t.Helper()
	out := struct {
		Passes      []canonicalPass
		Window      []engine.PointStat
		Executions  int
		CrashPoints int
		Stats       engine.Stats
		Cancelled   bool
	}{Window: r.Window, Executions: r.ExecutionsRun, CrashPoints: r.CrashPoints, Stats: r.Stats, Cancelled: r.Cancelled}
	out.Stats.ZeroCost()
	for _, p := range passes {
		out.Passes = append(out.Passes, passOf(p))
	}
	b, err := json.Marshal(out)
	if err != nil {
		t.Fatalf("marshal result: %v", err)
	}
	return string(b)
}

// fuzzPolicyOrders are the persist-policy orders a fuzz input picks from:
// the default, its reverse, single policies, and orders that put the
// never-paired PersistRandom between or before the twins.
var fuzzPolicyOrders = [][]engine.PersistPolicy{
	nil,
	{engine.PersistMinimal, engine.PersistLatest},
	{engine.PersistLatest},
	{engine.PersistMinimal},
	{engine.PersistMinimal, engine.PersistRandom, engine.PersistLatest},
	{engine.PersistRandom, engine.PersistLatest, engine.PersistMinimal},
	{engine.PersistLatest, engine.PersistMinimal, engine.PersistLatest},
	{engine.PersistRandom},
}

// withRecoveryWrites wraps a program so its recovery reaches crash points:
// Setup allocates one more object, and the recovery, after the program's
// own reads, increments its x field, flushes and fences it, then adds x's
// old value to y and writes y back. A crash inside one recovery leaves x
// or y for the next to read, so the recovery-crash follow-ups
// (Options.RecoveryCrashes) have points to crash at and races to find:
// a fuzzprog recovery only loads, and reaches none.
func withRecoveryWrites(mk func() pmm.Program) func() pmm.Program {
	return func() pmm.Program {
		prog := mk()
		var rec pmm.Struct
		setup, post := prog.Setup, prog.PostCrash
		prog.Setup = func(h *pmm.Heap) {
			setup(h)
			rec = h.AllocStruct("rec", pmm.Layout{{Name: "x", Size: 8}, {Name: "y", Size: 8}})
		}
		prog.PostCrash = func(t *pmm.Thread) {
			post(t)
			x, y := rec.F("x"), rec.F("y")
			v := t.Load64(x)
			t.Store64(x, v+1)
			t.CLFlush(x)
			t.SFence()
			t.Store64(y, t.Load64(y)+v)
			t.CLWB(y)
			t.SFence()
		}
		return prog
	}
}

// fuzzShape decodes a fuzz input's shape word into a program configuration
// and run options: bits 0-1 objects-1, 2-3 workers-1, 4-7 ops per worker-1,
// 8 AllAtomic, 9 NoAtomics, 10 random mode, 11-13 the policy order, 14-17
// MaxCrashPoints (0 = all), 18-19 RecoveryCrashes. A run with recovery
// crashes runs its program under withRecoveryWrites.
func fuzzShape(seed int64, shape uint32) (fuzzprog.Config, engine.Options) {
	cfg := fuzzprog.Config{
		Objects:      1 + int(shape&3),
		Workers:      1 + int(shape>>2&3),
		OpsPerWorker: 1 + int(shape>>4&15),
		AllAtomic:    shape>>8&1 == 1,
		NoAtomics:    shape>>9&1 == 1,
	}
	opts := engine.Options{
		Mode:            engine.ModelCheck,
		Prefix:          true,
		Seed:            seed,
		PersistPolicies: fuzzPolicyOrders[shape>>11&7],
		MaxCrashPoints:  int(shape >> 14 & 15),
		RecoveryCrashes: int(shape >> 18 & 3),
	}
	if shape>>10&1 == 1 {
		opts.Mode, opts.Executions = engine.RandomMode, 4
	}
	return cfg, opts
}

// FuzzDefaultMatchesReference is the differential search against the
// reference oracle: the fuzz input becomes a fuzzprog program and a run
// configuration, and the default run at one and four workers, the
// reference run, and the stacked yashme,xfd run against each pass alone
// must all tell the same story (canonical). The model-check walk, the
// policy twins, the memoization, the random-mode handover and the
// recovery-crash follow-ups resumed from a crash point's snapshot are all
// on the default side; none of them exists on the reference side.
func FuzzDefaultMatchesReference(f *testing.F) {
	f.Add(int64(1), uint32(0))
	f.Add(int64(7), uint32(3<<4|1<<2|2))
	f.Add(int64(3), uint32(4<<11|5<<14))
	f.Add(int64(11), uint32(1<<10|2<<2))
	f.Add(int64(5), uint32(3<<18|1<<2|5<<4))
	f.Add(int64(9), uint32(2<<18|1<<10|1<<2|3<<4))
	f.Fuzz(func(t *testing.T, seed int64, shape uint32) {
		cfg, opts := fuzzShape(seed, shape)
		mk, _ := fuzzprog.Generate(cfg, seed)
		if opts.RecoveryCrashes > 0 {
			mk = withRecoveryWrites(mk)
		}
		opts.Workers = 1
		solo := engine.Run(mk, opts)
		want := canonical(t, solo, solo.Passes)
		for _, v := range []struct {
			name string
			set  func(*engine.Options)
		}{
			{"workers 4", func(o *engine.Options) { o.Workers = 4 }},
			{"reference", func(o *engine.Options) { o.Reference = true }},
		} {
			o := opts
			v.set(&o)
			r := engine.Run(mk, o)
			if got := canonical(t, r, r.Passes); got != want {
				t.Fatalf("%s diverges from the default run:\n%s\nvs\n%s", v.name, got, want)
			}
		}

		// Stacked against solo: the yashme pass and the run's counts are the
		// yashme-only run's, the xfd pass is the xfd-only run's.
		o := opts
		o.Analyses = []string{"xfd"}
		xfd := canonical(t, solo, engine.Run(mk, o).Passes)
		for _, workers := range []int{1, 4} {
			o := opts
			o.Analyses, o.Workers = []string{"yashme", "xfd"}, workers
			stacked := engine.Run(mk, o)
			if got := canonical(t, stacked, stacked.Passes[:1]); got != want {
				t.Fatalf("stacked run at %d workers diverges from yashme alone:\n%s\nvs\n%s", workers, got, want)
			}
			if got := canonical(t, solo, stacked.Passes[1:]); got != xfd {
				t.Fatalf("stacked xfd pass at %d workers diverges from xfd alone:\n%s\nvs\n%s", workers, got, xfd)
			}
		}
	})
}
