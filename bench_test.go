// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation (see DESIGN.md's per-experiment index), plus ablation benches
// for the design choices the reproduction calls out. Run with
//
//	go test -bench=. -benchmem
//
// Each bench reports, besides time, the quantity the paper's artifact
// measures (races found, rows regenerated), via b.ReportMetric.
package yashme_test

import (
	"context"
	"encoding/json"
	"os"
	"runtime"
	"testing"

	"yashme"
	"yashme/internal/compiler"
	"yashme/internal/engine"
	"yashme/internal/progs/cceh"
	"yashme/internal/suite"
	"yashme/internal/workload"
)

// mustSpec fetches a registered workload by name (the suite import links
// every benchmark's registration into the test binary).
func mustSpec(tb testing.TB, name string) workload.Spec {
	tb.Helper()
	s, ok := workload.Lookup(name)
	if !ok {
		tb.Fatalf("workload %q not registered", name)
	}
	return s
}

// figure1 is the paper's Figure 1 program (E1).
func figure1() yashme.Program {
	var val yashme.Addr
	return yashme.Program{
		Name: "figure1",
		Setup: func(h *yashme.Heap) {
			val = h.AllocStruct("pmobj", yashme.Layout{{Name: "val", Size: 8}}).F("val")
		},
		Workers: []func(*yashme.Thread){func(t *yashme.Thread) {
			t.Store64(val, 0x1234567812345678)
			t.CLFlush(val)
		}},
		PostCrash: func(t *yashme.Thread) { t.Load64(val) },
	}
}

// BenchmarkFigure1 (E1): detect the Figure 1 persistency race by model
// checking the example program.
func BenchmarkFigure1(b *testing.B) {
	b.ReportAllocs()
	races := 0
	for i := 0; i < b.N; i++ {
		res := yashme.Run(figure1, yashme.Options{Mode: yashme.ModelCheck, Prefix: true})
		races = res.Report.Count()
	}
	b.ReportMetric(float64(races), "races")
}

// BenchmarkTable2a (E2): regenerate the compiler store-optimization study.
func BenchmarkTable2a(b *testing.B) {
	b.ReportAllocs()
	rows := 0
	for i := 0; i < b.N; i++ {
		rows = len(compiler.Table2a())
	}
	b.ReportMetric(float64(rows), "rows")
}

// BenchmarkTable2b (E3): regenerate the source-vs-assembly memop counts.
func BenchmarkTable2b(b *testing.B) {
	b.ReportAllocs()
	rows := 0
	for i := 0; i < b.N; i++ {
		rows = len(compiler.Table2b())
	}
	b.ReportMetric(float64(rows), "rows")
}

// BenchmarkTable3 (E4): model-check the six PM indexes through the suite
// runner; 19 races.
func BenchmarkTable3(b *testing.B) {
	b.ReportAllocs()
	races := 0
	for i := 0; i < b.N; i++ {
		res := suite.RunContext(context.Background(), suite.Config{
			Tags:     []string{workload.TagTable3},
			Variants: []string{suite.VariantRaces},
		})
		races = res.TotalRaces(suite.RunRaces)
	}
	b.ReportMetric(float64(races), "races")
}

// BenchmarkTable3Parallel (E17): the Table 3 model-checking sweep on 1, 4
// and GOMAXPROCS engine workers. Race counts are identical across worker
// counts (the plan/execute/merge determinism contract); only wall-clock
// changes.
func BenchmarkTable3Parallel(b *testing.B) {
	for _, workers := range []int{1, 4, runtime.GOMAXPROCS(0)} {
		workers := workers
		b.Run("workers-"+itoa(workers), func(b *testing.B) {
			b.ReportAllocs()
			races := 0
			for i := 0; i < b.N; i++ {
				races = 0
				for _, spec := range workload.Tagged(workload.TagIndex) {
					res := engine.Run(spec.Make, engine.Options{
						Mode: engine.ModelCheck, Prefix: true, Workers: workers})
					races += res.Report.Count()
				}
			}
			b.ReportMetric(float64(races), "races")
		})
	}
}

// BenchmarkSuiteTable3 (E18/E20/E21/E22/E24): the Table 3 model-checking
// sweep, run through the concurrent suite layer, in the default
// configuration ("on"), in the reference configuration with every fast
// path off ("reference") and with the yashme,xfd analysis stack
// ("stacked"). Race counts are identical in all three modes (the
// equivalence contracts); the simops, handoffs/direct_ops, snapshot,
// dedup and clock-arena counters show what the fast paths save against
// the reference. The parent benchmark writes the unified BENCH_suite.json
// artifact — aggregate plus per-benchmark breakdown per mode — so the perf
// trajectory is tracked across changes; cmd/benchguard compares a fresh
// run against the committed artifact in CI.
func BenchmarkSuiteTable3(b *testing.B) {
	type benchStat struct {
		Races            int    `json:"races"`
		XFDRaces         int    `json:"xfd_races,omitempty"`
		SimulatedOps     int64  `json:"simulated_ops"`
		Handoffs         int64  `json:"handoffs"`
		DirectOps        int64  `json:"direct_ops"`
		SnapshotBytes    int64  `json:"snapshot_bytes"`
		JournalOps       int64  `json:"journal_ops"`
		DedupedScenarios int64  `json:"deduped_scenarios"`
		ClockInterned    int64  `json:"clock_interned"`
		EpochHits        int64  `json:"epoch_hits"`
		EpochMisses      int64  `json:"epoch_misses"`
		AllocsPerOp      uint64 `json:"allocs_per_op"`
		BytesPerOp       uint64 `json:"bytes_per_op"`
	}
	type measurement struct {
		NsPerOp          int64                 `json:"ns_per_op"`
		SimulatedOps     int64                 `json:"simulated_ops"`
		Handoffs         int64                 `json:"handoffs"`
		DirectOps        int64                 `json:"direct_ops"`
		SnapshotBytes    int64                 `json:"snapshot_bytes"`
		JournalOps       int64                 `json:"journal_ops"`
		DedupedScenarios int64                 `json:"deduped_scenarios"`
		ClockInterned    int64                 `json:"clock_interned"`
		EpochHits        int64                 `json:"epoch_hits"`
		EpochMisses      int64                 `json:"epoch_misses"`
		Races            float64               `json:"races"`
		XFDRaces         float64               `json:"xfd_races,omitempty"`
		AllocsPerOp      uint64                `json:"allocs_per_op"`
		BytesPerOp       uint64                `json:"bytes_per_op"`
		Benchmarks       map[string]*benchStat `json:"benchmarks"`
	}
	results := map[string]*measurement{}
	for _, mode := range []struct {
		name      string
		reference bool
		analyses  []string
	}{
		{"on", false, nil},
		// The reference mode turns every fast path off together: no
		// snapshots, no memoization, no direct-run lease, owned clocks.
		// Identical results; the delta against "on" is the fast paths' win.
		{"reference", true, nil},
		// The stacked mode runs both detectors over the one simulation
		// (E23): the yashme race count must not move, the xfd count is the
		// cross-failure baseline's, and the ns/op delta is the marginal cost
		// of the second pass.
		{"stacked", false, []string{"yashme", "xfd"}},
	} {
		mode := mode
		m := &measurement{Benchmarks: map[string]*benchStat{}}
		results[mode.name] = m
		b.Run(mode.name, func(b *testing.B) {
			b.ReportAllocs()
			var res *suite.Result
			// The testing package's alloc counters aren't readable from inside
			// the benchmark, so mirror them with ReadMemStats deltas for the
			// JSON artifact. Counts match -benchmem up to GC bookkeeping noise.
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < b.N; i++ {
				res = suite.RunContext(context.Background(), suite.Config{
					Tags:      []string{workload.TagTable3},
					Variants:  []string{suite.VariantRaces},
					Reference: mode.reference,
					Analyses:  mode.analyses,
				})
			}
			runtime.ReadMemStats(&after)
			stats := res.TotalStats()
			races := res.TotalRaces(suite.RunRaces)
			b.ReportMetric(float64(races), "races")
			b.ReportMetric(float64(stats.SimulatedOps), "simops")
			b.ReportMetric(float64(stats.Handoffs), "handoffs")
			m.NsPerOp = b.Elapsed().Nanoseconds() / int64(b.N)
			m.SimulatedOps = stats.SimulatedOps
			m.Handoffs = stats.Handoffs
			m.DirectOps = stats.DirectOps
			m.SnapshotBytes = stats.SnapshotBytes
			m.JournalOps = stats.JournalOps
			m.DedupedScenarios = stats.DedupedScenarios
			m.ClockInterned = stats.ClockInterned
			m.EpochHits = stats.EpochHits
			m.EpochMisses = stats.EpochMisses
			m.Races = float64(races)
			m.AllocsPerOp = (after.Mallocs - before.Mallocs) / uint64(b.N)
			m.BytesPerOp = (after.TotalAlloc - before.TotalAlloc) / uint64(b.N)
			m.XFDRaces = 0 // the harness may invoke this closure several times
			for _, bench := range res.Benchmarks {
				run := bench.Run(suite.RunRaces)
				if run == nil {
					continue
				}
				bs := &benchStat{
					Races:            run.RaceCount,
					SimulatedOps:     run.Stats.SimulatedOps,
					Handoffs:         run.Stats.Handoffs,
					DirectOps:        run.Stats.DirectOps,
					SnapshotBytes:    run.Stats.SnapshotBytes,
					JournalOps:       run.Stats.JournalOps,
					DedupedScenarios: run.Stats.DedupedScenarios,
					ClockInterned:    run.Stats.ClockInterned,
					EpochHits:        run.Stats.EpochHits,
					EpochMisses:      run.Stats.EpochMisses,
				}
				if x := run.Analysis("xfd"); x != nil {
					bs.XFDRaces = x.RaceCount
					m.XFDRaces += float64(x.RaceCount)
				}
				m.Benchmarks[bench.Name] = bs
			}
			if m.XFDRaces > 0 {
				b.ReportMetric(m.XFDRaces, "xfd-races")
			}
			// Per-benchmark allocation profile (for cmd/benchguard's
			// per-benchmark gate): run each workload alone, sequentially,
			// off the benchmark clock.
			b.StopTimer()
			for name := range m.Benchmarks {
				var bb, ba runtime.MemStats
				runtime.ReadMemStats(&bb)
				suite.RunContext(context.Background(), suite.Config{
					Names:      []string{name},
					Variants:   []string{suite.VariantRaces},
					Reference:  mode.reference,
					Analyses:   mode.analyses,
					Sequential: true,
				})
				runtime.ReadMemStats(&ba)
				m.Benchmarks[name].AllocsPerOp = ba.Mallocs - bb.Mallocs
				m.Benchmarks[name].BytesPerOp = ba.TotalAlloc - bb.TotalAlloc
			}
			b.StartTimer()
		})
	}
	artifact := struct {
		Experiment string                  `json:"experiment"`
		Benchmark  string                  `json:"benchmark"`
		Modes      map[string]*measurement `json:"modes"`
		SimOpsWin  float64                 `json:"simops_ratio_reference_over_on"`
	}{Experiment: "E24", Benchmark: "suite-table3", Modes: results}
	if on := results["on"].SimulatedOps; on > 0 {
		artifact.SimOpsWin = float64(results["reference"].SimulatedOps) / float64(on)
	}
	data, err := json.MarshalIndent(artifact, "", "  ")
	if err != nil {
		b.Fatalf("marshal artifact: %v", err)
	}
	if err := os.WriteFile("BENCH_suite.json", append(data, '\n'), 0o644); err != nil {
		b.Fatalf("write BENCH_suite.json: %v", err)
	}
}

// BenchmarkSchedulerHandoff (E20): the per-operation scheduler cost in
// isolation — a Yield-heavy workload where every operation is a scheduling
// point and nothing else happens — by default and in the reference
// configuration, which pays the handshake on every operation. With one
// thread the direct-run lease eliminates the handshake entirely; with four
// threads it can only cover the tail after three finish, so the pair
// brackets the lease's reach.
func BenchmarkSchedulerHandoff(b *testing.B) {
	mkProg := func(threads int) func() yashme.Program {
		return func() yashme.Program {
			var val yashme.Addr
			workers := make([]func(*yashme.Thread), threads)
			for w := range workers {
				workers[w] = func(t *yashme.Thread) {
					for i := 0; i < 500; i++ {
						t.Yield()
					}
				}
			}
			return yashme.Program{
				Name: "handoff",
				Setup: func(h *yashme.Heap) {
					val = h.AllocStruct("o", yashme.Layout{{Name: "v", Size: 8}}).F("v")
				},
				Workers:   workers,
				PostCrash: func(t *yashme.Thread) { t.Load64(val) },
			}
		}
	}
	for _, threads := range []int{1, 4} {
		for _, mode := range referenceModes {
			threads, mode := threads, mode
			b.Run("threads-"+itoa(threads)+"/"+mode.name, func(b *testing.B) {
				b.ReportAllocs()
				mk := mkProg(threads)
				var handoffs, directOps int64
				for i := 0; i < b.N; i++ {
					res := yashme.RunOnce(mk, yashme.Options{
						Prefix: true, Reference: mode.reference}, 0, yashme.PersistLatest, 1)
					handoffs, directOps = res.Stats.Handoffs, res.Stats.DirectOps
				}
				b.ReportMetric(float64(handoffs), "handoffs")
				b.ReportMetric(float64(directOps), "directops")
			})
		}
	}
}

// referenceModes are the two configurations the fast-path benches compare:
// the default and the reference one, with every fast path off.
var referenceModes = []struct {
	name      string
	reference bool
}{{"default", false}, {"reference", true}}

// BenchmarkSoloRecovery (E20): a full single-threaded model-checking sweep —
// the shape the lease targets end to end, since the pre-crash workload, every
// checkpointed resume, and every recovery execution all run solo — by
// default and in the reference configuration.
func BenchmarkSoloRecovery(b *testing.B) {
	mk := func() yashme.Program {
		var base yashme.Addr
		return yashme.Program{
			Name: "solo",
			Setup: func(h *yashme.Heap) {
				base = h.AllocStruct("o", yashme.Layout{
					{Name: "a", Size: 8}, {Name: "b", Size: 8},
					{Name: "c", Size: 8}, {Name: "d", Size: 8},
				}).F("a")
			},
			Workers: []func(*yashme.Thread){func(t *yashme.Thread) {
				for i := 0; i < 40; i++ {
					t.Store64(base+yashme.Addr(8*(i%4)), uint64(i))
					t.CLWB(base + yashme.Addr(8*(i%4)))
					t.SFence()
				}
			}},
			PostCrash: func(t *yashme.Thread) {
				for i := 0; i < 4; i++ {
					t.Load64(base + yashme.Addr(8*i))
				}
			},
		}
	}
	for _, mode := range referenceModes {
		mode := mode
		b.Run(mode.name, func(b *testing.B) {
			b.ReportAllocs()
			var directOps int64
			for i := 0; i < b.N; i++ {
				res := yashme.Run(mk, yashme.Options{
					Mode: yashme.ModelCheck, Prefix: true, Reference: mode.reference})
				directOps = res.Stats.DirectOps
			}
			b.ReportMetric(float64(directOps), "directops")
		})
	}
}

// BenchmarkTable4 (E5): random-mode sweep of PMDK, Memcached, Redis
// through the suite runner; 5 races.
func BenchmarkTable4(b *testing.B) {
	b.ReportAllocs()
	races := 0
	for i := 0; i < b.N; i++ {
		res := suite.RunContext(context.Background(), suite.Config{
			Tags:     []string{workload.TagTable4},
			Variants: []string{suite.VariantRaces},
		})
		races = res.TotalRaces(suite.RunRaces)
	}
	b.ReportMetric(float64(races), "races")
}

// BenchmarkTable5 (E6): the full prefix-vs-baseline single-execution
// comparison, per benchmark as sub-benchmarks. The prefix/baseline race
// counts are the paper's Table 5 columns; the Jaaru variant is the
// detector-off infrastructure time.
func BenchmarkTable5(b *testing.B) {
	for _, spec := range workload.Tagged(workload.TagTable5) {
		spec := spec
		b.Run(spec.Name+"/yashme-prefix", func(b *testing.B) {
			b.ReportAllocs()
			races := 0
			for i := 0; i < b.N; i++ {
				res := engine.Run(spec.Make, engine.Options{
					Mode: engine.RandomMode, Prefix: true, Seed: spec.Table5Seed, Executions: 1})
				races = res.Report.Count()
			}
			b.ReportMetric(float64(races), "races")
		})
		b.Run(spec.Name+"/yashme-baseline", func(b *testing.B) {
			b.ReportAllocs()
			races := 0
			for i := 0; i < b.N; i++ {
				res := engine.Run(spec.Make, engine.Options{
					Mode: engine.RandomMode, Prefix: false, Seed: spec.Table5Seed, Executions: 1})
				races = res.Report.Count()
			}
			b.ReportMetric(float64(races), "races")
		})
		b.Run(spec.Name+"/jaaru", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				engine.Run(spec.Make, engine.Options{
					Mode: engine.RandomMode, Prefix: true, Seed: spec.Table5Seed,
					Executions: 1, DetectorOff: true})
			}
		})
	}
}

// BenchmarkBenign (E7): the §7.5 benign checksum-race inventory; 10 races.
func BenchmarkBenign(b *testing.B) {
	b.ReportAllocs()
	races := 0
	for i := 0; i < b.N; i++ {
		res := suite.RunContext(context.Background(), suite.Config{
			Tags:     []string{workload.TagBenign},
			Variants: []string{suite.VariantBenign},
		})
		races = 0
		for _, bench := range res.Benchmarks {
			if run := bench.Run(suite.RunBenign); run != nil {
				races += len(run.Benign)
			}
		}
	}
	b.ReportMetric(float64(races), "benign-races")
}

// BenchmarkPrefixExpansion (E8): the §4.2 multithreaded scenario where no
// crash point exposes the race but the prefix analysis derives it.
func BenchmarkPrefixExpansion(b *testing.B) {
	b.ReportAllocs()
	mk := func() yashme.Program {
		var z, f yashme.Addr
		return yashme.Program{
			Name: "mt-prefix",
			Setup: func(h *yashme.Heap) {
				z = h.AllocStruct("zz", yashme.Layout{{Name: "z", Size: 8}}).F("z")
				f = h.AllocStruct("ff", yashme.Layout{{Name: "f", Size: 8}}).F("f")
			},
			Workers: []func(*yashme.Thread){
				func(t *yashme.Thread) { t.Store64(z, 7); t.CLFlush(z) },
				func(t *yashme.Thread) { t.StoreRelease64(f, 1) },
			},
			PostCrash: func(t *yashme.Thread) {
				t.LoadAcquire64(f)
				t.Load64(z)
			},
		}
	}
	races := 0
	for i := 0; i < b.N; i++ {
		res := yashme.Run(mk, yashme.Options{Mode: yashme.ModelCheck, Prefix: true})
		races = res.Report.Count()
	}
	b.ReportMetric(float64(races), "races")
}

// BenchmarkAblationPrefix quantifies the prefix expansion's value on the
// whole Table 5 suite: total races found in single executions with the
// expansion on vs off (the paper's 15-vs-3 / "5x" result).
func BenchmarkAblationPrefix(b *testing.B) {
	for _, prefix := range []bool{true, false} {
		name := "prefix-on"
		if !prefix {
			name = "prefix-off"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			total := 0
			for i := 0; i < b.N; i++ {
				total = 0
				for _, spec := range workload.Tagged(workload.TagTable5) {
					res := engine.Run(spec.Make, engine.Options{
						Mode: engine.RandomMode, Prefix: prefix, Seed: spec.Table5Seed, Executions: 1})
					total += res.Report.Count()
				}
			}
			b.ReportMetric(float64(total), "races")
		})
	}
}

// BenchmarkAblationDetectorOverhead measures the cost of race checking
// itself: the same CCEH model-checking run with the detector on vs off
// (the Yashme-vs-Jaaru columns of Table 5, as a controlled pair).
func BenchmarkAblationDetectorOverhead(b *testing.B) {
	spec := mustSpec(b, "CCEH")
	for _, off := range []bool{false, true} {
		name := "detector-on"
		if off {
			name = "detector-off"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				engine.Run(spec.Make, engine.Options{
					Mode: engine.ModelCheck, Prefix: true, DetectorOff: off})
			}
		})
	}
}

// BenchmarkAblationPersistPolicy measures how the persisted-image policy
// affects exploration cost and detection on FAST_FAIR.
func BenchmarkAblationPersistPolicy(b *testing.B) {
	spec := mustSpec(b, "Fast_Fair")
	policies := map[string][]engine.PersistPolicy{
		"latest":         {engine.PersistLatest},
		"minimal":        {engine.PersistMinimal},
		"latest+minimal": {engine.PersistLatest, engine.PersistMinimal},
	}
	for name, pp := range policies {
		pp := pp
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			races := 0
			for i := 0; i < b.N; i++ {
				res := engine.Run(spec.Make, engine.Options{
					Mode: engine.ModelCheck, Prefix: true, PersistPolicies: pp})
				races = res.Report.Count()
			}
			b.ReportMetric(float64(races), "races")
		})
	}
}

// BenchmarkAblationModeComparison compares model checking against random
// exploration budgets on the same program (P-Masstree).
func BenchmarkAblationModeComparison(b *testing.B) {
	spec := mustSpec(b, "P-Masstree")
	b.Run("model-check", func(b *testing.B) {
		b.ReportAllocs()
		races := 0
		for i := 0; i < b.N; i++ {
			res := engine.Run(spec.Make, engine.Options{Mode: engine.ModelCheck, Prefix: true})
			races = res.Report.Count()
		}
		b.ReportMetric(float64(races), "races")
	})
	for _, execs := range []int{1, 10, 40} {
		execs := execs
		b.Run("random-"+itoa(execs), func(b *testing.B) {
			b.ReportAllocs()
			races := 0
			for i := 0; i < b.N; i++ {
				res := engine.Run(spec.Make, engine.Options{
					Mode: engine.RandomMode, Prefix: true, Seed: 1, Executions: execs})
				races = res.Report.Count()
			}
			b.ReportMetric(float64(races), "races")
		})
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

// BenchmarkRecoveryCrashes (multi-crash exploration, §6 exec stack): cost
// of exploring second crashes inside the recovery procedure.
func BenchmarkRecoveryCrashes(b *testing.B) {
	b.ReportAllocs()
	spec := mustSpec(b, "hashmap-tx")
	for i := 0; i < b.N; i++ {
		engine.Run(spec.Make, engine.Options{
			Mode: engine.ModelCheck, Prefix: true, MaxCrashPoints: 10, RecoveryCrashes: 3})
	}
}

// BenchmarkSimulatorThroughput measures raw simulation speed: simulated
// memory operations per second through the full stack (scheduler, TSO
// machine, detector) on a flush-heavy single-thread workload.
func BenchmarkSimulatorThroughput(b *testing.B) {
	mk := func() yashme.Program {
		var base yashme.Addr
		return yashme.Program{
			Name: "throughput",
			Setup: func(h *yashme.Heap) {
				base = h.AllocStruct("o", yashme.Layout{
					{Name: "a", Size: 8}, {Name: "b", Size: 8},
					{Name: "c", Size: 8}, {Name: "d", Size: 8},
				}).F("a")
			},
			Workers: []func(*yashme.Thread){func(t *yashme.Thread) {
				for i := 0; i < 250; i++ {
					t.Store64(base+yashme.Addr(8*(i%4)), uint64(i))
					t.Load64(base)
					t.CLWB(base)
					t.SFence()
				}
			}},
			PostCrash: func(t *yashme.Thread) { t.Load64(base) },
		}
	}
	b.ReportAllocs()
	var ops int64
	for i := 0; i < b.N; i++ {
		res := yashme.RunOnce(mk, yashme.Options{Prefix: true}, 0, yashme.PersistLatest, 1)
		ops = res.Stats.Stores + res.Stats.Loads + res.Stats.Flushes + res.Stats.Fences
	}
	b.ReportMetric(float64(ops)*float64(b.N)/b.Elapsed().Seconds(), "simops/s")
}

// BenchmarkAblationReadExploration measures the cost and yield of
// Jaaru-style read-choice exploration on CCEH.
func BenchmarkAblationReadExploration(b *testing.B) {
	spec := mustSpec(b, "CCEH")
	for _, explore := range []bool{false, true} {
		name := "policies-only"
		if explore {
			name = "explore-reads"
		}
		explore := explore
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			races, execs := 0, 0
			for i := 0; i < b.N; i++ {
				res := engine.Run(spec.Make, engine.Options{
					Mode: engine.ModelCheck, Prefix: true, ExploreReads: explore})
				races = res.Report.Count()
				execs = res.ExecutionsRun
			}
			b.ReportMetric(float64(races), "races")
			b.ReportMetric(float64(execs), "executions")
		})
	}
}

// BenchmarkAblationCandidateWidth quantifies checking ALL candidate stores
// per load against only the newest ones (the design choice DESIGN.md calls
// out), on Fast_Fair.
func BenchmarkAblationCandidateWidth(b *testing.B) {
	spec := mustSpec(b, "Fast_Fair")
	for _, limit := range []int{0, 1, 2} {
		name := "all"
		if limit > 0 {
			name = "newest-" + itoa(limit)
		}
		limit := limit
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			races := 0
			for i := 0; i < b.N; i++ {
				res := engine.Run(spec.Make, engine.Options{
					Mode: engine.ModelCheck, Prefix: true, CandidateLimit: limit})
				races = res.Report.Count()
			}
			b.ReportMetric(float64(races), "races")
		})
	}
}

// BenchmarkRelatedWorkComparison runs the cross-failure (XFDetector-style)
// baseline against Yashme on the same CCEH workload — the executable
// version of the paper's §1/§8 claim that prior tools cannot detect
// persistency races.
func BenchmarkRelatedWorkComparison(b *testing.B) {
	b.Run("yashme", func(b *testing.B) {
		b.ReportAllocs()
		races := 0
		for i := 0; i < b.N; i++ {
			res := yashme.Run(ccehProg(), yashme.Options{Mode: yashme.ModelCheck, Prefix: true})
			races = res.Report.Count()
		}
		b.ReportMetric(float64(races), "persistency-races")
	})
	b.Run("cross-failure", func(b *testing.B) {
		b.ReportAllocs()
		races := 0
		for i := 0; i < b.N; i++ {
			res := yashme.Run(ccehProg(), yashme.Options{
				Mode:            yashme.ModelCheck,
				PersistPolicies: []yashme.PersistPolicy{yashme.PersistLatest},
				Analyses:        []string{"xfd"},
			})
			races = res.Report.Count()
		}
		b.ReportMetric(float64(races), "cross-failure-races")
		b.ReportMetric(0, "persistency-races") // structurally zero
	})
}

func ccehProg() func() yashme.Program { return cceh.New(4, nil) }
