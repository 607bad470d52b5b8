package engine

// Internal tests and benchmarks for the checkpoint layer: delta snapshots
// against full clones, and the cost of one snapshot capture (the
// per-crash-point overhead the O(n) + C·clone bound pays).

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"runtime"
	"testing"

	"yashme/internal/fuzzprog"
	"yashme/internal/pmm"
	"yashme/internal/progs/cceh"
	"yashme/internal/progs/part"
	"yashme/internal/report"
)

// BenchmarkSnapshotClone measures captureSnapshot on a scenario that has run
// a full pre-crash workload: one deep clone of the heap, detector, image and
// bookkeeping — the C·clone term of the checkpointed exploration.
func BenchmarkSnapshotClone(b *testing.B) {
	mk, _ := fuzzprog.Generate(fuzzprog.Default(), 7)
	opts := Options{Mode: ModelCheck, Prefix: true}.withDefaults()
	sc := newScenario(mk, opts, plan{}, PersistLatest, opts.Seed)
	sc.run()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = captureSnapshot(sc, 1)
	}
}

// BenchmarkSnapshotDelta measures a full probe run capturing at every crash
// point, full-clone keyframes (keyframe 1) against the default delta
// journal, and writes the BENCH_delta.json artifact: per-mode wall-clock,
// allocation and capture-accounting numbers. The delta mode's
// snapshot_bytes is the headline — a journal segment replaces a detector
// clone at all but every K-th point.
func BenchmarkSnapshotDelta(b *testing.B) {
	type measurement struct {
		NsPerOp       int64  `json:"ns_per_op"`
		SnapshotBytes int64  `json:"snapshot_bytes"`
		JournalOps    int64  `json:"journal_ops"`
		AllocsPerOp   uint64 `json:"allocs_per_op"`
		BytesPerOp    uint64 `json:"bytes_per_op"`
	}
	mk, _ := fuzzprog.Generate(fuzzprog.Default(), 7)
	results := map[string]*measurement{}
	for _, mode := range []struct {
		name     string
		keyframe int
	}{
		{"full-clone", 1},
		{"delta", 0}, // 0 = engine default interval
	} {
		mode := mode
		m := &measurement{}
		results[mode.name] = m
		b.Run(mode.name, func(b *testing.B) {
			b.ReportAllocs()
			opts := Options{Mode: ModelCheck, Prefix: true, keyframe: mode.keyframe}.withDefaults()
			var stats Stats
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sc := newScenario(mk, opts, plan{}, PersistLatest, opts.Seed)
				sink := newSnapshotSink(0, opts.MaxCrashPoints)
				sink.configureProbe(opts, sc.det)
				sc.capture = sink
				sc.run()
				stats = sc.stats
			}
			b.StopTimer()
			runtime.ReadMemStats(&after)
			b.ReportMetric(float64(stats.SnapshotBytes), "snapshot_bytes")
			b.ReportMetric(float64(stats.JournalOps), "journal_ops")
			m.NsPerOp = b.Elapsed().Nanoseconds() / int64(b.N)
			m.SnapshotBytes = stats.SnapshotBytes
			m.JournalOps = stats.JournalOps
			m.AllocsPerOp = (after.Mallocs - before.Mallocs) / uint64(b.N)
			m.BytesPerOp = (after.TotalAlloc - before.TotalAlloc) / uint64(b.N)
		})
	}
	artifact := struct {
		Benchmark string                  `json:"benchmark"`
		Modes     map[string]*measurement `json:"modes"`
		BytesWin  float64                 `json:"snapshot_bytes_ratio_full_over_delta"`
	}{Benchmark: "snapshot-delta", Modes: results}
	if d := results["delta"].SnapshotBytes; d > 0 {
		artifact.BytesWin = float64(results["full-clone"].SnapshotBytes) / float64(d)
	}
	data, err := json.MarshalIndent(artifact, "", "  ")
	if err != nil {
		b.Fatalf("marshal artifact: %v", err)
	}
	if err := os.WriteFile("BENCH_delta.json", append(data, '\n'), 0o644); err != nil {
		b.Fatalf("write BENCH_delta.json: %v", err)
	}
}

// TestDeltaMatchesFullClone: delta checkpoints are pure mechanism. A
// model-check sweep that keyframes every snapshot (keyframe 1, full clones
// with no journal) must match the default delta run on every Result field
// and every work counter; only the capture and clock-arena counters may
// differ (a journal replay re-runs its segment's joins, a keyframe resume
// does not). The runs follow each other, so later ones resume from pools
// the earlier ones dirtied: a full-clone snapshot pins the probe's arenas
// by clone alone, which recycling must respect.
func TestDeltaMatchesFullClone(t *testing.T) {
	capture := func(s Stats) Stats {
		s.SnapshotBytes, s.JournalOps = 0, 0
		s.ClockInterned, s.EpochHits, s.EpochMisses = 0, 0, 0
		return s
	}
	type prog struct {
		name string
		mk   func() pmm.Program
	}
	progs := []prog{{"cceh", cceh.New(4, nil)}, {"part", part.New(4, nil)}}
	for seed := int64(1); seed <= 6; seed++ {
		mk, _ := fuzzprog.Generate(fuzzprog.Default(), seed)
		progs = append(progs, prog{fmt.Sprintf("fuzz seed %d", seed), mk})
	}
	var journaled int64
	for _, p := range progs {
		name, mk := p.name, p.mk
		for _, workers := range []int{1, 4} {
			opts := Options{Mode: ModelCheck, Prefix: true, Workers: workers}
			delta := Run(mk, opts)
			opts.keyframe = 1
			full := Run(mk, opts)
			if d, f := delta.Report.String(), full.Report.String(); d != f {
				t.Fatalf("%s at %d workers: reports diverge:\ndelta:\n%s\nfull clone:\n%s", name, workers, d, f)
			}
			if d, f := capture(delta.Stats), capture(full.Stats); d != f {
				t.Fatalf("%s at %d workers: stats diverge:\ndelta:      %+v\nfull clone: %+v", name, workers, d, f)
			}
			if !reflect.DeepEqual(delta.Window, full.Window) || delta.ExecutionsRun != full.ExecutionsRun {
				t.Fatalf("%s at %d workers: window or executions diverge", name, workers)
			}
			if full.Stats.JournalOps != 0 {
				t.Fatalf("%s at %d workers: the full-clone run journaled %d ops", name, workers, full.Stats.JournalOps)
			}
			journaled += delta.Stats.JournalOps
		}
	}
	if journaled == 0 {
		t.Fatal("no delta run journaled anything; the comparison is vacuous")
	}
}

// TestResumeTwiceAroundWarmRetire: a resumed scenario's detector, image,
// rng and shell go back to the pools when it retires, while the snapshot
// it resumed from stays a template for every later resume. Each crash
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
		probe := newScenario(mk, opts, plan{}, PersistLatest, seed)
		sink := newSnapshotSink(0, opts.MaxCrashPoints)
		sink.configureProbe(opts, probe.det)
		probe.capture = sink
		probe.runPreCrash()
		n := probe.crashPoints[0]
		probe.retire()
		resume := func(c int) []byte {
			r := newSpecResult(scenarioSpec{}, opts)
			r.absorb(runPlanned(mk, opts, sink.snaps[c], plan{0: c}, PersistLatest, seed, nil))
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
		for c := 0; c <= n; c++ {
			if sink.snaps[c] == nil {
				continue
			}
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

// TestRecoverySnapshotsSurviveWarmRetire: under RecoveryCrashes a primary
// scenario's recovery sink snapshots its recovery execution, whose store
// arena the snapshots borrow, and its post-crash image, whose candidate
// lists live in the primary's slab. The follow-ups resume from those
// snapshots after the primary retired. The pools are dirtied in between,
// and each follow-up must match its from-scratch twin: the same races, raw
// report count and operation counts.
func TestRecoverySnapshotsSurviveWarmRetire(t *testing.T) {
	// Empty pools and one P keep them last-in first-out, so the dirtying
	// run draws exactly what the primary retired.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	runtime.GC()
	runtime.GC()
	opts := Options{Mode: ModelCheck, Prefix: true, RecoveryCrashes: 3, Workers: 1}.withDefaults()
	probe := newScenario(recoveryWriter, opts, plan{}, PersistLatest, opts.Seed)
	sink := newSnapshotSink(0, opts.MaxCrashPoints)
	sink.configureProbe(opts, probe.det)
	probe.capture = sink
	probe.runPreCrash()
	n := probe.crashPoints[0]
	probe.retire()
	// summary renders the follow-up's reports, operation counts and every
	// store record it can read, clocks aside (their arena refs are
	// positional and differ between a resume and a scratch run).
	summary := func(sc *scenario) string {
		st := sc.stats
		st.ZeroCost()
		s := fmt.Sprintf("%s raw=%d %+v\n", sc.det.Report(), sc.det.Report().RawCount, st)
		for _, e := range sc.det.Executions() {
			for _, a := range e.StoredAddrs() {
				for _, r := range e.History(a) {
					s += fmt.Sprintf("%d:%d/%d=%d@%d.%d %v%v;", e.ID, r.Addr, r.Size, r.Val, r.TID, r.Seq, r.Atomic, r.Release)
				}
			}
		}
		sc.retire()
		return s
	}
	followUps := 0
	for c := 0; c <= n; c++ {
		recSink := newSnapshotSink(1, opts.RecoveryCrashes)
		primary := runPlanned(recoveryWriter, opts, sink.snaps[c], plan{0: c}, PersistLatest, opts.Seed, func(sc *scenario) {
			sc.capture = recSink
		})
		m := min(primary.crashPoints[1], opts.RecoveryCrashes)
		newSpecResult(scenarioSpec{}, opts).absorb(primary)
		for rc := 1; rc <= m; rc++ {
			// Another program, so what the pooled state is overwritten with
			// differs from what the snapshots hold.
			other, _ := fuzzprog.Generate(fuzzprog.Default(), int64(c+rc))
			Run(other, Options{Mode: RandomMode, Prefix: true, Seed: int64(rc), Executions: 8, Workers: 1})
			p := plan{0: c, 1: rc}
			got := summary(runPlanned(recoveryWriter, opts, recSink.snaps[rc], p, PersistLatest, opts.Seed, nil))
			want := summary(runPlanned(recoveryWriter, opts, nil, p, PersistLatest, opts.Seed, nil))
			if got != want {
				t.Fatalf("crash %d, recovery crash %d: resumed follow-up differs from scratch:\n%s\nvs\n%s", c, rc, got, want)
			}
			followUps++
		}
	}
	if followUps == 0 {
		t.Fatal("no recovery snapshot resumed")
	}
}
