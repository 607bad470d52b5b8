package engine

// Internal tests and benchmarks for the checkpoint layer: delta snapshots
// against full clones, and the cost of one snapshot capture (the
// per-crash-point overhead the O(n) + C·clone bound pays).

import (
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
