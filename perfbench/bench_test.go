package main

import (
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"time"

	"yashme/internal/workload"
)

// heldOutSeed is a seed no measurement used while the benchmark was tuned.
const heldOutSeed = 987654321

func short(t *testing.T, name string, traced bool, expect map[string]int) *outcome {
	t.Helper()
	c := config{workload: name, seed: heldOutSeed, window: 2 * time.Second, traced: traced,
		traceDir: t.TempDir(), expect: expect}
	out, err := workloads[name](c)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	if err := out.complete(defs); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return out
}

// TestHeldOutSeedCorrect runs every workload on a held-out seed: every op
// must pass its verdict check and every end-to-end metric must be non-zero.
func TestHeldOutSeedCorrect(t *testing.T) {
	for name := range workloads {
		t.Run(name, func(t *testing.T) {
			out := short(t, name, false, nil)
			if out.attempted == 0 || out.failed != 0 || out.invalid != "" {
				t.Fatalf("attempted %d, failed %d, invalid %q", out.attempted, out.failed, out.invalid)
			}
			for _, d := range endToEnd {
				if out.metrics[d.name].Value <= 0 {
					t.Errorf("%s = %v, want > 0", d.name, out.metrics[d.name].Value)
				}
			}
		})
	}
}

// TestWrongExpectationFails shows the verdict checks bite: one wrong
// published count makes fail_frac > 0 on every workload.
func TestWrongExpectationFails(t *testing.T) {
	wrong := map[string]int{}
	for k, v := range paperCounts {
		wrong[k] = v
	}
	wrong["P-ART"] = 8 // the paper reports 7
	wrong["Redis"] = 1 // the paper reports 0
	for name := range workloads {
		t.Run(name, func(t *testing.T) {
			out := short(t, name, false, wrong)
			if out.attempted == 0 || out.failed == 0 {
				t.Fatalf("attempted %d, failed %d: want fail_frac > 0", out.attempted, out.failed)
			}
		})
	}
}

// TestTracedRun checks a traced run reports every per-layer metric of the
// layers its workload reaches and writes its spans out.
func TestTracedRun(t *testing.T) {
	reach := map[string][]string{
		"table3-sweep":  {"engine.run_ms.p50", "engine.self_ms.mean", "engine.dedup_ratio", "workload.makes_per_op", "pmm.pre_ms.mean", "pmm.post_ms.mean", "suite.self_ms.mean", "report.json_ms.mean", "vclock.epoch_hit_ratio", "runtime.gc_per_op", "trace.spans"},
		"table4-random": {"engine.run_ms.p50", "engine.simops_per_op", "pmm.pre_ms.mean", "pmm.post_ms.mean", "report.json_kb", "runtime.gc_per_op"},
		"serve-mix":     {"service.post_ms.p50", "service.run_ms.p50", "service.fetch_ms.p50", "service.hit_ms.p50", "service.cold_ms.p50", "service.hit_ratio", "service.jobs_retained", "engine.simops_per_op", "loadgen.late_ms.p90", "trace.spans"},
	}
	for name, want := range reach {
		t.Run(name, func(t *testing.T) {
			out := short(t, name, true, nil)
			if out.failed != 0 {
				t.Fatalf("failed %d of %d", out.failed, out.attempted)
			}
			for _, m := range want {
				if out.metrics[m].Value <= 0 {
					t.Errorf("%s = %v, want > 0", m, out.metrics[m].Value)
				}
			}
			if r := out.metrics["core.detector_rounds"].Value; r < 3 {
				t.Errorf("core.detector_rounds = %v, want >= 3", r)
			}
		})
	}
	// Spans go to --trace-dir as JSON lines.
	dir := t.TempDir()
	c := config{workload: "table3-sweep", seed: 1, window: time.Second, traced: true, traceDir: dir}
	if _, err := runBatch(c, batchTable3); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(dir, "table3-sweep-seed1.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	layers := map[string]bool{}
	for _, line := range splitLines(raw) {
		var s span
		if err := json.Unmarshal(line, &s); err != nil {
			t.Fatal(err)
		}
		layers[s.Layer] = true
	}
	for _, l := range []string{"op", "engine.run", "workload.make", "pmm.setup", "pmm.pre", "pmm.post", "report.json"} {
		if !layers[l] {
			t.Errorf("no %s span written", l)
		}
	}
}

func splitLines(b []byte) [][]byte {
	var out [][]byte
	for len(b) > 0 {
		i := 0
		for i < len(b) && b[i] != '\n' {
			i++
		}
		if i > 0 {
			out = append(out, b[:i])
		}
		if i < len(b) {
			i++
		}
		b = b[i:]
	}
	return out
}

// TestScheduleFromSeed checks the serve-mix schedule is a function of the
// seed, has exactly rate × window arrivals inside the window, and keeps
// the mix proportions exact per block.
func TestScheduleFromSeed(t *testing.T) {
	t3, t4 := workload.Tagged(workload.TagTable3), workload.Tagged(workload.TagTable4)
	var primedSet []primed
	for _, s := range append(append([]workload.Spec(nil), t3...), t4...) {
		primedSet = append(primedSet, primed{name: s.Name, body: requestBody(s.Name, 0)})
	}
	window := 3 * time.Second
	a := schedule(rand.New(rand.NewSource(7)), window, primedSet, t3, t4)
	b := schedule(rand.New(rand.NewSource(7)), window, primedSet, t3, t4)
	c := schedule(rand.New(rand.NewSource(8)), window, primedSet, t3, t4)
	if len(a) != int(serveRate*window.Seconds()) {
		t.Fatalf("%d arrivals, want %d", len(a), int(serveRate*window.Seconds()))
	}
	same, differs := true, false
	for i := range a {
		same = same && a[i].due == b[i].due && string(a[i].body) == string(b[i].body)
		differs = differs || a[i].due != c[i].due
		if a[i].due < 0 || a[i].due > window || (i > 0 && a[i].due < a[i-1].due) {
			t.Fatalf("arrival %d due %v out of order or outside the window", i, a[i].due)
		}
	}
	if !same || !differs {
		t.Fatalf("same seed same schedule: %v; other seed differs: %v", same, differs)
	}
	for start := 0; start+mixBlock <= len(a); start += mixBlock {
		n := [3]int{}
		for _, x := range a[start : start+mixBlock] {
			n[x.kind]++
		}
		if n != [3]int{hitsPerBlock, t3PerBlock, mixBlock - hitsPerBlock - t3PerBlock} {
			t.Fatalf("block at %d has kinds %v", start, n)
		}
	}
}

// TestBenchmarkJSONMatches checks BENCHMARK.json declares exactly the
// metrics the program reports, with the same units.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, program reports %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s/%s, program %s/%s", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd)
	check("per_layer", b.PerLayer, perLayer)
	for _, w := range b.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %s in BENCHMARK.json is not implemented", w.Name)
		}
	}
	if len(b.Workloads) != len(workloads) {
		t.Errorf("%d workloads in BENCHMARK.json, %d implemented", len(b.Workloads), len(workloads))
	}
}

func TestQuantileAndCovered(t *testing.T) {
	xs := make([]float64, 0, 1001)
	for i := 1000; i >= 0; i-- {
		xs = append(xs, float64(i))
	}
	if q := quantile(xs, 0.5); q < 499.9 || q > 500.1 {
		t.Errorf("median of 0..1000 = %v", q)
	}
	if q := quantile([]float64{4}, 0.9); q != 4 {
		t.Errorf("p90 of one value = %v", q)
	}
	spans := []span{{Start: 0, End: 10}, {Start: 5, End: 15}, {Start: 20, End: 30}, {Start: 40, End: 50}}
	if got := covered(spans, 2, 45); got != 13+10+5 {
		t.Errorf("covered = %v, want 28", got)
	}
}

// TestProbeDoesNotAllocate checks the host probe's kernel allocates
// nothing, so it causes no GC work in the measured process.
func TestProbeDoesNotAllocate(t *testing.T) {
	m := make(map[int]int, probeKeys)
	if n := testing.AllocsPerRun(20, func() { probeKernel(m) }); n != 0 {
		t.Fatalf("probe kernel allocates %v times per run", n)
	}
}
