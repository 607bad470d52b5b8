package suite

import (
	"bytes"
	"context"
	"sort"
	"testing"

	"yashme/internal/workload"
)

// smallCfg is a fast cross-section of the registry: two model-checked
// indexes, a PMDK example and Redis, through the single-execution Table 5
// variant (three engine runs each).
func smallCfg() Config {
	return Config{
		Names:    []string{"CCEH", "P-ART", "Btree", "Redis"},
		Variants: []string{VariantTable5},
	}
}

// merge reassembles shard results into one: benchmarks are concatenated
// and re-sorted into paper order, and the shard marker is cleared so the
// merged result's Canonical JSON is byte-identical to an unsharded run of
// the same selection.
func merge(parts ...*Result) *Result {
	merged := &Result{}
	for i, p := range parts {
		if i == 0 {
			merged.Config = p.Config
			merged.Config.Shard = ""
		}
		merged.Benchmarks = append(merged.Benchmarks, p.Benchmarks...)
	}
	sort.SliceStable(merged.Benchmarks, func(i, j int) bool {
		a, b := &merged.Benchmarks[i], &merged.Benchmarks[j]
		if a.Order != b.Order {
			return a.Order < b.Order
		}
		return a.Name < b.Name
	})
	return merged
}

func canonicalJSON(t *testing.T, r *Result) []byte {
	t.Helper()
	data, err := r.Canonical().JSON()
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	return data
}

// Concurrent and sequential suite runs must be byte-identical after
// Canonical strips wall-clock fields.
func TestSuiteDeterminism(t *testing.T) {
	par := RunContext(context.Background(), smallCfg())
	cfg := smallCfg()
	cfg.Sequential = true
	seq := RunContext(context.Background(), cfg)
	pj, sj := canonicalJSON(t, par), canonicalJSON(t, seq)
	if !bytes.Equal(pj, sj) {
		t.Fatalf("parallel != sequential canonical JSON:\n%s\nvs\n%s", pj, sj)
	}
}

// The union of the shards, merged, must be byte-identical to the unsharded
// run of the same selection.
func TestSuiteShardsReassemble(t *testing.T) {
	full := RunContext(context.Background(), smallCfg())
	var parts []*Result
	benches := 0
	for shard := 1; shard <= 2; shard++ {
		cfg := smallCfg()
		cfg.Shard, cfg.ShardCount = shard, 2
		part := RunContext(context.Background(), cfg)
		if part.Config.Shard == "" {
			t.Fatalf("shard %d: result not marked", shard)
		}
		benches += len(part.Benchmarks)
		parts = append(parts, part)
	}
	if benches != len(full.Benchmarks) {
		t.Fatalf("shards cover %d benchmarks, full run has %d", benches, len(full.Benchmarks))
	}
	merged := merge(parts...)
	mj, fj := canonicalJSON(t, merged), canonicalJSON(t, full)
	if !bytes.Equal(mj, fj) {
		t.Fatalf("merged shards != full run canonical JSON:\n%s\nvs\n%s", mj, fj)
	}
}

// Shard assignment is a pure function of the name: it never moves when
// other specs come or go, and every registered spec lands in exactly one
// shard.
func TestShardPartition(t *testing.T) {
	for _, n := range []int{2, 3, 5} {
		seen := map[string]int{}
		for shard := 1; shard <= n; shard++ {
			for _, s := range (Config{Shard: shard, ShardCount: n}).selected() {
				if prev, dup := seen[s.Name]; dup {
					t.Fatalf("n=%d: %s in shards %d and %d", n, s.Name, prev, shard)
				}
				seen[s.Name] = shard
			}
		}
		if len(seen) != len(workload.All()) {
			t.Fatalf("n=%d: shards cover %d specs, registry has %d", n, len(seen), len(workload.All()))
		}
	}
}

func TestParseShard(t *testing.T) {
	if s, n, err := ParseShard("2/3"); err != nil || s != 2 || n != 3 {
		t.Fatalf("ParseShard(2/3) = %d, %d, %v", s, n, err)
	}
	if s, n, err := ParseShard(""); err != nil || s != 0 || n != 0 {
		t.Fatalf("ParseShard(\"\") = %d, %d, %v", s, n, err)
	}
	for _, bad := range []string{"3/2", "0/2", "x/2", "2", "1/0", "-1/2"} {
		if _, _, err := ParseShard(bad); err == nil {
			t.Errorf("ParseShard(%q): no error", bad)
		}
	}
}

// The variant groups translate tags into exactly the paper's runs.
func TestJobsForVariants(t *testing.T) {
	cceh, _ := workload.Lookup("CCEH")
	names := func(jobs []job) []string {
		var out []string
		for _, j := range jobs {
			out = append(out, j.variant)
		}
		return out
	}
	got := names(jobsFor(cceh, variantGroups))
	want := []string{RunRaces, RunTable5Prefix, RunTable5Baseline, RunTable5Jaaru, RunWindow}
	if len(got) != len(want) {
		t.Fatalf("CCEH jobs = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("CCEH jobs = %v, want %v", got, want)
		}
	}
	redis, _ := workload.Lookup("Redis")
	got = names(jobsFor(redis, []string{VariantRaces}))
	if len(got) != 1 || got[0] != RunRaces {
		t.Fatalf("Redis races jobs = %v, want [races]", got)
	}
	if jobs := jobsFor(redis, []string{VariantWindow}); len(jobs) != 0 {
		t.Fatalf("Redis window jobs = %v, want none", names(jobs))
	}
}

// A selected-but-empty shard still yields a mergeable empty result.
func TestEmptySelection(t *testing.T) {
	res := RunContext(context.Background(), Config{Names: []string{"no-such-benchmark"}})
	if len(res.Benchmarks) != 0 {
		t.Fatalf("benchmarks = %d, want 0", len(res.Benchmarks))
	}
	if merged := merge(res); len(merged.Benchmarks) != 0 {
		t.Fatalf("merged benchmarks = %d, want 0", len(merged.Benchmarks))
	}
}
