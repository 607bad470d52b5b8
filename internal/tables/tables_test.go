package tables

import (
	"context"
	"strings"
	"sync"
	"testing"

	"yashme/internal/suite"
)

// The detector-derived tables all render from one suite result; run the
// full default suite exactly once and share it across tests.
var (
	suiteOnce sync.Once
	suiteRes  *suite.Result
)

func fullSuite() *suite.Result {
	suiteOnce.Do(func() { suiteRes = suite.RunContext(context.Background(), suite.Config{}) })
	return suiteRes
}

// Table 3 must reproduce all 19 rows with the paper's benchmark/field
// attribution.
func TestTable3MatchesPaper(t *testing.T) {
	rows := Table3(fullSuite())
	if len(rows) != 19 {
		t.Fatalf("Table 3 rows = %d, want 19\n%s", len(rows), RaceRowsText(rows))
	}
	perBench := map[string]int{}
	for _, r := range rows {
		perBench[r.Benchmark]++
	}
	want := map[string]int{
		"CCEH": 2, "Fast_Fair": 6, "P-ART": 7, "P-BwTree": 1, "P-CLHT": 0, "P-Masstree": 3,
	}
	for b, n := range want {
		if perBench[b] != n {
			t.Errorf("%s: %d races, paper reports %d", b, perBench[b], n)
		}
	}
}

// Table 4 must reproduce the 5 framework races: 1 PMDK + 4 Memcached,
// 0 Redis.
func TestTable4MatchesPaper(t *testing.T) {
	rows := Table4(fullSuite())
	if len(rows) != 5 {
		t.Fatalf("Table 4 rows = %d, want 5\n%s", len(rows), RaceRowsText(rows))
	}
	perBench := map[string]int{}
	for _, r := range rows {
		perBench[r.Benchmark]++
	}
	if perBench["PMDK"] != 1 || perBench["Memcached"] != 4 || perBench["Redis"] != 0 {
		t.Fatalf("Table 4 distribution = %v, want PMDK:1 Memcached:4 Redis:0", perBench)
	}
}

// Table 5 single executions must reproduce the published prefix/baseline
// counts with the calibrated seeds, and the totals must show the prefix
// advantage (13 vs 3).
func TestTable5MatchesPaper(t *testing.T) {
	rows := Table5(fullSuite())
	if len(rows) != 13 {
		t.Fatalf("Table 5 rows = %d, want 13", len(rows))
	}
	totalP, totalB := 0, 0
	for _, r := range rows {
		if r.Prefix != r.PaperPrefix || r.Baseline != r.PaperBaseline {
			t.Errorf("%s: prefix/baseline = %d/%d, paper reports %d/%d",
				r.Benchmark, r.Prefix, r.Baseline, r.PaperPrefix, r.PaperBaseline)
		}
		if r.Prefix < r.Baseline {
			t.Errorf("%s: prefix (%d) found fewer than baseline (%d)", r.Benchmark, r.Prefix, r.Baseline)
		}
		totalP += r.Prefix
		totalB += r.Baseline
	}
	// 15 vs 3 is the paper's "5x more persistency races" claim (§7.3).
	if totalP != 15 || totalB != 3 {
		t.Fatalf("totals = %d vs %d, paper reports 15 vs 3 (5x)", totalP, totalB)
	}
}

// §7.5: exactly 10 deduplicated benign checksum-guarded races.
func TestBenignRacesMatchPaper(t *testing.T) {
	races := BenignRaces(fullSuite())
	if len(races) != 10 {
		t.Fatalf("benign races = %d, want 10:\n%s", len(races), BenignText(races))
	}
}

func TestTextRenderers(t *testing.T) {
	if out := Table2aText(); !strings.Contains(out, "memset") || !strings.Contains(out, "ARM64") {
		t.Errorf("Table2aText missing content:\n%s", out)
	}
	if out := Table2bText(); !strings.Contains(out, "CCEH") || !strings.Contains(out, "33") {
		t.Errorf("Table2bText missing content:\n%s", out)
	}
	rows := []RaceRow{{Index: 1, Benchmark: "X", Field: "f"}}
	if out := RaceRowsText(rows); !strings.Contains(out, "X") {
		t.Errorf("RaceRowsText missing content:\n%s", out)
	}
}

// The artifact bug index covers all 24 bugs and every one is found live.
func TestBugIndexComplete(t *testing.T) {
	idx := BugIndex()
	if len(idx) != 24 {
		t.Fatalf("bug index has %d entries, want 24", len(idx))
	}
	out := BugIndexText(fullSuite())
	if strings.Contains(out, "MISSED") {
		t.Fatalf("bug index reports missed bugs:\n%s", out)
	}
}

// E9: the detection-window histogram separates the modes: prefix reveals
// races at strictly more crash points than the baseline.
func TestWindowHistogramShape(t *testing.T) {
	res := fullSuite()
	out := WindowText(res, "CCEH")
	if !strings.Contains(out, "prefix") || !strings.Contains(out, "baseline") {
		t.Fatalf("window text malformed:\n%s", out)
	}
	bench := res.Bench("CCEH")
	if bench == nil {
		t.Fatal("CCEH missing from suite result")
	}
	p, base := bench.Run(suite.RunRaces), bench.Run(suite.RunWindow)
	if p == nil || base == nil {
		t.Fatal("CCEH suite result lacks races/window runs")
	}
	pPoints, bPoints := 0, 0
	for _, row := range p.Window {
		if row.Races > 0 {
			pPoints++
		}
	}
	for _, row := range base.Window {
		if row.Races > 0 {
			bPoints++
		}
	}
	if pPoints <= bPoints {
		t.Fatalf("prefix reveals races at %d points, baseline at %d — expansion not visible", pPoints, bPoints)
	}
}

func TestMarkdownRenderers(t *testing.T) {
	md := Table2bMarkdown()
	if !strings.Contains(md, "| CCEH | 6 | 33 | 6 | 33 |") {
		t.Fatalf("Table2bMarkdown malformed:\n%s", md)
	}
	rows := []RaceRow{{Index: 1, Benchmark: "X", Field: "f.g"}}
	if out := RaceRowsMarkdown(rows); !strings.Contains(out, "| 1 | X | `f.g` |") {
		t.Fatalf("RaceRowsMarkdown malformed:\n%s", out)
	}
	t5 := Table5Markdown([]Table5Row{{Benchmark: "B", Prefix: 2, Baseline: 1, PaperPrefix: 2, PaperBaseline: 1}})
	if !strings.Contains(t5, "| B | 2 | 1 | 2 | 1 |") || !strings.Contains(t5, "**total**") {
		t.Fatalf("Table5Markdown malformed:\n%s", t5)
	}
}
