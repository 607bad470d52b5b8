// Command yashme-tables regenerates the paper's evaluation artifacts from
// the live system: Table 2a/2b (compiler store-optimization study), Table 3
// (RECIPE/CCEH/FAST_FAIR races), Table 4 (PMDK/Memcached/Redis races),
// Table 5 (prefix vs. baseline on single executions plus Yashme-vs-Jaaru
// runtimes) and the §7.5 benign-race inventory. The detector runs happen
// once, up front, through internal/suite — concurrently under a shared
// worker budget — and every table is rendered from that one result.
//
// Usage:
//
//	yashme-tables                     # everything
//	yashme-tables -table 5            # one table: 2a, 2b, 3, 4, 5, window, bugs, benign, xfd
//	yashme-tables -table xfd          # Yashme vs XFDetector from one stacked run (-analyses yashme,xfd)
//	yashme-tables -json               # the unified suite result as JSON
//	yashme-tables -json -shard 1/2    # one deterministic shard (CI matrix)
//	yashme-tables -tags table3,pmdk   # restrict the suite by workload tags
package main

import (
	"flag"
	"fmt"
	"os"

	"yashme/internal/cliutil"
	"yashme/internal/suite"
	"yashme/internal/tables"
	"yashme/internal/workload"
)

// main delegates to run so deferred profile writers fire before exit.
func main() { os.Exit(run()) }

// tableSelection maps a -table value to the workload tags and variant
// groups its rendering needs, so narrow invocations only run the engine
// work they print.
var tableSelection = map[string]struct {
	tags     []string
	variants []string
}{
	"2a":     {nil, []string{}},
	"2b":     {nil, []string{}},
	"3":      {[]string{workload.TagTable3}, []string{suite.VariantRaces}},
	"4":      {[]string{workload.TagTable4}, []string{suite.VariantRaces}},
	"5":      {[]string{workload.TagTable5}, []string{suite.VariantTable5}},
	"window": {[]string{workload.TagWindow}, []string{suite.VariantRaces, suite.VariantWindow}},
	"bugs":   {[]string{workload.TagTable3, workload.TagTable4}, []string{suite.VariantRaces}},
	"benign": {[]string{workload.TagBenign}, []string{suite.VariantBenign}},
	"xfd":    {[]string{workload.TagXFD}, []string{suite.VariantRaces}},
	"all":    {nil, nil},
}

func run() int {
	which := flag.String("table", "all", "table to print: 2a | 2b | 3 | 4 | 5 | window | bugs | benign | xfd | all")
	format := flag.String("format", "text", "output format: text | markdown (2b, 3, 4 and 5 only)")
	seq := flag.Bool("seq", false, "run benchmarks sequentially (identical results; per-run timings don't overlap)")
	shared := cliutil.Register()
	flag.Parse()
	md := *format == "markdown"

	sel, ok := tableSelection[*which]
	if !ok {
		fmt.Fprintf(os.Stderr, "yashme-tables: unknown table %q\n", *which)
		return 2
	}
	cfg, err := shared.SuiteConfig()
	if err != nil {
		fmt.Fprintf(os.Stderr, "yashme-tables: %v\n", err)
		return 2
	}
	cfg.Sequential = *seq
	if cfg.Tags == nil {
		cfg.Tags = sel.tags
	}
	cfg.Variants = sel.variants
	// The comparison table needs both detectors in the stack; default the
	// pass selection for it unless -analyses chose explicitly.
	if *which == "xfd" && len(cfg.Analyses) == 0 {
		cfg.Analyses = []string{"yashme", "xfd"}
	}

	stop, err := shared.StartProfiles("yashme-tables")
	if err != nil {
		fmt.Fprintf(os.Stderr, "yashme-tables: %v\n", err)
		return 2
	}
	defer stop()

	// SIGINT/SIGTERM and -timeout cancel the suite at the next scenario
	// boundary; the tables below then render the partial result.
	ctx, cancelRun := shared.RunContext()
	defer cancelRun()

	// Tables 2a/2b are compiler-study renderings: their selection has a
	// non-nil empty variant list, meaning no detector runs at all.
	res := &suite.Result{}
	if sel.variants == nil || len(sel.variants) > 0 {
		res = suite.RunContext(ctx, cfg)
	}
	if res.Cancelled {
		fmt.Fprintln(os.Stderr, "yashme-tables: run interrupted — output below is partial")
	}

	if shared.JSON {
		out, err := res.JSON()
		if err != nil {
			fmt.Fprintf(os.Stderr, "yashme-tables: %v\n", err)
			return 2
		}
		os.Stdout.Write(out)
		fmt.Println()
		if res.Cancelled {
			return 3
		}
		return 0
	}

	emit := func(name string) bool { return *which == "all" || *which == name }

	if emit("2a") {
		fmt.Println("=== Table 2a: compiler store optimizations ===")
		fmt.Print(tables.Table2aText())
		fmt.Println()
	}
	if emit("2b") {
		fmt.Println("=== Table 2b: memory operations, source vs generated code (clang -O3, x86-64 model) ===")
		if md {
			fmt.Print(tables.Table2bMarkdown())
		} else {
			fmt.Print(tables.Table2bText())
		}
		fmt.Println()
	}
	if emit("3") {
		fmt.Println("=== Table 3: races in CCEH, FAST_FAIR and RECIPE (model-checking mode) ===")
		if md {
			fmt.Print(tables.RaceRowsMarkdown(tables.Table3(res)))
		} else {
			fmt.Print(tables.RaceRowsText(tables.Table3(res)))
		}
		fmt.Println()
	}
	if emit("4") {
		fmt.Println("=== Table 4: races in PMDK, Redis and Memcached (random mode) ===")
		if md {
			fmt.Print(tables.RaceRowsMarkdown(tables.Table4(res)))
		} else {
			fmt.Print(tables.RaceRowsText(tables.Table4(res)))
		}
		fmt.Println()
	}
	if emit("5") {
		fmt.Println("=== Table 5: prefix vs baseline, single execution; Yashme vs Jaaru time ===")
		if md {
			fmt.Print(tables.Table5Markdown(tables.Table5(res)))
		} else {
			fmt.Print(tables.Table5Text(tables.Table5(res)))
		}
		fmt.Println()
	}
	if emit("window") {
		fmt.Println("=== E9: detection-window histogram (Figures 5b/6, quantified) ===")
		fmt.Print(tables.WindowText(res, "CCEH"))
		fmt.Println()
	}
	if emit("bugs") {
		fmt.Println("=== Artifact appendix (Figs. 11-12): bug index with implementation sites ===")
		fmt.Print(tables.BugIndexText(res))
		fmt.Println()
	}
	if emit("xfd") {
		// In -table all the suite ran the default yashme-only stack, so the
		// comparison has no per-pass rows to render; it only prints when the
		// run actually stacked both detectors.
		if rows := tables.Comparison(res); len(rows) > 0 || *which == "xfd" {
			fmt.Println("=== E23: Yashme vs XFDetector, one simulation (§1/§8) ===")
			if md {
				fmt.Print(tables.ComparisonMarkdown(rows))
			} else {
				fmt.Print(tables.ComparisonText(rows))
			}
			fmt.Println()
		}
	}
	if emit("benign") {
		fmt.Println("=== §7.5: benign checksum-guarded races ===")
		fmt.Print(tables.BenignText(tables.BenignRaces(res)))
	}
	if res.Cancelled {
		return 3
	}
	return 0
}
