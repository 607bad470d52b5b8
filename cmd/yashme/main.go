// Command yashme runs the persistency-race detector over any of the
// reproduced benchmarks, mirroring the paper's tooling: model-checking mode
// injects a crash before every flush/fence point; random mode explores
// seeded random executions with random crash points (§4, §7.1).
//
// Usage:
//
//	yashme -list
//	yashme -bench CCEH
//	yashme -bench Memcached -mode random -executions 40 -seed 7
//	yashme -bench Fast_Fair -prefix=false        # Table 5 baseline
//	yashme -bench Redis -benign                  # include benign races
//	yashme -bench CCEH -workers 1                # sequential (identical results)
//	yashme -file prog.ym -witness                # check a script (internal/script format)
//	yashme -tags table3 -json                    # suite mode: paper-mode sweep over a tag set
//	yashme -tags table4 -shard 1/2 -json         # one deterministic shard of it
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"yashme/internal/cliutil"
	"yashme/internal/engine"
	"yashme/internal/script"
	"yashme/internal/suite"
	"yashme/internal/workload"

	// Link every built-in benchmark's registration.
	_ "yashme/internal/workload/all"
)

// main delegates to run so deferred profile writers fire before exit.
func main() { os.Exit(run()) }

func run() int {
	var (
		list       = flag.Bool("list", false, "list available benchmarks and exit")
		bench      = flag.String("bench", "", "benchmark to check (see -list)")
		file       = flag.String("file", "", "check a user-written PM program script instead of a benchmark (see internal/script)")
		mode       = flag.String("mode", "", "model | random (default: the paper's mode for the benchmark)")
		prefix     = flag.Bool("prefix", true, "enable prefix-based detection-window expansion (§4.2)")
		seed       = flag.Int64("seed", 1, "scheduler / crash-point seed")
		executions = flag.Int("executions", 20, "random-mode executions")
		maxPoints  = flag.Int("max-crash-points", 0, "cap model-check crash points (0 = all)")
		benign     = flag.Bool("benign", false, "also print benign (checksum-guarded) races")
		jaaru      = flag.Bool("jaaru", false, "detector off: run the bare checking infrastructure")
		witness    = flag.Bool("witness", false, "record executions and print a witness per race (§5.1)")
		eadr       = flag.Bool("eadr", false, "detect only races possible on eADR platforms (§7.5)")
		suppress   = flag.String("suppress", "", "comma-separated field labels whose races are annotated away (§7.5)")
		schedules  = flag.Int("schedules", 1, "model-check: number of distinct thread schedules to explore")
		reads      = flag.Bool("explore-reads", false, "model-check: explore per-line persist-point read choices (Jaaru-style)")
		maxOps     = flag.Int("maxops", 0, "per-execution simulated-operation bound (0 = engine default)")
	)
	shared := cliutil.Register()
	flag.Parse()

	stop, err := shared.StartProfiles("yashme")
	if err != nil {
		fmt.Fprintf(os.Stderr, "yashme: %v\n", err)
		return 2
	}
	defer stop()

	// SIGINT/SIGTERM and -timeout cancel the run at the next scenario
	// boundary: partial results still print, the exit code says truncated.
	ctx, cancelRun := shared.RunContext()
	defer cancelRun()

	specs := workload.All()
	if *file != "" {
		src, err := os.ReadFile(*file)
		if err != nil {
			fmt.Fprintf(os.Stderr, "yashme: %v\n", err)
			return 2
		}
		parsed, err := script.Parse(string(src))
		if err != nil {
			fmt.Fprintf(os.Stderr, "yashme: %v\n", err)
			return 2
		}
		specs = []workload.Spec{{Name: parsed.Name, Make: parsed.MakeProgram(), ModelCheck: true}}
		*bench = parsed.Name
	}
	if *list {
		fmt.Println("available benchmarks:")
		for _, s := range specs {
			m := "random"
			if s.ModelCheck {
				m = "model"
			}
			fmt.Printf("  %-15s (paper mode: %s, tags: %s)\n", s.Name, m, strings.Join(s.Tags, ","))
		}
		return 0
	}

	// Suite mode: -tags/-shard select a registered sweep instead of a
	// single benchmark; the paper-mode race runs execute concurrently under
	// the shared worker budget.
	if *bench == "" && (shared.Tags != "" || shared.Shard != "" || shared.JSON) {
		cfg, err := shared.SuiteConfig()
		if err != nil {
			fmt.Fprintf(os.Stderr, "yashme: %v\n", err)
			return 2
		}
		cfg.Variants = []string{suite.VariantRaces}
		res := suite.RunContext(ctx, cfg)
		if res.Cancelled {
			fmt.Fprintln(os.Stderr, "yashme: run interrupted — results below are partial")
		}
		if shared.JSON {
			out, err := res.JSON()
			if err != nil {
				fmt.Fprintf(os.Stderr, "yashme: %v\n", err)
				return 2
			}
			os.Stdout.Write(out)
			fmt.Println()
		} else {
			for _, b := range res.Benchmarks {
				if run := b.Run(suite.RunRaces); run != nil {
					fmt.Printf("%-15s %d races, %d executions, %s\n",
						b.Name, run.RaceCount, run.Executions,
						time.Duration(run.ElapsedNs).Round(time.Microsecond))
					for _, a := range run.Analyses {
						fmt.Printf("    %-11s %d races\n", a.Name, a.RaceCount)
					}
				}
			}
			fmt.Printf("total: %d races\n", res.TotalRaces(suite.RunRaces))
		}
		if res.Cancelled {
			return 3
		}
		if res.TotalRaces(suite.RunRaces) > 0 {
			return 1
		}
		return 0
	}

	var spec *workload.Spec
	for i := range specs {
		if specs[i].Name == *bench {
			spec = &specs[i]
			break
		}
	}
	if spec == nil {
		fmt.Fprintf(os.Stderr, "yashme: unknown benchmark %q (use -list)\n", *bench)
		return 2
	}

	opts := engine.Options{
		Prefix:         *prefix,
		Seed:           *seed,
		Executions:     *executions,
		MaxCrashPoints: *maxPoints,
		DetectorOff:    *jaaru,
		Trace:          *witness,
		EADR:           *eadr,
		Schedules:      *schedules,
		ExploreReads:   *reads,
		MaxOps:         *maxOps,
	}
	shared.EngineOptions(&opts)
	if *suppress != "" {
		opts.Suppress = strings.Split(*suppress, ",")
	}
	switch {
	case *mode == "model" || (*mode == "" && spec.ModelCheck):
		opts.Mode = engine.ModelCheck
	case *mode == "random" || *mode == "":
		opts.Mode = engine.RandomMode
	default:
		fmt.Fprintf(os.Stderr, "yashme: unknown mode %q\n", *mode)
		return 2
	}

	start := time.Now()
	res := engine.RunContext(ctx, spec.Make, opts)
	elapsed := time.Since(start)

	if res.Cancelled {
		fmt.Fprintln(os.Stderr, "yashme: run interrupted — results below are partial")
	}
	fmt.Printf("benchmark %s, mode %s, prefix=%v: %d executions, %d crash points, %s\n",
		spec.Name, opts.Mode, *prefix, res.ExecutionsRun, res.CrashPoints, elapsed.Round(time.Microsecond))
	fmt.Printf("ops: %d stores, %d loads, %d flushes, %d fences, %d RMWs\n",
		res.Stats.Stores, res.Stats.Loads, res.Stats.Flushes, res.Stats.Fences, res.Stats.RMWs)
	races := res.Report.Races()
	fmt.Printf("persistency races: %d\n", len(races))
	for _, r := range races {
		fmt.Printf("  %s\n", r)
		if *witness && r.Witness != "" {
			for _, line := range strings.Split(strings.TrimRight(r.Witness, "\n"), "\n") {
				fmt.Printf("    %s\n", line)
			}
		}
	}
	// With a stacked -analyses selection, the primary pass's report is the
	// main listing above; the extra passes get their own sections.
	total := len(races)
	if len(res.Passes) > 1 {
		for _, p := range res.Passes[1:] {
			fmt.Printf("%s races: %d\n", p.Name, p.Report.Count())
			for _, r := range p.Report.Races() {
				fmt.Printf("  %s\n", r)
			}
			total += p.Report.Count()
		}
	}
	if *benign {
		fmt.Printf("benign (checksum-guarded) races: %d\n", res.Report.BenignCount())
		for _, r := range res.Report.Benign() {
			fmt.Printf("  %s\n", r)
		}
	}
	if res.Cancelled {
		return 3
	}
	if total > 0 {
		return 1
	}
	return 0
}
