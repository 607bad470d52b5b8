// Command benchguard is the CI perf canary for the suite's Table 3 sweep:
// it compares a freshly generated BENCH_suite.json against the committed
// baseline and exits non-zero if correctness or performance regressed.
//
//	go test -run xxx -bench BenchmarkSuiteTable3 .
//	go run ./cmd/benchguard -baseline <committed>.json -fresh BENCH_suite.json
//
// The artifact has three modes: "on" (the default configuration),
// "reference" (every engine fast path off) and "stacked" (the default
// configuration with the yashme,xfd analysis stack). The checks:
//
//   - every mode of the fresh artifact must report exactly 19 races — the
//     paper's Table 3 row count. A drift in either direction means a
//     detector or equivalence bug, not noise. The per-benchmark breakdown
//     the suite layer emits is printed alongside so a drift names its
//     benchmark immediately;
//   - the stacked mode (analysis stack yashme,xfd over the one simulation)
//     must additionally report exactly -xfd-races cross-failure races: the
//     19-race gate proves the extra pass didn't perturb the primary
//     detector, this one pins the extra pass's own output;
//   - every mode but the reference must report deduped_scenarios > 0:
//     crash-image memoization going inert is a silent perf regression the
//     wall-clock bar would not catch (-require-dedup=false to waive);
//   - every mode but the reference must report epoch_hits > 0: the
//     detector's O(1) epoch fast path going inert silently degrades every
//     happens-before check to a vector walk (-require-epoch=false to
//     waive);
//   - the reference mode must report deduped_scenarios, epoch_hits and
//     direct_ops of exactly 0: an oracle that takes a fast path validates
//     nothing;
//   - for every mode present in both artifacts, fresh ns_per_op must not
//     exceed the baseline by more than -tolerance (default 25%). CI runners
//     are noisy, so the bar is deliberately loose; a real regression from a
//     scheduling or allocation change lands far beyond it;
//   - allocs_per_op and bytes_per_op get the same -tolerance bar. Allocation
//     counts are far less noisy than wall-clock, so these catch a refactor
//     that quietly reintroduces per-resume deep copies;
//   - the per-benchmark allocs_per_op breakdown gets the same bar too: the
//     mode-level number can hide one workload regressing while another
//     improves, and allocation counts are stable enough per benchmark to
//     gate individually;
//   - every mode of the baseline must still exist in the fresh artifact: a
//     mode vanishing from the sweep is a coverage regression, not something
//     to skip silently.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
)

// benchStat mirrors the per-benchmark breakdown of a mode.
type benchStat struct {
	Races            int    `json:"races"`
	XFDRaces         int    `json:"xfd_races"`
	SimulatedOps     int64  `json:"simulated_ops"`
	Handoffs         int64  `json:"handoffs"`
	DirectOps        int64  `json:"direct_ops"`
	SnapshotBytes    int64  `json:"snapshot_bytes"`
	JournalOps       int64  `json:"journal_ops"`
	DedupedScenarios int64  `json:"deduped_scenarios"`
	AllocsPerOp      uint64 `json:"allocs_per_op"`
	BytesPerOp       uint64 `json:"bytes_per_op"`
}

// measurement mirrors the per-mode object of BENCH_suite.json (written by
// BenchmarkSuiteTable3). Unknown fields are ignored so the guard tolerates
// artifact growth.
type measurement struct {
	NsPerOp          int64                 `json:"ns_per_op"`
	ClockInterned    int64                 `json:"clock_interned"`
	EpochHits        int64                 `json:"epoch_hits"`
	EpochMisses      int64                 `json:"epoch_misses"`
	SimulatedOps     int64                 `json:"simulated_ops"`
	Handoffs         int64                 `json:"handoffs"`
	DirectOps        int64                 `json:"direct_ops"`
	SnapshotBytes    int64                 `json:"snapshot_bytes"`
	JournalOps       int64                 `json:"journal_ops"`
	DedupedScenarios int64                 `json:"deduped_scenarios"`
	Races            float64               `json:"races"`
	XFDRaces         float64               `json:"xfd_races"`
	AllocsPerOp      uint64                `json:"allocs_per_op"`
	BytesPerOp       uint64                `json:"bytes_per_op"`
	Benchmarks       map[string]*benchStat `json:"benchmarks"`
}

// referenceMode names the artifact mode that runs with every engine fast
// path off.
const referenceMode = "reference"

type artifact struct {
	Benchmark string                  `json:"benchmark"`
	Modes     map[string]*measurement `json:"modes"`
}

func load(path string) (*artifact, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var a artifact
	if err := json.Unmarshal(data, &a); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(a.Modes) == 0 {
		return nil, fmt.Errorf("%s: no modes in artifact", path)
	}
	return &a, nil
}

// breakdown renders a mode's per-benchmark races as "CCEH:2 Fast_Fair:6 …".
func breakdown(m *measurement) string {
	if len(m.Benchmarks) == 0 {
		return ""
	}
	names := make([]string, 0, len(m.Benchmarks))
	for name := range m.Benchmarks {
		names = append(names, name)
	}
	sort.Strings(names)
	parts := make([]string, 0, len(names))
	for _, name := range names {
		bs := m.Benchmarks[name]
		if m.XFDRaces > 0 {
			parts = append(parts, fmt.Sprintf("%s:%d/x%d", name, bs.Races, bs.XFDRaces))
		} else {
			parts = append(parts, fmt.Sprintf("%s:%d", name, bs.Races))
		}
	}
	return strings.Join(parts, " ")
}

func run() error {
	baselinePath := flag.String("baseline", "", "committed BENCH_suite.json to compare against")
	freshPath := flag.String("fresh", "BENCH_suite.json", "freshly generated artifact")
	wantRaces := flag.Float64("races", 19, "exact race count every mode must report (Table 3)")
	wantXFD := flag.Float64("xfd-races", 33, "exact cross-failure race count the stacked mode must report (0 = don't check)")
	tolerance := flag.Float64("tolerance", 0.25, "allowed fractional ns_per_op / allocs_per_op / bytes_per_op regression vs baseline")
	requireDedup := flag.Bool("require-dedup", true, "every mode but the reference must report deduped_scenarios > 0")
	requireEpoch := flag.Bool("require-epoch", true, "every mode but the reference must report epoch_hits > 0")
	flag.Parse()
	if *baselinePath == "" {
		return fmt.Errorf("-baseline is required")
	}
	baseline, err := load(*baselinePath)
	if err != nil {
		return err
	}
	fresh, err := load(*freshPath)
	if err != nil {
		return err
	}

	var names []string
	for name := range fresh.Modes {
		names = append(names, name)
	}
	sort.Strings(names)

	var failures []string
	for _, name := range names {
		m := fresh.Modes[name]
		if bd := breakdown(m); bd != "" {
			fmt.Printf("mode %-14s races: %s\n", name, bd)
		}
		if m.Races != *wantRaces {
			failures = append(failures, fmt.Sprintf(
				"mode %q: races = %v, want exactly %v", name, m.Races, *wantRaces))
		}
		// The stacked mode runs the yashme+xfd analysis stack over the one
		// simulation: the primary count is gated above (the extra pass must
		// not perturb it), and the cross-failure count is pinned too.
		if name == "stacked" && *wantXFD > 0 && m.XFDRaces != *wantXFD {
			failures = append(failures, fmt.Sprintf(
				"mode %q: xfd_races = %v, want exactly %v", name, m.XFDRaces, *wantXFD))
		}
		if name == referenceMode {
			// The oracle must bypass every fast path it validates.
			if m.DedupedScenarios != 0 || m.EpochHits != 0 || m.DirectOps != 0 {
				failures = append(failures, fmt.Sprintf(
					"mode %q: deduped_scenarios = %d, epoch_hits = %d, direct_ops = %d; want all 0",
					name, m.DedupedScenarios, m.EpochHits, m.DirectOps))
			}
		} else {
			// Crash-image memoization must actually fire; zero skips means
			// the signature layer went inert.
			if *requireDedup && m.DedupedScenarios == 0 {
				failures = append(failures, fmt.Sprintf(
					"mode %q: deduped_scenarios = 0; crash-image memoization is inert", name))
			}
			// The epoch fast path must actually fire; zero hits means every
			// happens-before check fell back to the component-wise vector
			// walk.
			if *requireEpoch && m.EpochHits == 0 {
				failures = append(failures, fmt.Sprintf(
					"mode %q: epoch_hits = 0; the clock-arena epoch fast path is inert", name))
			}
		}
		base, ok := baseline.Modes[name]
		if !ok || base.NsPerOp <= 0 {
			fmt.Printf("mode %-14s %12d ns/op  (no baseline)\n", name, m.NsPerOp)
			continue
		}
		ratio := float64(m.NsPerOp) / float64(base.NsPerOp)
		fmt.Printf("mode %-14s %12d ns/op  baseline %12d  ratio %.3f\n",
			name, m.NsPerOp, base.NsPerOp, ratio)
		if ratio > 1+*tolerance {
			failures = append(failures, fmt.Sprintf(
				"mode %q: ns_per_op regressed %.1f%% (limit %.0f%%): %d -> %d",
				name, (ratio-1)*100, *tolerance*100, base.NsPerOp, m.NsPerOp))
		}
		// Allocation gates: same loose bar as wall-clock. These catch the
		// classic silent regression — a refactor that reintroduces per-resume
		// deep copies — which CI wall-clock noise can absorb.
		if base.AllocsPerOp > 0 && m.AllocsPerOp > 0 {
			r := float64(m.AllocsPerOp) / float64(base.AllocsPerOp)
			fmt.Printf("mode %-14s %12d allocs/op  baseline %12d  ratio %.3f\n",
				name, m.AllocsPerOp, base.AllocsPerOp, r)
			if r > 1+*tolerance {
				failures = append(failures, fmt.Sprintf(
					"mode %q: allocs_per_op regressed %.1f%% (limit %.0f%%): %d -> %d",
					name, (r-1)*100, *tolerance*100, base.AllocsPerOp, m.AllocsPerOp))
			}
		}
		if base.BytesPerOp > 0 && m.BytesPerOp > 0 {
			r := float64(m.BytesPerOp) / float64(base.BytesPerOp)
			fmt.Printf("mode %-14s %12d bytes/op   baseline %12d  ratio %.3f\n",
				name, m.BytesPerOp, base.BytesPerOp, r)
			if r > 1+*tolerance {
				failures = append(failures, fmt.Sprintf(
					"mode %q: bytes_per_op regressed %.1f%% (limit %.0f%%): %d -> %d",
					name, (r-1)*100, *tolerance*100, base.BytesPerOp, m.BytesPerOp))
			}
		}
		// Per-benchmark allocation gate: the mode total can hide one workload
		// regressing while another improves.
		var benchNames []string
		for bn := range m.Benchmarks {
			benchNames = append(benchNames, bn)
		}
		sort.Strings(benchNames)
		for _, bn := range benchNames {
			bs, bb := m.Benchmarks[bn], base.Benchmarks[bn]
			if bb == nil || bb.AllocsPerOp == 0 || bs.AllocsPerOp == 0 {
				continue
			}
			r := float64(bs.AllocsPerOp) / float64(bb.AllocsPerOp)
			if r > 1+*tolerance {
				failures = append(failures, fmt.Sprintf(
					"mode %q benchmark %q: allocs_per_op regressed %.1f%% (limit %.0f%%): %d -> %d",
					name, bn, (r-1)*100, *tolerance*100, bb.AllocsPerOp, bs.AllocsPerOp))
			}
		}
	}
	// The loop above only walks fresh modes, so it can never notice a mode
	// that exists in the baseline but not in the fresh artifact — a
	// benchmark configuration silently dropping out of the sweep is exactly
	// the kind of coverage regression a canary must catch.
	var baseNames []string
	for name := range baseline.Modes {
		baseNames = append(baseNames, name)
	}
	sort.Strings(baseNames)
	for _, name := range baseNames {
		if _, ok := fresh.Modes[name]; !ok {
			failures = append(failures, fmt.Sprintf(
				"mode %q: present in baseline but missing from fresh artifact (benchmark mode vanished)", name))
		}
	}

	if len(failures) > 0 {
		for _, f := range failures {
			fmt.Fprintln(os.Stderr, "FAIL:", f)
		}
		return fmt.Errorf("%d check(s) failed", len(failures))
	}
	fmt.Println("benchguard: all checks passed")
	return nil
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "benchguard:", err)
		os.Exit(1)
	}
}
