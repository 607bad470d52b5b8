package main

import (
	"bytes"
	"fmt"
	"slices"

	"yashme/internal/engine"
	"yashme/internal/suite"
	"yashme/internal/workload"
)

// paperCounts are the published race counts of the races run of every
// benchmark the workloads use: Table 3 (19 in all) and Table 4 (5 in all).
var paperCounts = map[string]int{
	"CCEH": 2, "Fast_Fair": 6, "P-ART": 7, "P-BwTree": 1, "P-CLHT": 0, "P-Masstree": 3,
	"Memcached": 4, "PMDK": 1, "Redis": 0,
}

// expectation is what every op's verdict must match.
type expectation struct {
	// counts is the race count of each benchmark's races run.
	counts map[string]int
	// fields is each benchmark's set of racing fields, taken from the
	// reference op (nil until then).
	fields map[string][]string
}

func newExpectation(override map[string]int) *expectation {
	counts := paperCounts
	if override != nil {
		counts = override
	}
	return &expectation{counts: counts}
}

// learn records a reference result's racing fields, which every later op
// must reproduce, and returns the reference's own verdict. A wrong
// reference does not stop the run: every op checked against it fails too,
// and fail_frac shows it.
func (e *expectation) learn(res *suite.Result) error {
	if e.fields == nil {
		e.fields = make(map[string][]string)
	}
	for _, b := range res.Benchmarks {
		if run := b.Run(suite.RunRaces); run != nil {
			e.fields[b.Name] = raceFields(run)
		}
	}
	return e.check(res, len(res.Benchmarks))
}

// check verifies a result of want benchmarks: complete, every benchmark
// known, each races run with the expected count and field set.
func (e *expectation) check(res *suite.Result, want int) error {
	if res.Cancelled {
		return fmt.Errorf("result cancelled")
	}
	if len(res.Benchmarks) != want {
		return fmt.Errorf("%d benchmarks, want %d", len(res.Benchmarks), want)
	}
	for _, b := range res.Benchmarks {
		n, ok := e.counts[b.Name]
		if !ok {
			return fmt.Errorf("unexpected benchmark %q", b.Name)
		}
		run := b.Run(suite.RunRaces)
		if run == nil {
			return fmt.Errorf("%s: no races run", b.Name)
		}
		if run.RaceCount != n || len(run.Races) != n {
			return fmt.Errorf("%s: %d races, want %d", b.Name, run.RaceCount, n)
		}
		if f, ok := e.fields[b.Name]; ok && !slices.Equal(raceFields(run), f) {
			return fmt.Errorf("%s: racing fields %v, want %v", b.Name, raceFields(run), f)
		}
	}
	return nil
}

// checkBytes additionally requires byte-identical Canonical JSON.
func checkBytes(got, want []byte) error {
	if !bytes.Equal(got, want) {
		return fmt.Errorf("canonical JSON differs from the reference (%d vs %d bytes)", len(got), len(want))
	}
	return nil
}

func raceFields(run *suite.RunResult) []string {
	out := make([]string, len(run.Races))
	for i, r := range run.Races {
		out[i] = r.Field
	}
	slices.Sort(out)
	return out
}

// paperOptions mirrors the engine options the suite gives a benchmark's
// races run (internal/suite jobsFor): model checking for Table 3, 40
// seeded random executions for Table 4. The detector companion pass
// calls the engine directly with them, once as is and once DetectorOff.
func paperOptions(spec workload.Spec, seed int64) engine.Options {
	if spec.HasTag(workload.TagTable3) {
		return engine.Options{Mode: engine.ModelCheck, Prefix: true}
	}
	return engine.Options{Mode: engine.RandomMode, Prefix: true, Seed: seed, Executions: 40}
}
