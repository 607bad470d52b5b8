// Package cliutil holds the run-configuration flags and pprof plumbing
// shared by cmd/yashme and cmd/yashme-tables, so the two CLIs define the
// workers/timeout/shard/json/tags/analyses/profile surface exactly once
// and cannot drift.
package cliutil

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strings"
	"syscall"
	"time"

	"yashme/internal/engine"
	"yashme/internal/suite"
)

// Flags is the shared flag set, populated by Register and read after
// flag.Parse.
type Flags struct {
	Workers    int
	Timeout    time.Duration
	Shard      string
	JSON       bool
	Tags       string
	Analyses   string
	CPUProfile string
	MemProfile string
}

// Register defines the shared flags on the default flag set and returns
// the struct their values land in.
func Register() *Flags {
	f := &Flags{}
	flag.IntVar(&f.Workers, "workers", 0, "shared scenario-worker budget (0 = GOMAXPROCS, 1 = sequential; results identical)")
	flag.DurationVar(&f.Timeout, "timeout", 0, "wall-clock bound for the whole run (0 = none); on expiry the run stops at the next scenario boundary, prints partial results and exits non-zero")
	flag.StringVar(&f.Shard, "shard", "", "run shard i/n of the suite (deterministic by benchmark name; union of shards == full run)")
	flag.BoolVar(&f.JSON, "json", false, "emit the unified suite result as JSON instead of rendered output")
	flag.StringVar(&f.Tags, "tags", "", "comma-separated workload tags to select (e.g. table3,pmdk; empty = all)")
	flag.StringVar(&f.Analyses, "analyses", "", "comma-separated analysis passes to run over the one simulation (empty = yashme; e.g. yashme,xfd — the first is primary)")
	flag.StringVar(&f.CPUProfile, "cpuprofile", "", "write a CPU profile to this file")
	flag.StringVar(&f.MemProfile, "memprofile", "", "write a heap profile to this file on exit")
	return f
}

// SuiteConfig converts the parsed flags into a suite.Config (selection,
// shard, worker budget and analyses).
func (f *Flags) SuiteConfig() (suite.Config, error) {
	shard, count, err := suite.ParseShard(f.Shard)
	if err != nil {
		return suite.Config{}, err
	}
	cfg := suite.Config{
		Shard:      shard,
		ShardCount: count,
		Workers:    f.Workers,
	}
	if f.Tags != "" {
		cfg.Tags = strings.Split(f.Tags, ",")
	}
	cfg.Analyses = f.AnalysisList()
	return cfg, nil
}

// AnalysisList parses the -analyses flag into a pass list (nil = the
// engine default, yashme alone).
func (f *Flags) AnalysisList() []string {
	if f.Analyses == "" {
		return nil
	}
	return strings.Split(f.Analyses, ",")
}

// EngineOptions applies the shared worker/analysis flags to a single
// engine run's options (cmd/yashme's single-benchmark path).
func (f *Flags) EngineOptions(opts *engine.Options) {
	opts.Workers = f.Workers
	opts.Analyses = f.AnalysisList()
}

// RunContext returns the context a CLI run should execute under: cancelled
// on SIGINT/SIGTERM and, when -timeout is set, on deadline expiry. The
// engine honors it at scenario boundaries, so the run ends promptly with a
// well-formed partial result instead of dying mid-write. The returned stop
// must be deferred; it releases the signal registration (a second signal
// after cancellation kills the process the default way).
func (f *Flags) RunContext() (context.Context, context.CancelFunc) {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	if f.Timeout <= 0 {
		return ctx, stop
	}
	ctx, cancel := context.WithTimeout(ctx, f.Timeout)
	return ctx, func() {
		cancel()
		stop()
	}
}

// StartProfiles starts the CPU profile and arms the heap profile per the
// flags. The returned stop function must run before exit (defer it from a
// run() that the real main delegates to); it is non-nil even when no
// profile was requested.
func (f *Flags) StartProfiles(tool string) (stop func(), err error) {
	var cpu *os.File
	if f.CPUProfile != "" {
		cpu, err = os.Create(f.CPUProfile)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(cpu); err != nil {
			cpu.Close()
			return nil, err
		}
	}
	return func() {
		if cpu != nil {
			pprof.StopCPUProfile()
			cpu.Close()
		}
		if f.MemProfile == "" {
			return
		}
		out, err := os.Create(f.MemProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", tool, err)
			return
		}
		defer out.Close()
		runtime.GC()
		if err := pprof.WriteHeapProfile(out); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", tool, err)
		}
	}, nil
}
