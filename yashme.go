// Package yashme is a Go reproduction of "Yashme: Detecting Persistency
// Races" (Gorjiara, Xu, Demsky — ASPLOS 2022).
//
// A persistency race is a new class of crash-consistency bug: a post-crash
// execution reads from a non-atomic pre-crash store that was not persistency
// ordered before the read, so compiler optimizations (store tearing, store
// inventing, memset/memcpy substitution) can leave the value partially
// persistent. Yashme detects these races by simulating the Px86 persistency
// model, injecting crashes, and — crucially — checking races against every
// consistent prefix of the pre-crash execution, which expands the detection
// window far beyond the injected crash point.
//
// This package is the public facade. A workload is a Program: a Setup
// function allocating named persistent objects, pre-crash Workers issuing
// loads/stores/flushes/fences through a Thread, and a PostCrash recovery
// procedure whose loads are checked for races:
//
//	mk := func() yashme.Program {
//		var val yashme.Addr
//		return yashme.Program{
//			Name: "figure1",
//			Setup: func(h *yashme.Heap) {
//				val = h.AllocStruct("pmobj", yashme.Layout{{Name: "val", Size: 8}}).F("val")
//			},
//			Workers: []func(*yashme.Thread){func(t *yashme.Thread) {
//				t.Store64(val, 0x1234567812345678)
//				t.CLFlush(val)
//			}},
//			PostCrash: func(t *yashme.Thread) { t.Load64(val) },
//		}
//	}
//	res := yashme.Run(mk, yashme.Options{Mode: yashme.ModelCheck, Prefix: true})
//	for _, race := range res.Report.Races() {
//		fmt.Println(race)
//	}
//
// The ready-made reproductions of the paper's benchmarks live under
// internal/progs (RECIPE indexes, CCEH, FAST_FAIR), internal/pmdk,
// internal/memcachedpm and internal/redispm, and are runnable through
// cmd/yashme and cmd/yashme-tables.
package yashme

import (
	"yashme/internal/engine"
	"yashme/internal/pmm"
	"yashme/internal/report"
)

// Re-exported program-model types; see internal/pmm for documentation.
type (
	// Program describes one workload (setup, pre-crash workers, recovery).
	Program = pmm.Program
	// Thread is the operation surface workload functions receive.
	Thread = pmm.Thread
	// Heap allocates named persistent objects.
	Heap = pmm.Heap
	// Addr is a simulated persistent-memory byte address.
	Addr = pmm.Addr
	// Layout declares the fields of a persistent struct.
	Layout = pmm.Layout
	// FieldDef is one field of a Layout.
	FieldDef = pmm.FieldDef
	// Struct is a handle to an allocated struct instance.
	Struct = pmm.Struct
	// Array is a handle to an allocated struct array.
	Array = pmm.Array
)

// Re-exported engine configuration; see internal/engine.
type (
	// Options configures a detection run.
	Options = engine.Options
	// Result is a detection run's outcome.
	Result = engine.Result
	// PassResult is one analysis pass's report within a Result (see
	// Options.Analyses).
	PassResult = engine.PassResult
	// Mode selects model checking or random execution.
	Mode = engine.Mode
	// PersistPolicy selects the persisted-image derivation per cache line.
	PersistPolicy = engine.PersistPolicy
)

// Modes of operation (paper §4).
const (
	// ModelCheck injects a crash before every flush/fence point.
	ModelCheck = engine.ModelCheck
	// RandomMode runs seeded random executions with random crash points.
	RandomMode = engine.RandomMode
)

// Persist policies for deriving the post-crash image.
const (
	PersistLatest  = engine.PersistLatest
	PersistMinimal = engine.PersistMinimal
	PersistRandom  = engine.PersistRandom
)

// Race is one deduplicated persistency-race report.
type Race = report.Race

// ReportSet is the deduplicated collection of race reports from a run.
type ReportSet = report.Set

// Run explores the program per the options and returns merged race reports.
// makeProg must return a fresh Program per call: the engine instantiates
// the workload for every probe run, plus one recovery program per run that
// every crash scenario resumed from a checkpoint recovers with (its Setup
// runs, its Workers never do). Recovery code therefore reaches the heap
// only through its Thread, reads only the Go state Setup built, and writes
// none — real recovery starts from the persisted pool in a fresh process.
// Scenarios run on a worker pool (Options.Workers, default GOMAXPROCS) with
// results merged deterministically — set Workers to 1 for fully sequential
// execution (identical results) if the program records observations
// through shared captured variables.
func Run(makeProg func() Program, opts Options) *Result {
	return engine.Run(makeProg, opts)
}

// RunOnce executes exactly one scenario: the workload runs to the given
// crash point (0 = completion), the image is derived under the persist
// policy, and recovery runs once. Useful for functional verification and
// for the paper's single-execution experiments.
func RunOnce(makeProg func() Program, opts Options, crashPoint int, policy PersistPolicy, seed int64) *Result {
	return engine.RunOne(makeProg, opts, crashPoint, policy, seed)
}

// CacheLineSize is the simulated cache-line size in bytes.
const CacheLineSize = pmm.CacheLineSize
