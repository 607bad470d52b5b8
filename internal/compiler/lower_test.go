package compiler

import (
	"fmt"
	"strconv"
	"sync"
	"testing"

	"yashme/internal/engine"
	"yashme/internal/pmm"
)

// Lowering connects the compiler study to the detector: an IR program can
// be lowered onto the persistent-memory simulator and model checked, so the
// effect of a store optimization is demonstrated end to end — compile the
// source with a tearing backend, run it, crash it, and watch the post-crash
// execution read a genuinely half-written value. This is the paper's
// Figure 1 pipeline without any synthetic torn-value injection: the two
// 32-bit store-immediates gcc emits are two separate simulated stores, and
// a crash between their commits leaves exactly one persisted.

// loweredProgram is an IR program bound to simulator state.
type loweredProgram struct {
	ir Program
	// flushEvery inserts a clflush after every store/call (modelling a
	// straightforwardly-written PM program that flushes each update).
	flushEvery bool
	// observed collects the post-crash values per IR offset. Crash
	// scenarios run on concurrent workers, so mu guards it.
	mu       sync.Mutex
	observed map[int][]uint64
}

// lower binds an IR program for execution.
func lower(ir Program, flushEvery bool) *loweredProgram {
	return &loweredProgram{ir: ir, flushEvery: flushEvery, observed: make(map[int][]uint64)}
}

// observedAt returns the post-crash values seen at an IR offset across all
// explored executions, in no particular order.
func (lp *loweredProgram) observedAt(offset int) []uint64 {
	lp.mu.Lock()
	defer lp.mu.Unlock()
	return append([]uint64(nil), lp.observed[offset]...)
}

// irSpan returns the byte span [lo, hi) touched by the program.
func (lp *loweredProgram) irSpan() (int, int) {
	lo, hi := 1<<30, 0
	visit := func(off, size int) {
		if off < lo {
			lo = off
		}
		if off+size > hi {
			hi = off + size
		}
	}
	for _, r := range lp.ir.Routines {
		for _, o := range r.Ops {
			switch op := o.(type) {
			case Store:
				visit(op.Offset, op.Size)
				if op.CopySrc >= 0 {
					visit(op.CopySrc, op.Size)
				}
			case Call:
				visit(op.Offset, op.Size)
				if op.Src >= 0 {
					visit(op.Src, op.Size)
				}
			}
		}
	}
	if hi == 0 {
		lo = 0
	}
	return lo, hi
}

// makeProgram returns the engine-compatible constructor. Each IR offset
// maps to a 1-byte field of one persistent struct; every routine becomes
// part of one worker thread; the recovery procedure reads back every
// destination the program wrote and records the values (so tearing is
// observable).
func (lp *loweredProgram) makeProgram() func() pmm.Program {
	lo, hi := lp.irSpan()
	size := hi - lo
	if size <= 0 {
		size = 8
	}
	// Destinations to read back post-crash: offset → access size.
	reads := map[int]int{}
	for _, r := range lp.ir.Routines {
		for _, o := range r.Ops {
			switch op := o.(type) {
			case Store:
				if cur, ok := reads[op.Offset]; !ok || op.Size > cur {
					reads[op.Offset] = op.Size
				}
			case Call:
				reads[op.Offset] = 8 // read the first word of the region
			}
		}
	}
	var readOffsets []int
	for off := range reads {
		readOffsets = append(readOffsets, off)
	}
	// One 1-byte field per IR offset, named by it, so a store is labelled by
	// the offset it starts at.
	layout := make(pmm.Layout, size)
	for i := range layout {
		layout[i] = pmm.FieldDef{Name: strconv.Itoa(lo + i), Size: 1}
	}
	// Deterministic order.
	for i := 0; i < len(readOffsets); i++ {
		for j := i + 1; j < len(readOffsets); j++ {
			if readOffsets[j] < readOffsets[i] {
				readOffsets[i], readOffsets[j] = readOffsets[j], readOffsets[i]
			}
		}
	}

	return func() pmm.Program {
		var base pmm.Addr
		addr := func(off int) pmm.Addr { return base + pmm.Addr(off-lo) }
		return pmm.Program{
			Name: "ir:" + lp.ir.Name,
			Setup: func(h *pmm.Heap) {
				base = h.AllocStruct("ir", layout).Base()
			},
			Workers: []func(*pmm.Thread){func(t *pmm.Thread) {
				for _, r := range lp.ir.Routines {
					for _, o := range r.Ops {
						lp.execOp(t, o, addr)
					}
				}
			}},
			PostCrash: func(t *pmm.Thread) {
				for _, off := range readOffsets {
					v := t.Load(addr(off), reads[off])
					lp.mu.Lock()
					lp.observed[off] = append(lp.observed[off], v)
					lp.mu.Unlock()
				}
			},
		}
	}
}

// execOp issues one IR operation on the simulator.
func (lp *loweredProgram) execOp(t *pmm.Thread, o Op, addr func(int) pmm.Addr) {
	switch op := o.(type) {
	case Store:
		val := op.Val
		if op.CopySrc >= 0 {
			val = t.Load(addr(op.CopySrc), op.Size)
		}
		if op.Atomic {
			t.StoreRelease(addr(op.Offset), op.Size, val)
		} else {
			t.Store(addr(op.Offset), op.Size, val)
		}
		if lp.flushEvery {
			t.CLFlush(addr(op.Offset))
			t.SFence()
		}
	case Call:
		switch op.Fn {
		case "memset":
			// Byte-granular non-atomic writes: 8-byte chunks + tail, like
			// the real libc call — no 64-bit atomicity guarantee.
			pattern := uint64(0)
			for i := 0; i < 8; i++ {
				pattern = pattern<<8 | uint64(op.Val)
			}
			for rem, cur := op.Size, 0; rem > 0; {
				step := 8
				if rem < 8 {
					step = 1
				}
				t.Store(addr(op.Offset+cur), step, pattern&mask(step))
				cur += step
				rem -= step
			}
		case "memcpy", "memmove":
			for rem, cur := op.Size, 0; rem > 0; {
				step := 8
				if rem < 8 {
					step = 1
				}
				v := t.Load(addr(op.Src+cur), step)
				t.Store(addr(op.Offset+cur), step, v)
				cur += step
				rem -= step
			}
		default:
			panic(fmt.Sprintf("compiler: unknown call %q", op.Fn))
		}
		if lp.flushEvery {
			t.FlushRange(addr(op.Offset), op.Size)
			t.SFence()
		}
	}
}

func mask(size int) uint64 {
	if size >= 8 {
		return ^uint64(0)
	}
	return (uint64(1) << (8 * size)) - 1
}

// countStores counts plain (non-atomic) store operations.
func (p Program) countStores() int {
	n := 0
	for _, r := range p.Routines {
		for _, op := range r.Ops {
			if s, ok := op.(Store); ok && !s.Atomic {
				n++
			}
		}
	}
	return n
}

// The full Figure 1 pipeline, with no synthetic torn values anywhere: the
// source IR stores 0x1234567812345678 as ONE 64-bit store; gcc's ARM64
// backend splits it into two 32-bit stores; model checking the compiled
// program finds a crash point between the halves' commits, and the
// post-crash execution reads a half-written value.
func TestLoweredTearingEndToEnd(t *testing.T) {
	source := Program{Name: "figure1", Routines: []Routine{{
		Name: "main",
		Ops:  []Op{St(0, 8, 0x1234567812345678)},
	}}}
	compiled := NewPipeline(GCC, ARM64).Compile(source)
	if compiled.countStores() != 2 {
		t.Fatalf("compiled stores = %d, want 2", compiled.countStores())
	}

	lp := lower(compiled, true)
	res := engine.Run(lp.makeProgram(), engine.Options{Mode: engine.ModelCheck, Prefix: true})

	// Both halves race (they are independent non-atomic stores).
	if res.Report.Count() != 2 {
		t.Fatalf("compiled program races = %d, want 2 (both halves)\n%s", res.Report.Count(), res.Report)
	}

	// Some explored execution persisted the low half but not the high one:
	// the combined 64-bit value is the paper's 0x12345678.
	torn := false
	full := false
	los, his := lp.observedAt(0), lp.observedAt(4)
	for i := range los {
		combined := los[i] | his[i]<<32
		switch combined {
		case 0x12345678:
			torn = true
		case 0x1234567812345678:
			full = true
		}
	}
	if !torn {
		t.Fatalf("no execution observed the torn value; lo=%x hi=%x", los, his)
	}
	if !full {
		t.Fatal("no execution observed the fully persisted value")
	}
}

// The uncompiled source (one wide store) reports a single race at the same
// crash points: compilation changes the failure surface, not the verdict.
func TestUncompiledSourceSingleRace(t *testing.T) {
	source := Program{Name: "figure1-src", Routines: []Routine{{
		Name: "main",
		Ops:  []Op{St(0, 8, 0x1234567812345678)},
	}}}
	lp := lower(source, true)
	res := engine.Run(lp.makeProgram(), engine.Options{Mode: engine.ModelCheck, Prefix: true})
	if res.Report.Count() != 1 {
		t.Fatalf("source program races = %d, want 1", res.Report.Count())
	}
}

// A coalesced memset is byte-granular: crashing mid-call leaves the region
// partially written, which the detector reports per written word.
func TestLoweredMemsetRaces(t *testing.T) {
	source := Program{Name: "zeroinit", Routines: []Routine{{
		Name: "ctor",
		Ops: []Op{
			St(0, 8, 0xAAAAAAAAAAAAAAAA), // pre-existing data
			St(8, 8, 0xBBBBBBBBBBBBBBBB),
			St(16, 8, 0xCCCCCCCCCCCCCCCC),
			ZeroSt(0, 8), ZeroSt(8, 8), ZeroSt(16, 8), // zeroing run → memset
		},
	}}}
	compiled := NewPipeline(Clang, X86_64).Compile(source)
	if compiled.CountMemOps() != 1 {
		t.Fatalf("memops = %d, want 1 (coalesced memset)", compiled.CountMemOps())
	}
	lp := lower(compiled, true)
	res := engine.Run(lp.makeProgram(), engine.Options{Mode: engine.ModelCheck, Prefix: true})
	if res.Report.Count() == 0 {
		t.Fatal("memset-compiled program reported no races")
	}
}

// Atomic stores survive compilation untouched and stay race-free when the
// recovery observes a later operation... they simply never race.
func TestLoweredAtomicStoreSafe(t *testing.T) {
	source := Program{Name: "atomic", Routines: []Routine{{
		Name: "main",
		Ops:  []Op{AtomicSt(0, 8, 42)},
	}}}
	compiled := NewPipeline(GCC, ARM64).Compile(source)
	if compiled.countStores() != 0 { // countStores counts plain stores only
		t.Fatal("atomic store was compiled into plain stores")
	}
	lp := lower(compiled, true)
	res := engine.Run(lp.makeProgram(), engine.Options{Mode: engine.ModelCheck, Prefix: true})
	if res.Report.Count() != 0 {
		t.Fatalf("atomic program raced: %s", res.Report)
	}
}

// Copy runs lowered as memcpy read the source region and write the
// destination; the copied destination races like any non-atomic data.
func TestLoweredMemcpy(t *testing.T) {
	source := Program{Name: "copy", Routines: []Routine{{
		Name: "main",
		Ops: append(
			[]Op{St(256, 8, 0x11), St(264, 8, 0x22), St(272, 8, 0x33)}, // source data
			copyRun(0, 256, 3)...),
	}}}
	compiled := NewPipeline(Clang, X86_64).Compile(source)
	if compiled.CountMemOps() != 1 {
		t.Fatalf("memops = %d, want 1 (memcpy)", compiled.CountMemOps())
	}
	lp := lower(compiled, true)
	res := engine.Run(lp.makeProgram(), engine.Options{Mode: engine.ModelCheck, Prefix: true})
	if res.Report.Count() == 0 {
		t.Fatal("memcpy-compiled program reported no races")
	}
	// In the fully-persisted completion scenario, the copy round-trips.
	foundCopied := false
	for _, v := range lp.observedAt(0) {
		if v == 0x11 {
			foundCopied = true
		}
	}
	if !foundCopied {
		t.Fatalf("copied value never observed: %x", lp.observedAt(0))
	}
}

// Store inventing (§3.2): the compiler stashes a half-built temporary into
// the destination before the real store. The invented store is a fresh
// non-atomic commit, so a crash between the two persists garbage the
// program never wrote — the detector flags it, and a post-crash read can
// actually observe the temporary.
func TestInventedStoreEndToEnd(t *testing.T) {
	source := Program{Name: "invent", Routines: []Routine{{
		Name: "main",
		Ops:  []Op{St(0, 8, 0xDEADBEEF00C0FFEE)},
	}}}
	invented := InventStores{}.Apply(source.Routines[0])
	if len(invented.Ops) != 2 {
		t.Fatalf("invented ops = %d, want 2", len(invented.Ops))
	}
	if !invented.Ops[0].(Store).Invented {
		t.Fatal("first op not marked invented")
	}

	lp := lower(Program{Name: "invent", Routines: []Routine{invented}}, true)
	res := engine.Run(lp.makeProgram(), engine.Options{Mode: engine.ModelCheck, Prefix: true})
	if res.Report.Count() == 0 {
		t.Fatal("invented-store program reported no races")
	}
	// Some execution observes the stashed temporary (0xFFEE), which the
	// source program never stored.
	sawTemporary := false
	for _, v := range lp.observedAt(0) {
		if v == 0xDEADBEEF00C0FFEE&0xFFFF {
			sawTemporary = true
		}
	}
	if !sawTemporary {
		t.Fatalf("the invented temporary was never observed: %x", lp.observedAt(0))
	}
}

// Atomic stores are immune to store inventing.
func TestInventStoresPreservesAtomics(t *testing.T) {
	r := Routine{Ops: []Op{AtomicSt(0, 8, 5)}}
	out := InventStores{}.Apply(r)
	if len(out.Ops) != 1 {
		t.Fatal("atomic store got an invented companion")
	}
}
