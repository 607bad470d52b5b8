package compiler

import (
	"fmt"
	"sync"

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

// LoweredProgram is an IR program bound to simulator state.
type LoweredProgram struct {
	ir Program
	// FlushEvery inserts a clflush after every store/call (modelling a
	// straightforwardly-written PM program that flushes each update).
	FlushEvery bool
	// observed collects the post-crash values per IR offset. Crash
	// scenarios run on concurrent workers, so mu guards it.
	mu       sync.Mutex
	observed map[int][]uint64
}

// Lower binds an IR program for execution.
func Lower(ir Program, flushEvery bool) *LoweredProgram {
	return &LoweredProgram{ir: ir, FlushEvery: flushEvery, observed: make(map[int][]uint64)}
}

// Observed returns the post-crash values seen at an IR offset across all
// explored executions, in no particular order.
func (lp *LoweredProgram) Observed(offset int) []uint64 {
	lp.mu.Lock()
	defer lp.mu.Unlock()
	return append([]uint64(nil), lp.observed[offset]...)
}

// irSpan returns the byte span [lo, hi) touched by the program.
func (lp *LoweredProgram) irSpan() (int, int) {
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

// MakeProgram returns the engine-compatible constructor. Each IR offset
// maps into a raw persistent allocation; every routine becomes part of one
// worker thread; the recovery procedure reads back every destination the
// program wrote and records the values (so tearing is observable).
func (lp *LoweredProgram) MakeProgram() func() pmm.Program {
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
				base = h.AllocRaw("ir", size)
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
func (lp *LoweredProgram) execOp(t *pmm.Thread, o Op, addr func(int) pmm.Addr) {
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
		if lp.FlushEvery {
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
		if lp.FlushEvery {
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
