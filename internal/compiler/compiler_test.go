package compiler

import (
	"testing"
	"testing/quick"
)

func TestSplitWideStores(t *testing.T) {
	r := Routine{Name: "f", Ops: []Op{St(0, 8, 0x1234567812345678)}}
	out := SplitWideStores{}.Apply(r)
	if len(out.Ops) != 2 {
		t.Fatalf("ops = %d, want 2", len(out.Ops))
	}
	lo := out.Ops[0].(Store)
	hi := out.Ops[1].(Store)
	if lo.Size != 4 || hi.Size != 4 {
		t.Fatal("halves are not 32-bit stores")
	}
	if lo.Val != 0x12345678 || hi.Val != 0x12345678 {
		t.Fatalf("halves = %#x / %#x", lo.Val, hi.Val)
	}
	if lo.Offset != 0 || hi.Offset != 4 {
		t.Fatalf("offsets = %d / %d", lo.Offset, hi.Offset)
	}
}

func TestSplitPreservesAtomicStores(t *testing.T) {
	r := Routine{Ops: []Op{AtomicSt(0, 8, 5)}}
	out := SplitWideStores{}.Apply(r)
	if len(out.Ops) != 1 {
		t.Fatal("atomic store was split")
	}
}

func TestSplitPreservesNarrowStores(t *testing.T) {
	r := Routine{Ops: []Op{St(0, 4, 5), St(4, 2, 1), St(6, 1, 2)}}
	out := SplitWideStores{}.Apply(r)
	if len(out.Ops) != 3 {
		t.Fatalf("narrow stores changed: %d ops", len(out.Ops))
	}
}

func TestCoalesceZeroRuns(t *testing.T) {
	r := Routine{Ops: zeroRun(0, 4)} // 32 contiguous zero bytes
	out := CoalesceZeroRuns{}.Apply(r)
	if len(out.Ops) != 1 {
		t.Fatalf("ops = %v, want one memset", out.Ops)
	}
	c := out.Ops[0].(Call)
	if c.Fn != "memset" || c.Offset != 0 || c.Size != 32 {
		t.Fatalf("call = %v", c)
	}
}

func TestShortZeroRunNotCoalesced(t *testing.T) {
	r := Routine{Ops: []Op{ZeroSt(0, 8)}} // 8 bytes < threshold
	out := CoalesceZeroRuns{}.Apply(r)
	if len(out.Ops) != 1 {
		t.Fatal("short run changed length")
	}
	if _, isCall := out.Ops[0].(Call); isCall {
		t.Fatal("short zero run was coalesced")
	}
}

func TestNonContiguousZeroRunsSplit(t *testing.T) {
	ops := append(zeroRun(0, 3), zeroRun(100, 3)...)
	out := CoalesceZeroRuns{}.Apply(Routine{Ops: ops})
	calls := 0
	for _, op := range out.Ops {
		if _, ok := op.(Call); ok {
			calls++
		}
	}
	if calls != 2 {
		t.Fatalf("calls = %d, want 2 (runs are not contiguous)", calls)
	}
}

func TestAtomicStoreBreaksZeroRun(t *testing.T) {
	ops := []Op{ZeroSt(0, 8), AtomicSt(8, 8, 0), ZeroSt(16, 8)}
	out := CoalesceZeroRuns{}.Apply(Routine{Ops: ops})
	for _, op := range out.Ops {
		if _, ok := op.(Call); ok {
			t.Fatal("zero run coalesced across an atomic store")
		}
	}
}

func TestCoalesceCopyRuns(t *testing.T) {
	r := Routine{Ops: copyRun(0, 256, 3)} // 24 contiguous copied bytes
	out := CoalesceCopyRuns{Fn: "memcpy"}.Apply(r)
	if len(out.Ops) != 1 {
		t.Fatalf("ops = %v, want one memcpy", out.Ops)
	}
	c := out.Ops[0].(Call)
	if c.Fn != "memcpy" || c.Offset != 0 || c.Src != 256 || c.Size != 24 {
		t.Fatalf("call = %+v", c)
	}
}

func TestCopyRunRequiresSourceContiguity(t *testing.T) {
	// Destination contiguous, source not: no rewrite.
	ops := []Op{CopySt(0, 8, 256), CopySt(8, 8, 512), CopySt(16, 8, 1024)}
	out := CoalesceCopyRuns{Fn: "memcpy"}.Apply(Routine{Ops: ops})
	for _, op := range out.Ops {
		if _, ok := op.(Call); ok {
			t.Fatal("copy run coalesced with non-contiguous source")
		}
	}
}

func TestMergeAdjacentMemsets(t *testing.T) {
	r := Routine{Ops: []Op{
		memsetCall(0, 16, 0), memsetCall(16, 16, 0), memsetCall(32, 16, 0),
		memsetCall(128, 16, 0), // gap: stays separate
		memsetCall(144, 16, 1), // different fill byte: stays separate
	}}
	out := MergeAdjacentMemsets{}.Apply(r)
	if len(out.Ops) != 3 {
		t.Fatalf("ops = %d, want 3 (merged + gap + diff-fill)", len(out.Ops))
	}
	first := out.Ops[0].(Call)
	if first.Size != 48 {
		t.Fatalf("merged size = %d, want 48", first.Size)
	}
}

func TestPipelineSelection(t *testing.T) {
	if NewPipeline(GCC, ARM64).Passes[0].Name() != "split-wide-stores" {
		t.Error("gcc/ARM64 pipeline missing wide-store split")
	}
	for _, p := range NewPipeline(Clang, X86_64).Passes {
		if p.Name() == "split-wide-stores" {
			t.Error("clang/x86-64 pipeline must not split wide stores")
		}
	}
	gccX86 := NewPipeline(GCC, X86_64)
	if len(gccX86.Passes) != 1 || gccX86.Passes[0].Name() != "coalesce-copy-runs(memmove)" {
		t.Errorf("gcc/x86-64 pipeline = %v", gccX86.Passes)
	}
}

func TestTable2aAllRowsRewrite(t *testing.T) {
	rows := Table2a()
	if len(rows) != 6 {
		t.Fatalf("rows = %d, want 6", len(rows))
	}
	for _, row := range rows {
		before := row.Before.CountMemOps()
		after := row.After.CountMemOps()
		splitRow := row.Optimization == "Use a non-atomic pair of stores for a 64-bit store"
		if splitRow {
			if row.After.countStores() != 2*row.Before.countStores() {
				t.Errorf("%s/%s: wide store not split", row.Compiler, row.Arch)
			}
			continue
		}
		if after <= before {
			t.Errorf("%s/%s %q: memops %d → %d, optimization did not fire",
				row.Compiler, row.Arch, row.Optimization, before, after)
		}
	}
}

func TestTable2bMatchesPaper(t *testing.T) {
	for _, row := range Table2b() {
		want := PaperTable2b[row.Prog]
		if row.SrcOps != want[0] || row.AsmOps != want[1] {
			t.Errorf("%s: src=%d asm=%d, paper reports src=%d asm=%d",
				row.Prog, row.SrcOps, row.AsmOps, want[0], want[1])
		}
	}
}

func TestPCLHTUntouched(t *testing.T) {
	src := BenchmarkSource("P-CLHT")
	asm := NewPipeline(Clang, X86_64).Compile(src)
	if asm.CountMemOps() != 0 {
		t.Fatal("optimizer introduced memops into volatile-store P-CLHT")
	}
	if asm.countStores() != 0 {
		t.Fatal("P-CLHT model should have no plain stores at all")
	}
}

func TestUnknownBenchmarkPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("unknown benchmark did not panic")
		}
	}()
	BenchmarkSource("nope")
}

// Property: splitting preserves the written bytes (lo|hi<<32 == original).
func TestSplitPreservesValueProperty(t *testing.T) {
	f := func(val uint64, off uint16) bool {
		r := Routine{Ops: []Op{St(int(off), 8, val)}}
		out := SplitWideStores{}.Apply(r)
		lo := out.Ops[0].(Store)
		hi := out.Ops[1].(Store)
		return lo.Val|hi.Val<<32 == val && lo.Offset+4 == hi.Offset
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: coalescing never changes the total bytes written.
func TestCoalescePreservesCoverageProperty(t *testing.T) {
	f := func(runLens []uint8) bool {
		var ops []Op
		off := 0
		for _, l := range runLens {
			n := int(l % 6)
			ops = append(ops, zeroRun(off, n)...)
			off += n*8 + 64 // gap between runs
		}
		before := coverage(Routine{Ops: ops})
		out := CoalesceZeroRuns{}.Apply(Routine{Ops: ops})
		return coverage(out) == before
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// coverage sums the bytes written by all ops.
func coverage(r Routine) int {
	total := 0
	for _, op := range r.Ops {
		switch o := op.(type) {
		case Store:
			total += o.Size
		case Call:
			total += o.Size
		}
	}
	return total
}
