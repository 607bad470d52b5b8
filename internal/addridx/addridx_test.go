package addridx

import (
	"testing"

	"yashme/internal/pmm"
)

func TestTableZeroValueReads(t *testing.T) {
	var tab Table[int]
	if got := tab.At(0x1000); got != 0 {
		t.Fatalf("empty table At = %d, want 0", got)
	}
	if tab.Len() != 0 {
		t.Fatalf("empty table Len = %d", tab.Len())
	}
}

func TestTableSetAtPtr(t *testing.T) {
	var tab Table[int]
	tab.Set(0x40, 7)
	if got := tab.At(0x40); got != 7 {
		t.Fatalf("At after Set = %d, want 7", got)
	}
	if got := tab.At(0x39); got != 0 {
		t.Fatalf("unset slot = %d, want 0", got)
	}
	tab.Set(0x48, 9)
	if p := tab.Peek(0x48); p == nil || *p != 9 {
		t.Fatalf("Peek after Set = %v, want a pointer to 9", p)
	}
	if p := tab.Peek(0x49); p != nil {
		t.Fatalf("Peek past the grown range = %v, want nil", p)
	}
	if tab.Len() != 0x49 {
		t.Fatalf("Len = %d, want %d", tab.Len(), 0x49)
	}
}

func TestTableOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("corrupt slot index did not panic")
		}
	}()
	var tab Table[int]
	tab.Set(pmm.Addr(maxSlots), 1)
}

func TestLineTable(t *testing.T) {
	var tab LineTable[string]
	l := pmm.LineOf(0x1000)
	*tab.Ptr(l) = "x"
	if got := tab.At(l); got != "x" {
		t.Fatalf("At = %q", got)
	}
	if got := tab.At(l + 1); got != "" {
		t.Fatalf("unset line = %q", got)
	}
	var c LineTable[string]
	c.CopyFrom(&tab)
	*c.Ptr(l) = "y"
	if tab.At(l) != "x" {
		t.Fatal("copy aliased original")
	}
	if tab.Len() != int(l)+1 {
		t.Fatalf("Len = %d, want %d", tab.Len(), int(l)+1)
	}
}

// Reset clears only the grown range, so it relies on spare capacity never
// having been written: regrowing past the old length into the kept array
// must still read zero, and must not reallocate.
func TestResetRegrowReadsZero(t *testing.T) {
	var tab Table[int]
	tab.Reserve(256)
	for a := pmm.Addr(0); a < 100; a++ {
		tab.Set(a, int(a)+1)
	}
	tab.Reset()
	if tab.Len() != 0 {
		t.Fatalf("Len after Reset = %d", tab.Len())
	}
	if allocs := testing.AllocsPerRun(10, func() { tab.Set(200, 1); tab.Reset() }); allocs != 0 {
		t.Fatalf("regrow into kept capacity allocated %v times", allocs)
	}
	tab.Set(200, 7)
	for a := pmm.Addr(0); a < 200; a++ {
		if got := tab.At(a); got != 0 {
			t.Fatalf("slot %d = %d after Reset and regrow, want 0", a, got)
		}
	}

	var lines LineTable[[]pmm.Addr]
	for l := pmm.Line(0); l < 64; l++ {
		*lines.Ptr(l) = []pmm.Addr{pmm.Addr(l)}
	}
	lines.Reset()
	*lines.Ptr(40) = nil
	for l := pmm.Line(0); l < 40; l++ {
		if got := lines.At(l); got != nil {
			t.Fatalf("line %d = %v after Reset and regrow, want nil", l, got)
		}
	}
}

// CopyFrom into a table grown further than the source must leave no stale
// slot behind the copy, and must reuse the array when it fits.
func TestTableCopyFromReusesAndClears(t *testing.T) {
	var src, dst Table[int]
	src.Set(3, 30)
	for a := pmm.Addr(0); a < 50; a++ {
		dst.Set(a, 99)
	}
	if allocs := testing.AllocsPerRun(10, func() { dst.CopyFrom(&src) }); allocs != 0 {
		t.Fatalf("CopyFrom into a larger table allocated %v times", allocs)
	}
	if dst.Len() != src.Len() || dst.At(3) != 30 {
		t.Fatalf("copy: Len %d, slot 3 = %d", dst.Len(), dst.At(3))
	}
	dst.Set(49, 1)
	for a := pmm.Addr(4); a < 49; a++ {
		if got := dst.At(a); got != 0 {
			t.Fatalf("slot %d = %d after CopyFrom and regrow, want 0", a, got)
		}
	}
	src.Set(3, 31)
	if dst.At(3) != 30 {
		t.Fatal("CopyFrom aliased the source")
	}
}

// Truncate drops the slots past n and zeroes them: regrowing into the kept
// array must read zero there, and a bound at or past Len changes nothing.
func TestTableTruncateRegrowReadsZero(t *testing.T) {
	var tab Table[int]
	for a := pmm.Addr(0); a < 20; a++ {
		tab.Set(a, int(a)+1)
	}
	tab.Truncate(30)
	if tab.Len() != 20 {
		t.Fatalf("Truncate past Len changed Len to %d", tab.Len())
	}
	tab.Truncate(5)
	if tab.Len() != 5 || tab.At(4) != 5 {
		t.Fatalf("after Truncate(5): Len %d, slot 4 = %d", tab.Len(), tab.At(4))
	}
	tab.Set(19, 1)
	for a := pmm.Addr(5); a < 19; a++ {
		if got := tab.At(a); got != 0 {
			t.Fatalf("slot %d = %d after Truncate and regrow, want 0", a, got)
		}
	}

	var lines LineTable[[]pmm.Addr]
	for l := pmm.Line(0); l < 8; l++ {
		*lines.Ptr(l) = []pmm.Addr{pmm.Addr(l)}
	}
	lines.Truncate(3)
	*lines.Ptr(7) = nil
	if lines.Len() != 8 || lines.At(2) == nil {
		t.Fatalf("line table after Truncate(3) and regrow: Len %d, line 2 = %v", lines.Len(), lines.At(2))
	}
	for l := pmm.Line(3); l < 8; l++ {
		if got := lines.At(l); got != nil {
			t.Fatalf("line %d = %v after Truncate and regrow, want nil", l, got)
		}
	}
}
