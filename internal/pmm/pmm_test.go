package pmm

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"
)

func TestLineOf(t *testing.T) {
	cases := []struct {
		a    Addr
		want Line
	}{
		{0, 0}, {63, 0}, {64, 1}, {65, 1}, {127, 1}, {128, 2},
	}
	for _, c := range cases {
		if got := LineOf(c.a); got != c.want {
			t.Errorf("LineOf(%d) = %d, want %d", c.a, got, c.want)
		}
	}
	if !SameLine(0, 63) || SameLine(63, 64) {
		t.Error("SameLine boundary behaviour wrong")
	}
}

func TestLayoutNaturalAlignment(t *testing.T) {
	s := NewHeap().AllocStruct("obj", Layout{
		{"b", 1}, {"w", 2}, {"d", 4}, {"q", 8}, {"tail", 1},
	})
	wantOffsets := map[string]Addr{"b": 0, "w": 2, "d": 4, "q": 8, "tail": 16}
	for name, off := range wantOffsets {
		if got := s.F(name) - s.Base(); got != off {
			t.Errorf("field %q offset = %d, want %d", name, got, off)
		}
	}
	if s.Size() != 24 { // rounded up to 8-byte alignment
		t.Errorf("struct size = %d, want 24", s.Size())
	}
}

func TestFieldSizes(t *testing.T) {
	s := NewHeap().AllocStruct("obj", Layout{{"a", 4}, {"b", 8}})
	if _, size := s.Field("a"); size != 4 {
		t.Errorf("field a size = %d", size)
	}
	if _, size := s.Field("b"); size != 8 {
		t.Errorf("field b size = %d", size)
	}
}

func TestUnknownFieldPanics(t *testing.T) {
	s := NewHeap().AllocStruct("obj", Layout{{"a", 8}})
	defer func() {
		if recover() == nil {
			t.Fatal("Field on unknown name did not panic")
		}
	}()
	s.F("nope")
}

func TestDuplicateFieldPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate field did not panic")
		}
	}()
	NewHeap().AllocStruct("obj", Layout{{"a", 8}, {"a", 4}})
}

func TestBadFieldSizePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("field size 3 did not panic")
		}
	}()
	NewHeap().AllocStruct("obj", Layout{{"a", 3}})
}

func TestAllocationsAreLineAligned(t *testing.T) {
	h := NewHeap()
	a := h.AllocStruct("a", Layout{{"x", 8}})
	b := h.AllocStruct("b", Layout{{"x", 8}})
	r := h.AllocArray("arr", Layout{{"x", 8}}, 13)
	for _, base := range []Addr{a.Base(), b.Base(), r.Base()} {
		if base%CacheLineSize != 0 {
			t.Errorf("allocation base 0x%x not line aligned", uint64(base))
		}
		if base == 0 {
			t.Error("allocation at address 0 (reserved for null)")
		}
	}
	if a.Base() == b.Base() {
		t.Error("allocations overlap")
	}
}

func TestArrayIndexingAndStride(t *testing.T) {
	h := NewHeap()
	arr := h.AllocArray("pairs", Layout{{"key", 8}, {"value", 8}}, 8)
	if arr.Stride() != 16 {
		t.Fatalf("stride = %d, want 16", arr.Stride())
	}
	if arr.count != 8 {
		t.Fatalf("len = %d, want 8", arr.count)
	}
	for i := 0; i < 8; i++ {
		el := arr.At(i)
		if el.Base() != arr.Base()+Addr(16*i) {
			t.Errorf("element %d base wrong", i)
		}
		// With a 16-byte stride from a line-aligned base, key and value of
		// one pair always share a cache line — the CCEH design assumption.
		if !SameLine(el.F("key"), el.F("value")) {
			t.Errorf("pair %d spans cache lines", i)
		}
	}
}

func TestArrayOutOfRangePanics(t *testing.T) {
	arr := NewHeap().AllocArray("a", Layout{{"x", 8}}, 2)
	for _, idx := range []int{-1, 2} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("At(%d) did not panic", idx)
				}
			}()
			arr.At(idx)
		}()
	}
}

func TestLabelFor(t *testing.T) {
	h := NewHeap()
	s := h.AllocStruct("Pair", Layout{{"key", 8}, {"value", 8}})
	arr := h.AllocArray("seg", Layout{{"key", 8}, {"value", 8}}, 4)

	cases := []struct {
		addr Addr
		want string
	}{
		{s.F("key"), "Pair.key"},
		{s.F("value"), "Pair.value"},
		{arr.At(2).F("value"), "seg[2].value"},
		{0, "0x0"},
	}
	for _, c := range cases {
		if got := h.LabelFor(c.addr); got != c.want {
			t.Errorf("LabelFor(0x%x) = %q, want %q", uint64(c.addr), got, c.want)
		}
	}
}

func TestLabelForAddressPastEnd(t *testing.T) {
	h := NewHeap()
	s := h.AllocStruct("only", Layout{{"x", 8}})
	past := s.Base() + Addr(10*CacheLineSize)
	if got := h.LabelFor(past); !strings.HasPrefix(got, "0x") {
		t.Errorf("LabelFor past end = %q, want hex fallback", got)
	}
}

func TestFieldsInStruct(t *testing.T) {
	h := NewHeap()
	arr := h.AllocArray("seg", Layout{{"key", 8}, {"value", 8}}, 4)
	fields := h.FieldsIn(arr.Base(), 4*16)
	if len(fields) != 8 {
		t.Fatalf("FieldsIn covering array = %d fields, want 8", len(fields))
	}
	// Partial range: just element 1.
	fields = h.FieldsIn(arr.At(1).Base(), 16)
	if len(fields) != 2 {
		t.Fatalf("FieldsIn one element = %d fields, want 2", len(fields))
	}
	if fields[0].Addr != arr.At(1).F("key") || fields[1].Addr != arr.At(1).F("value") {
		t.Error("FieldsIn returned wrong field addresses")
	}
}

func TestFieldsInOutsideAllocationPanics(t *testing.T) {
	h := NewHeap()
	s := h.AllocStruct("pair", Layout{{"key", 8}, {"value", 8}})
	defer func() {
		if recover() == nil {
			t.Fatal("FieldsIn past allocation did not panic")
		}
	}()
	h.FieldsIn(s.Base(), 32)
}

func TestInitWritesRecorded(t *testing.T) {
	h := NewHeap()
	s := h.AllocStruct("obj", Layout{{"x", 8}})
	h.Init(s.F("x"), 8, 42)
	ws := h.InitWrites()
	if len(ws) != 1 || ws[0].Val != 42 || ws[0].Addr != s.F("x") {
		t.Fatalf("InitWrites = %+v", ws)
	}
}

func TestSizeMask(t *testing.T) {
	cases := map[int]uint64{1: 0xff, 2: 0xffff, 4: 0xffffffff, 8: ^uint64(0)}
	for size, want := range cases {
		if got := sizeMask(size); got != want {
			t.Errorf("sizeMask(%d) = %#x, want %#x", size, got, want)
		}
	}
}

// Property: LabelFor of any field address round-trips to the field name.
func TestLabelForProperty(t *testing.T) {
	f := func(nFields uint8, count uint8) bool {
		n := int(nFields%6) + 1
		cnt := int(count%5) + 1
		h := NewHeap()
		layout := make(Layout, n)
		for i := range layout {
			layout[i] = FieldDef{Name: fmt.Sprintf("f%d", i), Size: 8}
		}
		arr := h.AllocArray("A", layout, cnt)
		for i := 0; i < cnt; i++ {
			for j := 0; j < n; j++ {
				want := fmt.Sprintf("A[%d].f%d", i, j)
				if cnt == 1 {
					want = fmt.Sprintf("A.f%d", j)
				}
				got := h.LabelFor(arr.At(i).F(fmt.Sprintf("f%d", j)))
				if cnt == 1 {
					if got != want {
						return false
					}
				} else if got != want {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: allocations never overlap, regardless of the mix of sizes.
func TestNoOverlapProperty(t *testing.T) {
	f := func(sizes []uint16) bool {
		h := NewHeap()
		type span struct{ lo, hi Addr }
		var spans []span
		for i, sz := range sizes {
			n := int(sz%64) + 1
			base := h.AllocArray(fmt.Sprintf("r%d", i), Layout{{"x", 8}}, n).Base()
			spans = append(spans, span{base, base + Addr(8*n)})
		}
		for i := range spans {
			for j := i + 1; j < len(spans); j++ {
				if spans[i].lo < spans[j].hi && spans[j].lo < spans[i].hi {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestAllocArrayZeroCountPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("AllocArray count 0 did not panic")
		}
	}()
	NewHeap().AllocArray("bad", Layout{{Name: "x", Size: 8}}, 0)
}

func TestEmptyLayoutStillAllocates(t *testing.T) {
	s := NewHeap().AllocStruct("empty", Layout{})
	if s.Size() <= 0 {
		t.Fatalf("empty struct size = %d", s.Size())
	}
}

func TestLabelForMiddleOfField(t *testing.T) {
	h := NewHeap()
	s := h.AllocStruct("o", Layout{{Name: "q", Size: 8}})
	// An address inside (not at the start of) a field still labels as the
	// field — torn-half reporting depends on it.
	if got := h.LabelFor(s.F("q") + 4); got != "o.q" {
		t.Fatalf("mid-field label = %q, want o.q", got)
	}
}
