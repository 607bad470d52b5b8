package pmm

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
)

// labelShapes counts the layouts the label tests have built, so every test
// run names fields the process has never labelled and starts from a cold
// memo.
var labelShapes atomic.Int64

// labelFixture builds a heap with one struct, one array and a one-element
// array of layout number n (field names a<n>, b<n>, c<n>), and returns the addresses worth labelling: every byte of every
// allocation, the alignment gaps and the first bytes past the end, and
// addresses below the first allocation.
func labelFixture(h *Heap, n int64) []Addr {
	l := Layout{
		{Name: fmt.Sprintf("a%d", n), Size: 8},
		{Name: fmt.Sprintf("b%d", n), Size: 2},
		{Name: fmt.Sprintf("c%d", n), Size: 1},
	}
	h.AllocStruct("Obj", l)
	h.AllocArray("Arr", l, 3)
	h.AllocArray("One", l, 1)
	addrs := []Addr{0, CacheLineSize - 1}
	for a := Addr(CacheLineSize); a < h.NextFree()+2*CacheLineSize; a++ {
		addrs = append(addrs, a)
	}
	return addrs
}

func labelsOf(h *Heap, addrs []Addr) []string {
	out := make([]string, len(addrs))
	for i, a := range addrs {
		out[i] = h.LabelFor(a)
	}
	return out
}

// TestLabelMemoSnapshotMatchesFresh labels every address of a heap shape
// through a heap whose Setup ran afresh and through views of one snapshot
// of another, as resumed scenarios label: names are memoized per layout
// and shared by all of them, so they must agree byte for byte with each
// other and with the rendering rules, whichever heap fills the memo.
func TestLabelMemoSnapshotMatchesFresh(t *testing.T) {
	n := labelShapes.Add(1)
	src := NewHeap()
	addrs := labelFixture(src, n)
	snap := src.Snapshot()
	view := func() *Heap { return snap.Snapshot() }

	fresh := NewHeap()
	if !slices.Equal(labelFixture(fresh, n), addrs) {
		t.Fatal("a fresh heap of the same shape placed its allocations elsewhere")
	}
	want := labelsOf(fresh, addrs) // first: fills the memo
	for name, h := range map[string]*Heap{"view": view(), "second view": view(), "snapshot source": src} {
		if got := labelsOf(h, addrs); !slices.Equal(got, want) {
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("%s heap labels 0x%x %q, fresh heap %q", name, uint64(addrs[i]), got[i], want[i])
				}
			}
		}
	}

	obj, arr, one := src.allocs[0], src.allocs[1], src.allocs[2]
	for _, c := range []struct {
		addr Addr
		want string
	}{
		{obj.base, fmt.Sprintf("Obj.a%d", n)},
		{obj.base + 9, fmt.Sprintf("Obj.b%d", n)},
		{obj.base + 11, "Obj.+11"},
		{arr.base + Addr(2*arr.stride) + 10, fmt.Sprintf("Arr[2].c%d", n)},
		{arr.base + Addr(arr.stride) - 1, "Arr[0].+15"},
		{one.base + 10, fmt.Sprintf("One.c%d", n)},
		{one.base + Addr(one.size), fmt.Sprintf("0x%x", uint64(one.base)+uint64(one.size))},
		{0, "0x0"},
	} {
		if got := view().LabelFor(c.addr); got != c.want {
			t.Errorf("LabelFor(0x%x) = %q, want %q", uint64(c.addr), got, c.want)
		}
	}
}

// TestLabelMemoConcurrent labels one cold heap shape from several
// goroutines at once, each through its own view of one snapshot — the
// sharing pattern of concurrent scenario workers. Run under
// -race (CI runs it with -count=10) it checks that memo reads and
// publications are properly synchronized; every goroutine must see the
// names a single-threaded heap renders.
func TestLabelMemoConcurrent(t *testing.T) {
	src := NewHeap()
	addrs := labelFixture(src, labelShapes.Add(1))
	snap := src.Snapshot()

	const workers = 4
	got := make([][]string, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			h := snap.Snapshot()
			// Half the goroutines walk backwards, so they fill the cold
			// memo from opposite ends and meet in the middle.
			if w%2 == 0 {
				got[w] = labelsOf(h, addrs)
				return
			}
			rev := slices.Clone(addrs)
			slices.Reverse(rev)
			labels := labelsOf(h, rev)
			slices.Reverse(labels)
			got[w] = labels
		}()
	}
	wg.Wait()
	want := labelsOf(src, addrs)
	for w := range got {
		if !slices.Equal(got[w], want) {
			t.Fatalf("goroutine %d labels differ from a single-threaded heap", w)
		}
	}
}

// TestLabelMemoAllocations pins the allocation costs the memo must not
// raise: a fresh view of a snapshot names an address another heap already
// named without allocating — its first LabelFor included — and
// AllocStruct/AllocArray of an already built layout allocate nothing
// beyond the heap's amortized append.
func TestLabelMemoAllocations(t *testing.T) {
	src := NewHeap()
	addrs := labelFixture(src, labelShapes.Add(1))
	snap := src.Snapshot()
	labelsOf(src, addrs) // warm the memo

	const runs = 50
	heaps := make([]*Heap, runs+1) // AllocsPerRun adds one warm-up call
	for i := range heaps {
		heaps[i] = snap.Snapshot()
	}
	next := 0
	objB := src.allocs[0].base + 8
	elem := src.allocs[1].base + Addr(src.allocs[1].stride) + 10
	if n := testing.AllocsPerRun(runs, func() {
		h := heaps[next]
		next++
		h.LabelFor(objB)
		h.LabelFor(elem)
	}); n != 0 {
		t.Errorf("memo hits on a fresh snapshot view allocate %v times per run, want 0", n)
	}

	l := Layout{{Name: "x", Size: 8}, {Name: "y", Size: 4}}
	h := NewHeap()
	h.AllocStruct("warm", l)
	h.AllocArray("warm", l, 3)
	if n := testing.AllocsPerRun(1000, func() { h.AllocStruct("s", l) }); n != 0 {
		t.Errorf("AllocStruct of a built layout allocates %v times, want 0", n)
	}
	if n := testing.AllocsPerRun(1000, func() { h.AllocArray("a", l, 3) }); n != 0 {
		t.Errorf("AllocArray of a built layout allocates %v times, want 0", n)
	}
}
