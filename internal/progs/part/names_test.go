package part

import (
	"fmt"
	"slices"
	"testing"

	"yashme/internal/pmm"
)

// TestNameTablesMatchLayouts checks the precomputed field names and the
// positional accessors against the names fmt would build: every slot's
// key and child, and both header counters, must resolve to the address
// Struct.F finds for that name, for each node capacity, both on a freshly
// allocated node and on one reattached from its address as recovery does.
func TestNameTablesMatchLayouts(t *testing.T) {
	for i := 0; i < N16Cap; i++ {
		if keyNames[i] != fmt.Sprintf("key%d", i) || childNames[i] != fmt.Sprintf("child%d", i) {
			t.Fatalf("slot %d names %q/%q", i, keyNames[i], childNames[i])
		}
	}
	for _, cap := range []int{N4Cap, N16Cap} {
		if !slices.Equal(nodeLayouts[cap], nodeLayout(cap)) {
			t.Fatalf("cached N%d layout differs from a freshly built one", cap)
		}
		h := pmm.NewHeap()
		alloc := allocNodeInit(h, cap)
		reattached, ok := nodeAt(pmm.NewThread(nil, h), alloc.base())
		if !ok || reattached.cap != cap {
			t.Fatalf("N%d node did not reattach with its capacity", cap)
		}
		for _, n := range []node{alloc, reattached} {
			s := n.s
			if n.compactCount() != s.F("compactCount") || n.count() != s.F("count") {
				t.Fatalf("N%d header accessors disagree with Struct.F", cap)
			}
			for i := 0; i < cap; i++ {
				if n.key(i) != s.F(fmt.Sprintf("key%d", i)) {
					t.Fatalf("N%d key(%d) = 0x%x, Struct.F = 0x%x", cap, i, n.key(i), s.F(fmt.Sprintf("key%d", i)))
				}
				if n.child(i) != s.F(fmt.Sprintf("child%d", i)) {
					t.Fatalf("N%d child(%d) = 0x%x, Struct.F = 0x%x", cap, i, n.child(i), s.F(fmt.Sprintf("child%d", i)))
				}
			}
		}
	}
}
