package pmasstree

import (
	"fmt"
	"testing"

	"yashme/internal/pmm"
)

// TestNameTablesMatchLayout checks the precomputed field names and the
// positional accessors against the names fmt would build: every slot's
// key and val, and the permutation and next words, must resolve to the
// address Struct.F finds for that name, on a leaf both as allocated and as
// reattached from its address by recovery.
func TestNameTablesMatchLayout(t *testing.T) {
	for i := 0; i < LeafWidth; i++ {
		if keyNames[i] != fmt.Sprintf("key%d", i) || valNames[i] != fmt.Sprintf("val%d", i) {
			t.Fatalf("slot %d names %q/%q", i, keyNames[i], valNames[i])
		}
	}
	h := pmm.NewHeap()
	alloc := leaf{s: h.AllocStruct("leafnode", leafLayout)}
	reattached, ok := leafAt(pmm.NewThread(nil, h), uint64(alloc.s.Base()))
	if !ok {
		t.Fatal("leaf did not reattach from its address")
	}
	for _, l := range []leaf{alloc, reattached} {
		s := l.s
		if l.permutation() != s.F("permutation") || l.next() != s.F("next") {
			t.Fatal("header accessors disagree with Struct.F")
		}
		for i := 0; i < LeafWidth; i++ {
			if l.key(i) != s.F(fmt.Sprintf("key%d", i)) {
				t.Fatalf("key(%d) = 0x%x, Struct.F = 0x%x", i, l.key(i), s.F(fmt.Sprintf("key%d", i)))
			}
			if l.val(i) != s.F(fmt.Sprintf("val%d", i)) {
				t.Fatalf("val(%d) = 0x%x, Struct.F = 0x%x", i, l.val(i), s.F(fmt.Sprintf("val%d", i)))
			}
		}
	}
}
