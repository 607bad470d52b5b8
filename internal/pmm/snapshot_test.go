package pmm

import "testing"

// TestSnapshotIndependence: a snapshot view and its source may be mutated
// independently, and so may two views of one snapshot — the checkpoint
// layer relies on both: a crash point's view must not change when the
// probe keeps allocating, and every scenario resumed from one snapshot
// recovers on its own header over it, so what one recovery allocates no
// other may see.
func TestSnapshotIndependence(t *testing.T) {
	h := NewHeap()
	s := h.AllocStruct("obj", Layout{{Name: "a", Size: 8}, {Name: "b", Size: 8}})
	h.Init(s.F("a"), 8, 11)

	c := h.Snapshot()
	// Mutate the view: new allocations and new init writes.
	c.AllocStruct("extra", Layout{{Name: "x", Size: 8}})
	c.AllocArray("arr", Layout{{Name: "y", Size: 8}}, 3)
	c.Init(s.F("b"), 8, 22)

	if got, want := h.AllocCount(), 1; got != want {
		t.Errorf("source AllocCount = %d after mutating the view, want %d", got, want)
	}
	if got, want := len(h.InitWrites()), 1; got != want {
		t.Errorf("source InitWrites = %d after mutating the view, want %d", got, want)
	}
	if h.NextFree() == c.NextFree() {
		t.Error("source NextFree tracked the view's allocations")
	}
	if _, ok := h.StructAt(c.allocs[1].base); ok {
		t.Error("source resolves an allocation made only in the view")
	}

	// And the other direction: mutating the source must not leak into the
	// view.
	h.AllocStruct("more", Layout{{"x", 8}})
	h.Init(s.F("a"), 8, 99)
	if got, want := c.AllocCount(), 3; got != want {
		t.Errorf("view AllocCount = %d after mutating source, want %d", got, want)
	}
	if got, want := len(c.InitWrites()), 2; got != want {
		t.Errorf("view InitWrites = %d after mutating source, want %d", got, want)
	}

	// Two views of one snapshot place their first allocations at the same
	// address, and each resolves only its own.
	snap := c.Snapshot()
	v1, v2 := snap.Snapshot(), snap.Snapshot()
	p1 := v1.AllocStruct("post1", Layout{{Name: "p", Size: 8}})
	p2 := v2.AllocStruct("post2", Layout{{Name: "q", Size: 8}})
	v2.Init(s.F("b"), 8, 77)
	if p1.Base() != p2.Base() {
		t.Fatalf("sibling views placed their first allocations at 0x%x and 0x%x", uint64(p1.Base()), uint64(p2.Base()))
	}
	if got, _ := v1.StructAt(p1.Base()); got.Label() != "post1" {
		t.Errorf("first view resolves %q at its allocation, want post1", got.Label())
	}
	if got, _ := v2.StructAt(p2.Base()); got.Label() != "post2" {
		t.Errorf("second view resolves %q at its allocation, want post2", got.Label())
	}
	if got, want := len(v1.InitWrites()), 2; got != want {
		t.Errorf("first view InitWrites = %d after its sibling wrote, want %d", got, want)
	}
	if _, ok := snap.StructAt(p1.Base()); ok || snap.AllocCount() != 3 || len(snap.InitWrites()) != 2 {
		t.Error("the shared snapshot changed under its views' allocations")
	}
}

// SnapshotAt views the heap as it stood at a recorded shape: the view is
// exactly what a Snapshot taken then would have been, whatever was
// allocated or initialized since.
func TestSnapshotAtMatchesEarlierSnapshot(t *testing.T) {
	h := NewHeap()
	s := h.AllocStruct("obj", Layout{{Name: "a", Size: 8}, {Name: "b", Size: 8}})
	h.Init(s.F("a"), 8, 11)
	then := h.Snapshot()
	next, allocs, inits := h.NextFree(), h.AllocCount(), len(h.InitWrites())

	h.AllocArray("arr", Layout{{Name: "y", Size: 8}}, 3)
	h.Init(s.F("b"), 8, 22)

	a, b := then, h.SnapshotAt(next, allocs, inits)
	if a.NextFree() != b.NextFree() || a.AllocCount() != b.AllocCount() || len(a.InitWrites()) != len(b.InitWrites()) {
		t.Fatalf("SnapshotAt shape (%d, %d, %d), Snapshot then (%d, %d, %d)",
			b.NextFree(), b.AllocCount(), len(b.InitWrites()), a.NextFree(), a.AllocCount(), len(a.InitWrites()))
	}
	if got, want := b.LabelFor(s.F("a")), a.LabelFor(s.F("a")); got != want {
		t.Fatalf("label %q, want %q", got, want)
	}
	if b.InitWrites()[0] != a.InitWrites()[0] {
		t.Fatalf("init write %+v, want %+v", b.InitWrites()[0], a.InitWrites()[0])
	}
}
