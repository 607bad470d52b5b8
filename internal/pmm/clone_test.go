package pmm

import "testing"

// TestCloneIndependence: a cloned heap and its original may be mutated
// independently — the checkpoint layer's snapshots rely on it (a captured
// heap must not change when the probe scenario keeps allocating).
func TestCloneIndependence(t *testing.T) {
	h := NewHeap()
	s := h.AllocStruct("obj", Layout{{Name: "a", Size: 8}, {Name: "b", Size: 8}})
	h.Init(s.F("a"), 8, 11)

	c := h.Clone()
	// Mutate the clone: new allocations and new init writes.
	c.AllocStruct("extra", Layout{{Name: "x", Size: 8}})
	c.AllocArray("arr", Layout{{Name: "y", Size: 8}}, 3)
	c.Init(s.F("b"), 8, 22)

	if got, want := h.AllocCount(), 1; got != want {
		t.Errorf("original AllocCount = %d after mutating clone, want %d", got, want)
	}
	if got, want := len(h.InitWrites()), 1; got != want {
		t.Errorf("original InitWrites = %d after mutating clone, want %d", got, want)
	}
	if h.NextFree() == c.NextFree() {
		t.Error("original NextFree tracked the clone's allocations")
	}
	if _, ok := h.StructAt(c.allocs[1].base); ok {
		t.Error("original resolves an allocation made only in the clone")
	}

	// And the other direction: mutating the original must not leak into the
	// clone.
	h.AllocRaw("raw", 64)
	h.Init(s.F("a"), 8, 99)
	if got, want := c.AllocCount(), 3; got != want {
		t.Errorf("clone AllocCount = %d after mutating original, want %d", got, want)
	}
	if got, want := len(c.InitWrites()), 2; got != want {
		t.Errorf("clone InitWrites = %d after mutating original, want %d", got, want)
	}

	// Restore grafts a snapshot's state into a live heap and must detach from
	// the source the same way.
	h2 := NewHeap()
	o2 := h2.AllocStruct("obj", Layout{{Name: "a", Size: 8}, {Name: "b", Size: 8}})
	h2.Restore(c)
	h2.AllocStruct("post", Layout{{Name: "p", Size: 8}})
	h2.Init(o2.F("b"), 8, 77) // appends to the restored init-write slice
	if got, want := c.AllocCount(), 3; got != want {
		t.Errorf("restore source AllocCount = %d after mutating target, want %d", got, want)
	}
	if got, want := len(c.InitWrites()), 2; got != want {
		t.Errorf("restore source InitWrites = %d after the target wrote, want %d", got, want)
	}
}

// SnapshotAt views the heap as it stood at a recorded shape: restoring the
// view reproduces exactly what a Snapshot taken then would have restored,
// whatever was allocated or initialized since.
func TestSnapshotAtMatchesEarlierSnapshot(t *testing.T) {
	h := NewHeap()
	s := h.AllocStruct("obj", Layout{{Name: "a", Size: 8}, {Name: "b", Size: 8}})
	h.Init(s.F("a"), 8, 11)
	then := h.Snapshot()
	next, allocs, inits := h.NextFree(), h.AllocCount(), len(h.InitWrites())

	h.AllocArray("arr", Layout{{Name: "y", Size: 8}}, 3)
	h.Init(s.F("b"), 8, 22)

	a, b := NewHeap(), NewHeap()
	a.Restore(then)
	b.Restore(h.SnapshotAt(next, allocs, inits))
	if a.NextFree() != b.NextFree() || a.AllocCount() != b.AllocCount() || len(a.InitWrites()) != len(b.InitWrites()) {
		t.Fatalf("SnapshotAt restored shape (%d, %d, %d), Snapshot then (%d, %d, %d)",
			b.NextFree(), b.AllocCount(), len(b.InitWrites()), a.NextFree(), a.AllocCount(), len(a.InitWrites()))
	}
	if got, want := b.LabelFor(s.F("a")), a.LabelFor(s.F("a")); got != want {
		t.Fatalf("label %q, want %q", got, want)
	}
	if b.InitWrites()[0] != a.InitWrites()[0] {
		t.Fatalf("init write %+v, want %+v", b.InitWrites()[0], a.InitWrites()[0])
	}
}
