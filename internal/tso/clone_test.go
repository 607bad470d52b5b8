package tso

import (
	"testing"

	"yashme/internal/pmm"
	"yashme/internal/vclock"
)

// TestCloneIndependence: a cloned machine and its original may run on
// independently — buffered state, clocks and committed memory must not leak
// either way. (The engine's checkpoint layer does not snapshot machines, but
// Clone keeps the storage system snapshottable for tooling; see Clone's doc.)
func TestCloneIndependence(t *testing.T) {
	m := NewMachine(nil)
	m.EnqueueStore(1, 0x1000, 8, 42, false, false)
	m.EnqueueCLWB(1, 0x1000)
	m.EvictOne(1)                                 // commit the store
	m.EvictOne(1)                                 // clwb moves to the flush buffer
	m.EnqueueStore(1, 0x1008, 8, 7, false, false) // stays buffered

	c := m.Clone(nil)
	seq := m.CurSeq()

	// Run the clone forward: drain thread 1, fence, and commit a second
	// thread's store.
	c.DrainSB(1)
	c.MFence(1)
	c.EnqueueStore(2, 0x2000, 8, 9, true, true)
	c.DrainSB(2)

	if m.CurSeq() != seq {
		t.Errorf("original CurSeq advanced to %d while only the clone ran", m.CurSeq())
	}
	if got := m.SBLen(1); got != 1 {
		t.Errorf("original SBLen(1) = %d after draining the clone, want 1", got)
	}
	if got := m.FBLen(1); got != 1 {
		t.Errorf("original FBLen(1) = %d after fencing the clone, want 1", got)
	}
	if _, ok := m.VolatileValue(0x2000); ok {
		t.Error("original sees a store committed only on the clone")
	}
	if _, ok := m.VolatileValue(0x1008); ok {
		t.Error("original sees a buffered store the clone committed")
	}
	// Clock independence: the clone's acquire joined thread 2's release;
	// the original's clock for thread 1 must not have moved.
	if got := m.ThreadCV(1).Get(1); got != 1 {
		t.Errorf("original ThreadCV(1)[1] = %d, want 1", got)
	}

	// The other direction: run the original forward and check the clone.
	cSeq := c.CurSeq()
	m.DrainSB(1)
	m.MFence(1)
	if c.CurSeq() != cSeq {
		t.Errorf("clone CurSeq advanced to %d while only the original ran", c.CurSeq())
	}
	v, ok := c.VolatileValue(0x1000)
	if !ok || v.Val != 42 {
		t.Errorf("clone lost the shared committed store: %+v, %v", v, ok)
	}

	// Slice-backed state: grow the original's per-thread buffers and clock
	// range after the clone. Shared backing arrays would let these writes
	// surface in the clone (and trip -race).
	cCV := c.ThreadCV(1).Max()
	m.EnqueueStore(3, 0x3000, 8, 1, false, false) // grows sb/fb/cv to thread 3
	m.EnqueueStore(1, 0x1010, 8, 5, false, false) // appends to thread 1's buffer
	if got := c.SBLen(3); got != 0 {
		t.Errorf("clone SBLen(3) = %d after the original grew to thread 3, want 0", got)
	}
	if got := c.SBLen(1); got != 0 {
		t.Errorf("clone SBLen(1) = %d after the original enqueued, want 0", got)
	}
	if got := c.ThreadCV(1).Max(); got != cCV {
		t.Errorf("clone ThreadCV(1) moved %d -> %d when only the original ran", cCV, got)
	}
}

// TestClonedMachineNeverReusesChunks: a clone's memory view shares the
// original's committed records, so a recycled original must not mint
// records into its old chunks. Directly: the first record slot after
// recycling is a fresh one. Through the pool: fresh machines commit other
// values over the same addresses after the original retired, and the
// clone must still read the original values.
func TestClonedMachineNeverReusesChunks(t *testing.T) {
	const n = 3*recChunk + 5
	addr := func(i int) pmm.Addr { return pmm.Addr(0x1000 + 8*i) }
	commit := func(m *Machine, base uint64) {
		for i := 0; i < n; i++ {
			m.EnqueueStore(0, addr(i), 8, base+uint64(i), false, false)
		}
		m.DrainSB(0)
	}
	m := NewMachine(nil)
	commit(m, 0)
	first, _ := m.VolatileValue(addr(0))
	m.Clone(nil)
	m.recycle()
	if m.newRecord() == first {
		t.Fatal("a recycled machine that was cloned handed out a record slot the clone shares")
	}

	m = NewMachine(nil)
	commit(m, 0)
	c := m.Clone(nil)
	Retire(m)
	for k := 0; k < 4; k++ {
		o := NewMachine(nil)
		commit(o, 1000*uint64(k+1))
		Retire(o)
	}
	for i := 0; i < n; i++ {
		rec, ok := c.VolatileValue(addr(i))
		if !ok || rec.Val != uint64(i) || rec.Seq != vclock.Seq(i+1) {
			t.Fatalf("clone's record %d was overwritten after the original retired: %+v", i, rec)
		}
	}
}

// TestRetiredMachineReusesChunks: a machine that was never cloned starts
// over at its first record chunk once recycled, so a warm machine mints
// records without allocating.
func TestRetiredMachineReusesChunks(t *testing.T) {
	m := NewMachine(nil)
	m.EnqueueStore(0, 0x1000, 8, 1, false, false)
	m.DrainSB(0)
	first, _ := m.VolatileValue(0x1000)
	m.recycle()
	if m.newRecord() != first {
		t.Fatal("a recycled machine that was never cloned did not reuse its first record chunk")
	}
}
