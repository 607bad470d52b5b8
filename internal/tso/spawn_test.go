package tso

import (
	"testing"

	"yashme/internal/pmm"
	"yashme/internal/vclock"
)

// The slice-backed per-thread state indexes directly by TID, which is only
// sound while TIDs are dense: threads 0..n-1, no gaps. These tests document
// the invariant and prove violations fail loudly instead of mis-indexing.

func mustPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s did not panic", what)
		}
	}()
	f()
}

func TestSpawnThreadsDeclaresDenseRange(t *testing.T) {
	m := NewMachine(nil, nil)
	m.SpawnThreads(3)
	for tid := 0; tid < 3; tid++ {
		m.EnqueueStore(vclock.TID(tid), 0x1000+pmm.Addr(8*tid), 8, uint64(tid), false, false)
		m.DrainSB(vclock.TID(tid))
	}
	if m.CurSeq() != 3 {
		t.Fatalf("CurSeq = %d after 3 commits, want 3", m.CurSeq())
	}
}

func TestUndeclaredTIDOutsideSpawnedRangePanics(t *testing.T) {
	m := NewMachine(nil, nil)
	m.SpawnThreads(2)
	mustPanic(t, "EnqueueStore with TID 5 after SpawnThreads(2)", func() {
		m.EnqueueStore(5, 0x1000, 8, 1, false, false)
	})
	mustPanic(t, "Load with TID 2 after SpawnThreads(2)", func() {
		m.Load(2, 0x1000, 8, false)
	})
	mustPanic(t, "MFence with negative TID", func() {
		m.MFence(-1)
	})
}

func TestSpawnThreadsCannotShrink(t *testing.T) {
	m := NewMachine(nil, nil)
	m.SpawnThreads(4)
	mustPanic(t, "SpawnThreads(2) after SpawnThreads(4)", func() {
		m.SpawnThreads(2)
	})
	// Growing the declared range (e.g. recovery spawning more workers than
	// the pre-crash run) is allowed.
	m.SpawnThreads(6)
	m.EnqueueStore(5, 0x1000, 8, 1, false, false)
}

func TestOnDemandGrowthIsCapped(t *testing.T) {
	m := NewMachine(nil, nil)
	// Without a declaration the machine grows dense slots on demand...
	m.EnqueueStore(2, 0x1000, 8, 1, false, false)
	if got := m.SBLen(2); got != 1 {
		t.Fatalf("SBLen(2) = %d, want 1", got)
	}
	// ...but a corrupt TID still fails loudly instead of allocating a
	// gigantic table.
	mustPanic(t, "EnqueueStore with TID >= MaxThreads", func() {
		m.EnqueueStore(MaxThreads, 0x1000, 8, 1, false, false)
	})
}
