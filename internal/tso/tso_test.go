package tso

import (
	"testing"
	"testing/quick"

	"yashme/internal/pmm"
	"yashme/internal/vclock"
)

// threadCV returns a materialized copy of the thread's current
// happens-before clock.
func (m *Machine) threadCV(tid vclock.TID) vclock.VC {
	m.checkTID(tid)
	return m.clocks.MaterializeInto(nil, m.snapshot(tid))
}

// recorder captures listener events for assertions.
type recorder struct {
	stores    []*CommittedStore
	clflushes []struct {
		tid  vclock.TID
		addr pmm.Addr
		seq  vclock.Seq
		cv   vclock.Stamp
	}
	clwbBuf []FBEntry
	clwbPer []struct {
		flush    FBEntry
		fenceTID vclock.TID
		fenceSeq vclock.Seq
		fenceCV  vclock.Stamp
	}
	fences []vclock.Seq
}

func (r *recorder) StoreCommitted(rec *CommittedStore) { r.stores = append(r.stores, rec) }
func (r *recorder) CLFlushCommitted(tid vclock.TID, addr pmm.Addr, seq vclock.Seq, cv vclock.Stamp) {
	r.clflushes = append(r.clflushes, struct {
		tid  vclock.TID
		addr pmm.Addr
		seq  vclock.Seq
		cv   vclock.Stamp
	}{tid, addr, seq, cv})
}
func (r *recorder) CLWBBuffered(tid vclock.TID, addr pmm.Addr, cv vclock.Stamp) {
	r.clwbBuf = append(r.clwbBuf, FBEntry{Addr: addr, CV: cv, TID: tid})
}
func (r *recorder) CLWBPersisted(flush FBEntry, fenceTID vclock.TID, fenceSeq vclock.Seq, fenceCV vclock.Stamp) {
	r.clwbPer = append(r.clwbPer, struct {
		flush    FBEntry
		fenceTID vclock.TID
		fenceSeq vclock.Seq
		fenceCV  vclock.Stamp
	}{flush, fenceTID, fenceSeq, fenceCV})
}
func (r *recorder) FenceCommitted(tid vclock.TID, seq vclock.Seq, cv vclock.Stamp) {
	r.fences = append(r.fences, seq)
}

func TestStoreBufferFIFO(t *testing.T) {
	r := &recorder{}
	m := NewMachine(r, nil)
	m.EnqueueStore(0, 8, 8, 1, false, false)
	m.EnqueueStore(0, 16, 8, 2, false, false)
	m.EnqueueStore(0, 24, 8, 3, false, false)
	if m.SBLen(0) != 3 {
		t.Fatalf("SBLen = %d, want 3", m.SBLen(0))
	}
	m.DrainSB(0)
	if len(r.stores) != 3 {
		t.Fatalf("committed %d stores, want 3", len(r.stores))
	}
	for i, want := range []uint64{1, 2, 3} {
		if r.stores[i].Val != want {
			t.Errorf("store %d val = %d, want %d (FIFO violated)", i, r.stores[i].Val, want)
		}
		if r.stores[i].Seq != vclock.Seq(i+1) {
			t.Errorf("store %d seq = %d, want %d", i, r.stores[i].Seq, i+1)
		}
	}
}

func TestStoreBufferBypass(t *testing.T) {
	m := NewMachine(nil, nil)
	m.SeedMemory(8, 8, 100)
	m.EnqueueStore(0, 8, 8, 200, false, false)
	// Issuing thread sees its own buffered store.
	if v, _ := m.Load(0, 8, 8, false); v != 200 {
		t.Errorf("own thread load = %d, want 200 (bypass)", v)
	}
	// Another thread still sees the old value.
	if v, _ := m.Load(1, 8, 8, false); v != 100 {
		t.Errorf("other thread load = %d, want 100", v)
	}
	m.DrainSB(0)
	if v, _ := m.Load(1, 8, 8, false); v != 200 {
		t.Errorf("after drain, other thread load = %d, want 200", v)
	}
}

func TestBypassReturnsNewestBufferedStore(t *testing.T) {
	m := NewMachine(nil, nil)
	m.EnqueueStore(0, 8, 8, 1, false, false)
	m.EnqueueStore(0, 8, 8, 2, false, false)
	if v, _ := m.Load(0, 8, 8, false); v != 2 {
		t.Errorf("load = %d, want newest buffered store 2", v)
	}
}

func TestLoadOfUnwrittenAddressIsZero(t *testing.T) {
	m := NewMachine(nil, nil)
	if v, rec := m.Load(0, 4096, 8, false); v != 0 || rec != nil {
		t.Errorf("unwritten load = (%d, %v), want (0, nil)", v, rec)
	}
}

func TestCLFlushCommitOrderAndClock(t *testing.T) {
	r := &recorder{}
	m := NewMachine(r, nil)
	m.EnqueueStore(0, 8, 8, 1, false, false)
	m.EnqueueCLFlush(0, 8)
	m.DrainSB(0)
	if len(r.clflushes) != 1 {
		t.Fatalf("clflush events = %d, want 1", len(r.clflushes))
	}
	cf := r.clflushes[0]
	if cf.seq != 2 {
		t.Errorf("clflush seq = %d, want 2 (after the store)", cf.seq)
	}
	// The clflush clock must cover the earlier same-thread store.
	if !m.clocks.Contains(cf.cv, 0, r.stores[0].Seq) {
		t.Errorf("clflush CV %v does not cover the store (seq %d)", m.clocks.MaterializeInto(nil, cf.cv), r.stores[0].Seq)
	}
}

func TestCLWBNeedsFence(t *testing.T) {
	r := &recorder{}
	m := NewMachine(r, nil)
	m.EnqueueStore(0, 8, 8, 1, false, false)
	m.EnqueueCLWB(0, 8)
	m.DrainSB(0)
	if len(r.clwbBuf) != 1 || len(r.clwbPer) != 0 {
		t.Fatalf("clwb buffered=%d persisted=%d, want 1/0 before fence", len(r.clwbBuf), len(r.clwbPer))
	}
	if len(m.fb[0]) != 1 {
		t.Fatalf("flush buffer length = %d, want 1", len(m.fb[0]))
	}
	m.EnqueueSFence(0)
	m.DrainSB(0)
	if len(r.clwbPer) != 1 {
		t.Fatalf("clwb persisted=%d after sfence, want 1", len(r.clwbPer))
	}
	if len(m.fb[0]) != 0 {
		t.Fatalf("flush buffer length = %d after sfence, want 0", len(m.fb[0]))
	}
	p := r.clwbPer[0]
	if !m.clocks.Contains(p.flush.CV, 0, r.stores[0].Seq) {
		t.Errorf("persisted clwb CV does not cover the store")
	}
	if p.fenceSeq <= r.stores[0].Seq {
		t.Errorf("fence seq %d not after store seq %d", p.fenceSeq, r.stores[0].Seq)
	}
}

func TestSFenceOnlyFlushesOwnThread(t *testing.T) {
	r := &recorder{}
	m := NewMachine(r, nil)
	m.EnqueueCLWB(1, 8)
	m.DrainSB(1)
	m.EnqueueSFence(0)
	m.DrainSB(0)
	if len(r.clwbPer) != 0 {
		t.Fatal("thread 0's sfence persisted thread 1's clwb")
	}
	if len(m.fb[1]) != 1 {
		t.Fatal("thread 1's flush buffer was disturbed")
	}
}

func TestMFenceDrainsAndPersists(t *testing.T) {
	r := &recorder{}
	m := NewMachine(r, nil)
	m.EnqueueStore(0, 8, 8, 7, false, false)
	m.EnqueueCLWB(0, 8)
	m.MFence(0)
	if m.SBLen(0) != 0 || len(m.fb[0]) != 0 {
		t.Fatal("mfence left buffered operations")
	}
	if len(r.stores) != 1 || len(r.clwbPer) != 1 || len(r.fences) != 1 {
		t.Fatalf("events after mfence: stores=%d clwbPer=%d fences=%d", len(r.stores), len(r.clwbPer), len(r.fences))
	}
}

func TestReleaseAcquirePropagatesClock(t *testing.T) {
	m := NewMachine(nil, nil)
	// Thread 0: non-atomic store to x, release store to flag.
	m.EnqueueStore(0, 8, 8, 42, false, false)
	m.EnqueueStore(0, 16, 8, 1, true, true)
	m.DrainSB(0)
	storeSeq := vclock.Seq(1)
	// Thread 1 acquire-loads flag: its clock must now cover the store to x.
	if v, _ := m.Load(1, 16, 8, true); v != 1 {
		t.Fatalf("flag = %d", v)
	}
	if !m.threadCV(1).Contains(0, storeSeq) {
		t.Errorf("acquire did not propagate clock: %v", m.threadCV(1))
	}
}

func TestPlainLoadDoesNotAcquire(t *testing.T) {
	m := NewMachine(nil, nil)
	m.EnqueueStore(0, 8, 8, 42, false, false)
	m.EnqueueStore(0, 16, 8, 1, true, true)
	m.DrainSB(0)
	m.Load(1, 16, 8, false) // non-acquire load
	if m.threadCV(1).Contains(0, 1) {
		t.Error("plain load propagated the publisher's clock")
	}
}

func TestRMWSemantics(t *testing.T) {
	r := &recorder{}
	m := NewMachine(r, nil)
	m.SeedMemory(8, 8, 5)
	m.EnqueueStore(0, 16, 8, 9, false, false) // pending store to force a drain
	old, wrote := m.RMW(0, 8, 8, func(cur uint64) (uint64, bool) {
		return cur + 1, true
	})
	if old != 5 || !wrote {
		t.Fatalf("RMW = (%d, %v), want (5, true)", old, wrote)
	}
	if m.SBLen(0) != 0 {
		t.Error("RMW did not drain the store buffer")
	}
	if v, _ := m.Load(1, 8, 8, false); v != 6 {
		t.Errorf("post-RMW value = %d, want 6", v)
	}
	// The RMW's committed store must be atomic+release.
	last := r.stores[len(r.stores)-1]
	if !last.Atomic || !last.Release {
		t.Error("RMW store not atomic release")
	}
}

func TestRMWFailedCASDoesNotWrite(t *testing.T) {
	r := &recorder{}
	m := NewMachine(r, nil)
	m.SeedMemory(8, 8, 5)
	old, wrote := m.RMW(0, 8, 8, func(cur uint64) (uint64, bool) {
		return 0, false
	})
	if old != 5 || wrote {
		t.Fatalf("failed CAS = (%d, %v), want (5, false)", old, wrote)
	}
	if len(r.stores) != 0 {
		t.Error("failed CAS committed a store")
	}
	if v, _ := m.Load(0, 8, 8, false); v != 5 {
		t.Errorf("value changed by failed CAS: %d", v)
	}
}

func TestTruncationBySize(t *testing.T) {
	m := NewMachine(nil, nil)
	m.EnqueueStore(0, 8, 8, 0x1122334455667788, false, false)
	m.DrainSB(0)
	for size, want := range map[int]uint64{
		1: 0x88, 2: 0x7788, 4: 0x55667788, 8: 0x1122334455667788,
	} {
		if v, _ := m.Load(0, 8, size, false); v != want {
			t.Errorf("load size %d = %#x, want %#x", size, v, want)
		}
	}
}

func TestSeededMemoryHasNoClock(t *testing.T) {
	m := NewMachine(nil, nil)
	m.SeedMemory(8, 8, 77)
	v, rec := m.Load(0, 8, 8, false)
	if v != 77 || rec == nil || rec.Seq != 0 {
		t.Fatalf("seeded load = (%d, %+v)", v, rec)
	}
}

func TestVolatileValueAndAddresses(t *testing.T) {
	m := NewMachine(nil, nil)
	m.EnqueueStore(0, 8, 8, 1, false, false)
	m.EnqueueStore(0, 72, 8, 2, false, false)
	m.DrainSB(0)
	if rec, ok := m.VolatileValue(8); !ok || rec.Val != 1 {
		t.Error("VolatileValue(8) wrong")
	}
	if _, ok := m.VolatileValue(16); ok {
		t.Error("VolatileValue of unwritten address reported ok")
	}
}

// Property: sequence numbers are strictly increasing and unique across any
// interleaving of commits from multiple threads.
func TestSeqStrictlyIncreasingProperty(t *testing.T) {
	f := func(script []uint8) bool {
		r := &recorder{}
		m := NewMachine(r, nil)
		for i, b := range script {
			tid := vclock.TID(b % 3)
			switch (b / 3) % 4 {
			case 0:
				m.EnqueueStore(tid, pmm.Addr(8*(i%10+1)), 8, uint64(i), false, false)
			case 1:
				m.EnqueueCLFlush(tid, pmm.Addr(8*(i%10+1)))
			case 2:
				m.EnqueueSFence(tid)
			case 3:
				m.EvictOne(tid)
			}
		}
		for tid := vclock.TID(0); tid < 3; tid++ {
			m.DrainSB(tid)
		}
		var seqs []vclock.Seq
		for _, s := range r.stores {
			seqs = append(seqs, s.Seq)
		}
		for _, c := range r.clflushes {
			seqs = append(seqs, c.seq)
		}
		for _, fs := range r.fences {
			seqs = append(seqs, fs)
		}
		seen := make(map[vclock.Seq]bool)
		for _, s := range seqs {
			if s == 0 || seen[s] {
				return false
			}
			seen[s] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: per-thread commit order preserves program (enqueue) order.
func TestPerThreadProgramOrderProperty(t *testing.T) {
	f := func(vals []uint8) bool {
		r := &recorder{}
		m := NewMachine(r, nil)
		for i := range vals {
			m.EnqueueStore(0, pmm.Addr(8*(i+1)), 8, uint64(i), false, false)
		}
		// Interleave with another thread's activity.
		m.EnqueueStore(1, 4096, 8, 99, false, false)
		m.EvictOne(1)
		m.DrainSB(0)
		idx := 0
		for _, s := range r.stores {
			if s.TID != 0 {
				continue
			}
			if s.Val != uint64(idx) {
				return false
			}
			idx++
		}
		return idx == len(vals)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// A store buffer that keeps a backlog (random mode leaves up to 8 entries
// pending and rarely drains fully) and a flush buffer emptied by every fence
// must reuse their arrays: once warm, a steady store/clwb/sfence/evict loop
// on a machine drawn from the retirement pool allocates nothing per
// iteration. Records come from 64-slot slab chunks, which the integer
// average AllocsPerRun reports rounds to zero; a buffer that lost its array
// on pops would allocate on every enqueue.
func TestSteadyBufferLoopDoesNotAllocate(t *testing.T) {
	m := NewMachine(nil, nil)
	m.SpawnThreads(2)
	for i := 0; i < 16; i++ {
		m.EnqueueStore(1, pmm.Addr(8*i), 8, uint64(i), false, false)
	}
	Retire(m)
	m = NewMachine(nil, nil)
	m.SpawnThreads(2)
	m.ReserveMemory(4096)
	var a pmm.Addr
	for tid := vclock.TID(0); tid < 2; tid++ {
		for i := 0; i < 4; i++ { // backlog that never drains
			m.EnqueueStore(tid, 8, 8, 0, false, false)
		}
	}
	allocs := testing.AllocsPerRun(1000, func() {
		for tid := vclock.TID(0); tid < 2; tid++ {
			a = (a + 8) % 4096
			m.EnqueueStore(tid, a, 8, uint64(a), false, false)
			m.EnqueueCLWB(tid, a)
			m.EnqueueSFence(tid)
			for k := 0; k < 3; k++ {
				m.EvictOne(tid)
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("steady buffer loop allocates %v times per iteration", allocs)
	}
	if n := m.SBLen(0); n != 4 {
		t.Fatalf("backlog = %d entries, want 4", n)
	}
}
