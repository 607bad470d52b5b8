package pmm

// Ops is the low-level event surface a simulated thread reports to the
// engine. It corresponds to the set of LLVM IR operations Yashme's compiler
// pass intercepts: loads, stores (atomic and non-atomic), locked RMW,
// clflush, clwb, sfence and mfence. The engine implements Ops; workloads use
// the higher-level Thread wrapper.
type Ops interface {
	// TID returns the simulated thread id.
	TID() int

	// Store issues a store of size bytes (1, 2, 4 or 8). atomic marks a
	// language-level atomic store; release additionally gives it release
	// semantics (publishes the thread's happens-before clock).
	Store(a Addr, size int, v uint64, atomic, release bool)

	// Load issues a load. acquire joins the happens-before clock published
	// by the release store it reads from.
	Load(a Addr, size int, atomic, acquire bool) uint64

	// RMW executes a locked read-modify-write: it has mfence semantics
	// (drains the store buffer and flush buffer) and applies f atomically.
	// f returns the new value and whether to write it (false = CAS failure).
	RMW(a Addr, size int, f func(old uint64) (new uint64, write bool)) (old uint64, wrote bool)

	// CLFlush / CLWB issue cache-line flush operations on the line of a.
	CLFlush(a Addr)
	CLWB(a Addr)

	// SFence / MFence issue store and full memory fences.
	SFence()
	MFence()

	// Yield introduces a scheduling point without a memory operation.
	Yield()

	// SetChecksumGuard marks subsequent loads as feeding a checksum
	// validation procedure. Races observed by guarded loads are classified
	// as benign (paper §7.5): even if the program reads partially-persistent
	// data, the checksum check rejects it before use.
	SetChecksumGuard(on bool)
}

// Spawner is the optional Ops capability for mid-execution thread creation.
// Engines that control scheduling implement it so a workload thread can start
// a sibling simulated thread (Thread.Go); Ops implementations without it
// simply cannot run spawning workloads.
type Spawner interface {
	// Spawn registers fn as a new simulated thread, runnable from the next
	// scheduling point.
	Spawn(fn func(*Thread))
}

// Thread is the handle a workload function receives. It wraps Ops with
// sized convenience methods and composite memset/memcpy operations
// (decomposed into field-granular non-atomic stores, modelling the libc
// calls compilers emit — the paper's Table 2 store optimizations).
type Thread struct {
	ops  Ops
	heap *Heap
}

// NewThread wraps an Ops implementation; called by the engine.
func NewThread(ops Ops, heap *Heap) *Thread { return &Thread{ops: ops, heap: heap} }

// ID returns the simulated thread id.
func (t *Thread) ID() int { return t.ops.TID() }

// Heap returns the heap of the execution the thread runs in. Workload and
// recovery code reach the heap only through it — to allocate at run time
// and to resolve persisted pointers (StructAt, ArrayAt, NextAllocBase) —
// never through a *Heap captured in Setup: a resumed scenario recovers on
// its own heap, not on the one its program's Setup built.
func (t *Thread) Heap() *Heap { return t.heap }

// Store8/16/32/64 issue non-atomic stores — the store kind persistency races
// are defined over (Definition 5.1 condition 1).
func (t *Thread) Store8(a Addr, v uint8)   { t.ops.Store(a, 1, uint64(v), false, false) }
func (t *Thread) Store16(a Addr, v uint16) { t.ops.Store(a, 2, uint64(v), false, false) }
func (t *Thread) Store32(a Addr, v uint32) { t.ops.Store(a, 4, uint64(v), false, false) }
func (t *Thread) Store64(a Addr, v uint64) { t.ops.Store(a, 8, v, false, false) }

// Store issues a non-atomic store of an explicit size.
func (t *Thread) Store(a Addr, size int, v uint64) { t.ops.Store(a, size, v, false, false) }

// StoreRelease issues an atomic store with release ordering.
func (t *Thread) StoreRelease(a Addr, size int, v uint64) { t.ops.Store(a, size, v, true, true) }

// StoreRelease64 issues an 8-byte atomic release store.
func (t *Thread) StoreRelease64(a Addr, v uint64) { t.ops.Store(a, 8, v, true, true) }

// StoreAtomic issues an atomic store with relaxed ordering (still immune to
// store tearing, but does not publish happens-before).
func (t *Thread) StoreAtomic(a Addr, size int, v uint64) { t.ops.Store(a, size, v, true, false) }

// Load8/16/32/64 issue non-atomic loads.
func (t *Thread) Load8(a Addr) uint8   { return uint8(t.ops.Load(a, 1, false, false)) }
func (t *Thread) Load16(a Addr) uint16 { return uint16(t.ops.Load(a, 2, false, false)) }
func (t *Thread) Load32(a Addr) uint32 { return uint32(t.ops.Load(a, 4, false, false)) }
func (t *Thread) Load64(a Addr) uint64 { return t.ops.Load(a, 8, false, false) }

// Load issues a non-atomic load of an explicit size.
func (t *Thread) Load(a Addr, size int) uint64 { return t.ops.Load(a, size, false, false) }

// LoadAcquire issues an atomic load with acquire ordering.
func (t *Thread) LoadAcquire(a Addr, size int) uint64 { return t.ops.Load(a, size, true, true) }

// LoadAcquire64 issues an 8-byte acquire load.
func (t *Thread) LoadAcquire64(a Addr) uint64 { return t.ops.Load(a, 8, true, true) }

// CAS performs a locked compare-and-swap (mfence semantics) and reports
// whether the swap happened.
func (t *Thread) CAS(a Addr, size int, old, new uint64) bool {
	_, wrote := t.ops.RMW(a, size, func(cur uint64) (uint64, bool) {
		if cur == old {
			return new, true
		}
		return cur, false
	})
	return wrote
}

// CAS64 is CAS for 8-byte values.
func (t *Thread) CAS64(a Addr, old, new uint64) bool { return t.CAS(a, 8, old, new) }

// FetchAdd atomically adds delta and returns the previous value.
func (t *Thread) FetchAdd(a Addr, size int, delta uint64) uint64 {
	old, _ := t.ops.RMW(a, size, func(cur uint64) (uint64, bool) { return cur + delta, true })
	return old
}

// CLFlush flushes the cache line of a (clflush: store-buffer ordered).
func (t *Thread) CLFlush(a Addr) { t.ops.CLFlush(a) }

// CLWB writes back the cache line of a (clwb: requires a later fence to
// guarantee persistence).
func (t *Thread) CLWB(a Addr) { t.ops.CLWB(a) }

// CLFlushOpt issues the optimized flush. Per the Px86sim semantics the
// paper adopts, clflushopt behaves identically to clwb ("from a semantic
// perspective, the clwb instruction is identical to clflushopt... thus we
// treat them identically", §2), so it shares the flush-buffer path.
func (t *Thread) CLFlushOpt(a Addr) { t.ops.CLWB(a) }

// SFence issues a store fence; MFence a full fence.
func (t *Thread) SFence() { t.ops.SFence() }
func (t *Thread) MFence() { t.ops.MFence() }

// FlushRange issues clflush for every cache line covering [a, a+size).
func (t *Thread) FlushRange(a Addr, size int) {
	for line := LineOf(a); line <= LineOf(a+Addr(size-1)); line++ {
		t.ops.CLFlush(Addr(line) * CacheLineSize)
	}
}

// WritebackRange issues clwb for every cache line covering [a, a+size).
func (t *Thread) WritebackRange(a Addr, size int) {
	for line := LineOf(a); line <= LineOf(a+Addr(size-1)); line++ {
		t.ops.CLWB(Addr(line) * CacheLineSize)
	}
}

// Persist is the common libpmem idiom: clwb the range, then sfence.
func (t *Thread) Persist(a Addr, size int) {
	t.WritebackRange(a, size)
	t.ops.SFence()
}

// Memset writes b to every byte of [a, a+size) as a sequence of non-atomic
// field-granular stores. This models the libc memset compilers substitute
// for runs of zero stores (Table 2a), which guarantees no 64-bit atomicity.
func (t *Thread) Memset(a Addr, size int, b byte) {
	pattern := uint64(0)
	for i := 0; i < 8; i++ {
		pattern = pattern<<8 | uint64(b)
	}
	for _, f := range t.heap.FieldsIn(a, size) {
		t.ops.Store(f.Addr, f.Size, pattern&sizeMask(f.Size), false, false)
	}
}

// Memcpy copies size bytes from src to dst as a sequence of non-atomic
// field-granular loads and stores, modelling compiler-inserted memcpy /
// memmove calls. The source and destination must have compatible field
// decompositions.
func (t *Thread) Memcpy(dst, src Addr, size int) {
	df := t.heap.FieldsIn(dst, size)
	sf := t.heap.FieldsIn(src, size)
	if len(df) != len(sf) {
		panic("pmm: Memcpy between incompatible layouts")
	}
	for i := range df {
		if df[i].Size != sf[i].Size {
			panic("pmm: Memcpy field size mismatch")
		}
		v := t.ops.Load(sf[i].Addr, sf[i].Size, false, false)
		t.ops.Store(df[i].Addr, df[i].Size, v, false, false)
	}
}

// Yield introduces a pure scheduling point.
func (t *Thread) Yield() { t.ops.Yield() }

// Go starts fn as a new simulated thread under the engine's controlled
// scheduler (pthread_create in the paper's workloads). The new thread is
// runnable from the next scheduling point; it must finish before the
// execution ends. Panics if the Ops implementation does not support
// mid-execution spawning.
func (t *Thread) Go(fn func(*Thread)) {
	s, ok := t.ops.(Spawner)
	if !ok {
		panic("pmm: this Ops implementation does not support Thread.Go")
	}
	s.Spawn(fn)
}

// ChecksumGuard runs f with subsequent loads marked as checksum-validation
// reads; races they observe are recorded as benign (§7.5).
func (t *Thread) ChecksumGuard(f func()) {
	t.ops.SetChecksumGuard(true)
	defer t.ops.SetChecksumGuard(false)
	f()
}

func sizeMask(size int) uint64 {
	if size >= 8 {
		return ^uint64(0)
	}
	return (uint64(1) << (8 * size)) - 1
}

// Program describes one benchmark: how to build its persistent heap, the
// pre-crash worker threads, and the post-crash recovery procedure whose
// loads are checked for persistency races.
type Program struct {
	// Name identifies the benchmark in reports.
	Name string

	// Setup allocates the persistent heap and records fully-persisted
	// initial values. It runs before the pre-crash execution and does not
	// participate in race detection.
	Setup func(h *Heap)

	// Workers are the pre-crash threads. The engine interleaves them under
	// its controlled scheduler and injects the crash somewhere in their
	// execution.
	Workers []func(t *Thread)

	// PostCrash is the recovery procedure run against the persisted image.
	// Its loads are the race-observing loads of Definition 5.1.
	PostCrash func(t *Thread)

	// PostCrashWorkers, when non-empty, replaces PostCrash with a
	// multithreaded recovery (several recovery threads interleaved under
	// the controlled scheduler).
	PostCrashWorkers []func(t *Thread)
}

// RecoveryWorkers returns the recovery thread functions: PostCrashWorkers
// if set, else the single PostCrash (nil if neither).
func (p Program) RecoveryWorkers() []func(t *Thread) {
	if len(p.PostCrashWorkers) > 0 {
		return p.PostCrashWorkers
	}
	if p.PostCrash != nil {
		return []func(t *Thread){p.PostCrash}
	}
	return nil
}
