// Package tso simulates the x86-TSO storage system with Px86sim persistency
// operations (Raad et al., POPL 2020), as used by Yashme (ASPLOS '22 §2, §6).
//
// Each simulated thread has a store buffer S_τ holding stores, clflush, clwb
// and sfence operations that have not yet taken effect on the cache, and a
// flush buffer F_τ holding clwb operations that have left the store buffer
// but are not yet guaranteed persistent (they need a later fence by the same
// thread). Store buffers drain in FIFO order into a single global commit
// order; the global sequence counter σ numbers operations as they commit,
// exactly as in the paper's Figure 8. Loads bypass: a load first consults the
// issuing thread's own store buffer.
//
// The machine maintains per-thread happens-before clock vectors: committing
// an operation by thread τ raises CV_τ[τ] to the operation's σ; an atomic
// release store publishes a snapshot of CV_τ with its committed record; an
// acquire load joins the publisher's snapshot into the reader's clock.
// Because a thread's store buffer is FIFO, the clock snapshot taken when a
// clflush/clwb/sfence commits already covers every same-thread operation
// that program-order precedes it.
//
// The machine does not decide when buffers drain — the engine (the model
// checker) owns that nondeterminism and calls EvictOne / DrainSB explicitly.
package tso

import (
	"fmt"
	"sync"

	"yashme/internal/addridx"
	"yashme/internal/pmm"
	"yashme/internal/vclock"
)

// OpKind labels a store-buffer entry.
type OpKind int

// Store-buffer entry kinds.
const (
	OpStore OpKind = iota
	OpCLFlush
	OpCLWB
	OpSFence
)

func (k OpKind) String() string {
	switch k {
	case OpStore:
		return "store"
	case OpCLFlush:
		return "clflush"
	case OpCLWB:
		return "clwb"
	case OpSFence:
		return "sfence"
	}
	return fmt.Sprintf("OpKind(%d)", int(k))
}

// SBEntry is one operation buffered in a thread's store buffer.
type SBEntry struct {
	Kind    OpKind
	Addr    pmm.Addr // for stores: the target; for flushes: any address on the line
	Size    int
	Val     uint64
	Atomic  bool
	Release bool
}

// FBEntry is a clwb waiting in a thread's flush buffer for a fence.
type FBEntry struct {
	Addr pmm.Addr
	CV   vclock.Stamp // clock snapshot when the clwb left the store buffer
	TID  vclock.TID
}

// CommittedStore is the cache-visible record of a store that left a store
// buffer. The volatile memory map keeps the latest one per address.
type CommittedStore struct {
	Addr    pmm.Addr
	Size    int
	Val     uint64
	TID     vclock.TID
	Seq     vclock.Seq
	CV      vclock.Stamp // happens-before clock at commit (includes this store)
	Atomic  bool
	Release bool
}

// Listener receives commit events in the global commit order. The engine
// forwards them to the persistency-race detector, which implements the
// paper's Evict_SB / Evict_FB bookkeeping on top of them.
type Listener interface {
	// StoreCommitted fires when a store takes effect on the cache.
	StoreCommitted(rec *CommittedStore)
	// CLFlushCommitted fires when a clflush takes effect: the cache line of
	// addr is flushed to persistent storage at sequence number seq.
	CLFlushCommitted(tid vclock.TID, addr pmm.Addr, seq vclock.Seq, cv vclock.Stamp)
	// CLWBBuffered fires when a clwb leaves the store buffer and enters the
	// thread's flush buffer (not yet persistent).
	CLWBBuffered(tid vclock.TID, addr pmm.Addr, cv vclock.Stamp)
	// CLWBPersisted fires when a fence evicts a clwb from the flush buffer:
	// the write-back is now guaranteed persistent.
	CLWBPersisted(flush FBEntry, fenceTID vclock.TID, fenceSeq vclock.Seq, fenceCV vclock.Stamp)
	// FenceCommitted fires for sfence commits and mfence/RMW drains, after
	// the flush buffer has been processed.
	FenceCommitted(tid vclock.TID, seq vclock.Seq, cv vclock.Stamp)
}

// NopListener is a Listener that ignores every event; it is the "Jaaru only"
// configuration used to measure detector overhead (paper Table 5).
type NopListener struct{}

func (NopListener) StoreCommitted(*CommittedStore)                                  {}
func (NopListener) CLFlushCommitted(vclock.TID, pmm.Addr, vclock.Seq, vclock.Stamp) {}
func (NopListener) CLWBBuffered(vclock.TID, pmm.Addr, vclock.Stamp)                 {}
func (NopListener) CLWBPersisted(FBEntry, vclock.TID, vclock.Seq, vclock.Stamp)     {}
func (NopListener) FenceCommitted(vclock.TID, vclock.Seq, vclock.Stamp)             {}

var _ Listener = NopListener{}

// MaxThreads caps the dense TID range a machine will grow to on demand. The
// simulator runs a handful of threads; a TID at or beyond this limit is a
// corrupt identifier, and indexing by it would silently allocate garbage
// state, so the machine panics instead.
const MaxThreads = 1 << 10

// Machine is one x86-TSO storage system instance. One Machine simulates one
// execution (pre-crash or post-crash); the engine creates a fresh Machine
// per execution and seeds (SeedMemory) the persisted values it needs.
//
// Per-thread state is held in slices indexed directly by TID. This dense
// layout relies on the TID-density invariant: threads are numbered 0..n-1
// with no gaps (the engine spawns them that way and declares the count via
// SpawnThreads). A machine used without SpawnThreads grows its per-thread
// state on demand up to MaxThreads; after SpawnThreads, an out-of-range TID
// panics loudly rather than mis-indexing.
type Machine struct {
	listener Listener
	seq      vclock.Seq

	// declared is the thread count fixed by SpawnThreads, 0 when the
	// machine grows on demand.
	declared int

	sb []sbQueue   // indexed by TID
	fb [][]FBEntry // indexed by TID

	// Per-thread clocks in interned form: the thread's logical clock is
	// clocks.At(base[τ]) joined with {τ: self[τ]}. base[τ] only changes at
	// synchronizing events (acquire loads, RMWs), so committing a store is
	// allocation-free — the record's Stamp reuses the shared snapshot.
	base []vclock.Ref // indexed by TID
	self []vclock.Seq // indexed by TID

	// clocks holds the interned snapshots. The engine passes the
	// detector's arena to NewMachine so record stamps resolve on both
	// sides; a stand-alone machine gets a private arena.
	clocks *vclock.Arena

	// mem is the volatile cache/memory view: latest committed store per
	// address, interned by addridx (the heap's Addr space is dense).
	// Initial contents are the seeded persisted values.
	mem addridx.Table[*CommittedStore]

	// recSlab is the spare tail of a chunk-allocated CommittedStore block:
	// seeding a persisted image and committing stores both mint one record
	// per event, so handing out slab slots turns those per-record
	// allocations into one per chunk.
	recSlab []CommittedStore
	// chunks are the record chunks this machine allocated, nextChunk the
	// first one not yet handed out since the machine was (re)started: a
	// retired machine starts over at its first chunk (see Retire).
	chunks    [][]CommittedStore
	nextChunk int
}

// sbQueue is one thread's store buffer: a FIFO whose pending entries are
// buf[head:]. Popping advances head instead of re-slicing, so the array is
// never lost from the front; a push into a full array first slides the
// pending entries down when at least half of it is consumed, so a buffer
// that never fully drains (random mode keeps up to 8 entries) stays within
// twice its peak occupancy and stops allocating once warm.
type sbQueue struct {
	buf  []SBEntry
	head int
}

func (q *sbQueue) pending() []SBEntry { return q.buf[q.head:] }

func (q *sbQueue) push(e SBEntry) {
	if len(q.buf) == cap(q.buf) && q.head > 0 && 2*q.head >= len(q.buf) {
		n := copy(q.buf, q.buf[q.head:])
		q.buf, q.head = q.buf[:n], 0
	}
	q.buf = append(q.buf, e)
}

func (q *sbQueue) pop() (SBEntry, bool) {
	if q.head == len(q.buf) {
		return SBEntry{}, false
	}
	e := q.buf[q.head]
	q.head++
	if q.head == len(q.buf) {
		q.buf, q.head = q.buf[:0], 0
	}
	return e, true
}

// retiredPool holds retired machines. The engine runs one short-lived
// machine per execution across a pool of workers; routing machines
// through a sync.Pool means steady-state executions reuse an existing
// zeroed memory table, spare record slots and per-thread buffers instead
// of reallocating them each.
var retiredPool sync.Pool

// Retire hands m to the pool NewMachine draws from. The machine must never
// be used again, and neither may any record it handed out: the next machine
// built on m overwrites them. No listener or engine path keeps a
// *CommittedStore past the event or load that delivered it — listeners copy
// the fields they need, and loads read the record in place. The
// per-thread buffers keep their arrays; their entries hold no pointers.
func Retire(m *Machine) {
	if m == nil {
		return
	}
	m.recycle()
	retiredPool.Put(m)
}

// recycle empties m for the next machine built on it: the memory view is
// cleared and record minting starts over at the first chunk.
func (m *Machine) recycle() {
	m.mem.Reset()
	m.listener, m.clocks = nil, nil
	m.recSlab, m.nextChunk = nil, 0
}

// recChunk is the number of records one slab chunk holds.
const recChunk = 64

// newRecord hands out one record slot from the slab chunk, starting the
// next chunk the machine owns (or a fresh one) when the current is used up.
func (m *Machine) newRecord() *CommittedStore {
	if len(m.recSlab) == 0 {
		if m.nextChunk == len(m.chunks) {
			m.chunks = append(m.chunks, make([]CommittedStore, recChunk))
		}
		m.recSlab = m.chunks[m.nextChunk]
		m.nextChunk++
	}
	rec := &m.recSlab[0]
	m.recSlab = m.recSlab[1:]
	return rec
}

// NewMachine returns an empty machine reporting to listener whose stamps
// resolve in clocks. A nil clocks gives the machine a private arena; the
// engine passes the detector's, so record stamps resolve on both sides.
func NewMachine(listener Listener, clocks *vclock.Arena) *Machine {
	if listener == nil {
		listener = NopListener{}
	}
	if clocks == nil {
		clocks = vclock.NewArena(false)
	}
	m, _ := retiredPool.Get().(*Machine)
	if m == nil {
		m = &Machine{}
	} else {
		m.seq, m.declared = 0, 0
		m.sb, m.fb = m.sb[:0], m.fb[:0]
		m.base, m.self = m.base[:0], m.self[:0]
	}
	m.listener, m.clocks = listener, clocks
	return m
}

// ReserveMemory pre-sizes the memory view for addresses [0, n), so seeding
// a persisted image (ascending addresses) fills one allocation instead of
// growing geometrically.
func (m *Machine) ReserveMemory(n int) { m.mem.Reserve(n) }

// SpawnThreads declares that the execution runs threads 0..n-1 and fixes the
// machine's thread range: any later operation naming a TID outside [0, n)
// panics. Declaring the range up front documents the density invariant the
// slice-backed layout relies on and sizes the per-thread state once.
func (m *Machine) SpawnThreads(n int) {
	if n <= 0 || n > MaxThreads {
		panic(fmt.Sprintf("tso: thread count %d out of range [1, %d]", n, MaxThreads))
	}
	if n < m.declared || n < len(m.sb) {
		panic(fmt.Sprintf("tso: SpawnThreads(%d) would shrink an existing thread range of %d", n, max(m.declared, len(m.sb))))
	}
	m.growThreads(n)
	m.declared = n
}

// growThreads extends the per-thread slices to cover n threads. A recycled
// machine re-exposes its earlier threads' buffers, emptied, so their
// arrays are reused.
func (m *Machine) growThreads(n int) {
	for len(m.sb) < n {
		if i := len(m.sb); i < cap(m.sb) {
			m.sb = m.sb[:i+1]
			m.sb[i].buf, m.sb[i].head = m.sb[i].buf[:0], 0
		} else {
			m.sb = append(m.sb, sbQueue{})
		}
		if i := len(m.fb); i < cap(m.fb) {
			m.fb = m.fb[:i+1]
			m.fb[i] = m.fb[i][:0]
		} else {
			m.fb = append(m.fb, nil)
		}
		m.base = append(m.base, 0)
		m.self = append(m.self, 0)
	}
}

// checkTID validates tid against the declared (or on-demand) thread range
// and ensures its slots exist.
func (m *Machine) checkTID(tid vclock.TID) {
	if tid < 0 || int(tid) >= MaxThreads {
		panic(fmt.Sprintf("tso: thread id %d out of range [0, %d)", tid, MaxThreads))
	}
	if m.declared > 0 {
		if int(tid) >= m.declared {
			panic(fmt.Sprintf("tso: thread id %d outside the declared dense range [0, %d) — spawn threads contiguously", tid, m.declared))
		}
		return
	}
	m.growThreads(int(tid) + 1)
}

// SeedMemory installs an initial, already-persisted value. Seeded values
// have Seq 0 and carry no clock: they predate the execution.
func (m *Machine) SeedMemory(addr pmm.Addr, size int, val uint64) {
	rec := m.newRecord()
	*rec = CommittedStore{Addr: addr, Size: size, Val: val}
	m.mem.Set(addr, rec)
}

// CurSeq returns the last assigned global sequence number.
func (m *Machine) CurSeq() vclock.Seq { return m.seq }

// snapshot returns the thread's current clock as a stamp (no allocation).
func (m *Machine) snapshot(tid vclock.TID) vclock.Stamp {
	return vclock.Stamp{Base: m.base[tid], Self: vclock.NewEpoch(tid, m.self[tid])}
}

// commitStamp assigns the next global sequence number to an operation by
// tid and returns the operation's clock. In interning mode this allocates
// nothing: the stamp reuses the thread's shared snapshot and carries the
// new (tid, seq) epoch as its self component. In owned mode it appends a
// private materialized copy, reproducing the per-record clock
// representation this layout replaced.
func (m *Machine) commitStamp(tid vclock.TID) vclock.Stamp {
	m.seq++
	m.self[tid] = m.seq
	st := vclock.Stamp{Base: m.base[tid], Self: vclock.NewEpoch(tid, m.seq)}
	if m.clocks.Owned() {
		st = m.clocks.Reintern(st)
	}
	return st
}

// joinThread merges a published stamp into the thread's clock (the acquire
// side of a release/acquire pair). The arena's epoch fast path makes the
// common already-covered case a single packed compare.
func (m *Machine) joinThread(tid vclock.TID, st vclock.Stamp) {
	if st == (vclock.Stamp{}) {
		return // seeded record: no clock to merge
	}
	m.base[tid] = m.clocks.JoinThread(m.base[tid], tid, m.self[tid], st)
}

// EnqueueStore appends a store to the thread's store buffer.
func (m *Machine) EnqueueStore(tid vclock.TID, addr pmm.Addr, size int, val uint64, atomic, release bool) {
	m.checkTID(tid)
	m.sb[tid].push(SBEntry{Kind: OpStore, Addr: addr, Size: size, Val: val, Atomic: atomic, Release: release})
}

// EnqueueCLFlush appends a clflush; it commits in store-buffer order like a
// store (Px86sim Table 1: clflush is ordered with respect to writes).
func (m *Machine) EnqueueCLFlush(tid vclock.TID, addr pmm.Addr) {
	m.checkTID(tid)
	m.sb[tid].push(SBEntry{Kind: OpCLFlush, Addr: addr})
}

// EnqueueCLWB appends a clwb; on eviction it moves to the flush buffer and
// becomes persistent only at the next same-thread fence, modelling clwb /
// clflushopt reordering freedom.
func (m *Machine) EnqueueCLWB(tid vclock.TID, addr pmm.Addr) {
	m.checkTID(tid)
	m.sb[tid].push(SBEntry{Kind: OpCLWB, Addr: addr})
}

// EnqueueSFence appends an sfence; on eviction it flushes the thread's flush
// buffer.
func (m *Machine) EnqueueSFence(tid vclock.TID) {
	m.checkTID(tid)
	m.sb[tid].push(SBEntry{Kind: OpSFence})
}

// SBLen returns the number of buffered operations for the thread.
func (m *Machine) SBLen(tid vclock.TID) int {
	if int(tid) >= len(m.sb) || tid < 0 {
		return 0
	}
	return len(m.sb[tid].pending())
}

// EvictOne pops the oldest store-buffer entry of the thread and commits it.
// It reports whether an entry was evicted.
func (m *Machine) EvictOne(tid vclock.TID) bool {
	m.checkTID(tid)
	e, ok := m.sb[tid].pop()
	if ok {
		m.commit(tid, e)
	}
	return ok
}

// DrainSB commits every buffered entry of the thread in order.
func (m *Machine) DrainSB(tid vclock.TID) {
	for m.EvictOne(tid) {
	}
}

func (m *Machine) commit(tid vclock.TID, e SBEntry) {
	switch e.Kind {
	case OpStore:
		st := m.commitStamp(tid)
		rec := m.newRecord()
		*rec = CommittedStore{
			Addr: e.Addr, Size: e.Size, Val: e.Val,
			TID: tid, Seq: m.seq, CV: st,
			Atomic: e.Atomic, Release: e.Release,
		}
		m.mem.Set(e.Addr, rec)
		m.listener.StoreCommitted(rec)
	case OpCLFlush:
		st := m.commitStamp(tid)
		m.listener.CLFlushCommitted(tid, e.Addr, m.seq, st)
	case OpCLWB:
		st := m.snapshot(tid)
		if m.clocks.Owned() {
			st = m.clocks.Reintern(st)
		}
		m.fb[tid] = append(m.fb[tid], FBEntry{Addr: e.Addr, CV: st, TID: tid})
		m.listener.CLWBBuffered(tid, e.Addr, st)
	case OpSFence:
		st := m.commitStamp(tid)
		m.flushFB(tid, m.seq, st)
		m.listener.FenceCommitted(tid, m.seq, st)
	}
}

// flushFB persists every pending clwb of the thread (Evict_FB in the paper).
func (m *Machine) flushFB(tid vclock.TID, fenceSeq vclock.Seq, fenceCV vclock.Stamp) {
	for _, fbe := range m.fb[tid] {
		m.listener.CLWBPersisted(fbe, tid, fenceSeq, fenceCV)
	}
	m.fb[tid] = m.fb[tid][:0]
}

// MFence drains the thread's store buffer, persists its flush buffer, and
// commits the fence (Exec_MFENCE in the paper's Figure 7).
func (m *Machine) MFence(tid vclock.TID) {
	m.DrainSB(tid)
	st := m.commitStamp(tid)
	m.flushFB(tid, m.seq, st)
	m.listener.FenceCommitted(tid, m.seq, st)
}

// Load performs a load with store-buffer bypassing. acquire joins the
// publisher's clock when reading an atomic release store. The returned
// record is the committed store the load reads from; it is nil when the
// value comes from the thread's own store buffer or from seeded-but-absent
// memory (reads of never-written addresses return zero).
func (m *Machine) Load(tid vclock.TID, addr pmm.Addr, size int, acquire bool) (uint64, *CommittedStore) {
	v, rec, _ := m.LoadDetail(tid, addr, size, acquire)
	return v, rec
}

// LoadDetail is Load with an extra result reporting whether the value came
// from the thread's own store buffer (bypass). The engine uses it to tell
// current-execution values apart from values seeded across a crash.
func (m *Machine) LoadDetail(tid vclock.TID, addr pmm.Addr, size int, acquire bool) (uint64, *CommittedStore, bool) {
	// Bypass: most recent same-address store in the thread's own buffer.
	m.checkTID(tid)
	buf := m.sb[tid].pending()
	for i := len(buf) - 1; i >= 0; i-- {
		if buf[i].Kind == OpStore && buf[i].Addr == addr {
			return truncate(buf[i].Val, size), nil, true
		}
	}
	rec := m.mem.At(addr)
	if rec == nil {
		return 0, nil, false
	}
	if acquire && rec.Release {
		m.joinThread(tid, rec.CV)
	}
	return truncate(rec.Val, size), rec, false
}

// RMW performs a locked read-modify-write: it has full fence semantics
// (drains the store buffer and flush buffer first), reads the current value,
// applies f, and — if f elects to write — commits the new value atomically
// with release semantics and acquire semantics on the read.
func (m *Machine) RMW(tid vclock.TID, addr pmm.Addr, size int, f func(old uint64) (uint64, bool)) (uint64, bool) {
	m.MFence(tid)
	var old uint64
	if rec := m.mem.At(addr); rec != nil {
		old = truncate(rec.Val, size)
		if rec.Release {
			m.joinThread(tid, rec.CV)
		}
	}
	newVal, write := f(old)
	if write {
		st := m.commitStamp(tid)
		rec := m.newRecord()
		*rec = CommittedStore{
			Addr: addr, Size: size, Val: truncate(newVal, size),
			TID: tid, Seq: m.seq, CV: st,
			Atomic: true, Release: true,
		}
		m.mem.Set(addr, rec)
		m.listener.StoreCommitted(rec)
	}
	return old, write
}

// VolatileValue returns the current cache-visible value at addr (ignoring
// store buffers), for engine-side image construction.
func (m *Machine) VolatileValue(addr pmm.Addr) (*CommittedStore, bool) {
	rec := m.mem.At(addr)
	return rec, rec != nil
}

func truncate(v uint64, size int) uint64 {
	if size >= 8 {
		return v
	}
	return v & ((uint64(1) << (8 * size)) - 1)
}
