// Package xfd implements a cross-failure race detector in the style of
// XFDetector (Liu et al., ASPLOS '20) — the closest prior tool the paper
// compares against (§1, §8). It exists to make the paper's central
// comparison executable:
//
//	"Cross failure races are different from persistency races in that
//	cross failure races model normal stores as effectively atomic and do
//	not consider the possibility that due to compiler optimizations a
//	store may [be] made partially persistent. Cross failure race detection
//	cannot detect persistency races because it does not model the effects
//	of cache coherence or the difference between atomic and normal memory
//	operations. XFDetector is limited to detecting cross failure races in
//	the given execution and cannot detect cross failure races in any other
//	potential executions."
//
// A cross-failure race here is: a post-failure load reads data that was NOT
// persisted before the failure (the store was still volatile — in the cache
// without a completed flush — at the crash). Stores are treated as atomic
// units; a store that WAS flushed before the crash is always clean, no
// matter how the compiler might tear it — which is exactly the blind spot
// persistency races live in.
//
// The detector is the optional member of the engine's analysis stack
// (internal/analysis, selected as "xfd": -analyses=yashme,xfd), riding the
// same workers, solo-run leases, checkpoints and crash-image memoization
// as the Yashme detector. Like the original XFDetector it only
// ever classifies reads of THE GIVEN execution — no prefix derivation, no
// candidate read sets; the deliberately modest analysis is the comparison.
package xfd

import (
	"sort"
	"sync"

	"yashme/internal/pmm"
	"yashme/internal/report"
	"yashme/internal/tso"
	"yashme/internal/vclock"
)

// persistState is the per-store commit/persist FSM XFDetector tracks
// ("a finite state machine to track the consistency and persistency of
// persistent data").
type persistState uint8

const (
	// stateModified: the store reached the cache but no flush covers it.
	stateModified persistState = iota
	// stateWriteback: a clwb covers the store but no fence completed it.
	stateWriteback
	// statePersisted: a clflush (or clwb+fence) made the store durable.
	statePersisted
)

// storeInfo is the detector's view of the latest store per address,
// packed into 16 bytes (thread IDs are small) since the FSM map and the
// undo journal hold one per entry.
type storeInfo struct {
	seq   vclock.Seq
	tid   int32
	state persistState
}

// Detector is the cross-failure race detector. It implements tso.Listener
// for every execution's event stream; after a crash, CrashRead classifies
// each post-failure read against the FSM.
type Detector struct {
	benchmark string
	labeler   func(pmm.Addr) string

	stores map[pmm.Addr]storeInfo
	// lines indexes the stored addresses per cache line, so the flush
	// transitions walk only the flushed line instead of every store.
	lines map[pmm.Line][]pmm.Addr
	// pendingWB: clwb-covered addresses per thread awaiting a fence.
	pendingWB map[vclock.TID][]pmm.Addr
	report    *report.Set
	// undo is the undo journal, recording while journaling is set
	// (AttachUndo until Rewind); nil until the first AttachUndo and after
	// Retire.
	undo       *journal
	journaling bool
}

// journal is the detector's undo log: ops in mutation order, and wbs, oldest
// first, the pending lists its undoWB ops replaced. Retired journals are
// pooled: a random-mode run arms one per execution's probe.
type journal struct {
	ops []undoOp
	wbs [][]pmm.Addr
}

var journalPool = sync.Pool{New: func() any { return new(journal) }}

// undoOp is one journaled mutation: an FSM write to addr, which
// overwrote prev (undoSet) or registered addr on its line (undoFresh), or
// a replaced pending write-back list of thread prev.tid (undoWB).
type undoOp struct {
	addr pmm.Addr
	prev storeInfo
	kind undoKind
}

type undoKind uint8

const (
	undoSet undoKind = iota
	undoFresh
	undoWB
)

// New returns a detector for one scenario.
func New(benchmark string, labeler func(pmm.Addr) string) *Detector {
	return &Detector{
		benchmark: benchmark,
		labeler:   labeler,
		stores:    make(map[pmm.Addr]storeInfo),
		lines:     make(map[pmm.Line][]pmm.Addr),
		pendingWB: make(map[vclock.TID][]pmm.Addr),
		report:    report.NewSet(),
	}
}

// Report returns the accumulated cross-failure race reports.
func (d *Detector) Report() *report.Set { return d.report }

// set is the FSM's one write: it records info for addr, registering a
// fresh address on its line, and journals what it overwrote.
func (d *Detector) set(addr pmm.Addr, info storeInfo) {
	prev, seen := d.stores[addr]
	if !seen {
		line := pmm.LineOf(addr)
		d.lines[line] = append(d.lines[line], addr)
	}
	if d.journaling {
		op := undoOp{addr: addr, prev: prev}
		if !seen {
			op.kind = undoFresh
		}
		d.undo.ops = append(d.undo.ops, op)
	}
	d.stores[addr] = info
}

// setWB replaces tid's pending write-back list, journaling the old one.
func (d *Detector) setWB(tid vclock.TID, wb []pmm.Addr) {
	if d.journaling {
		j := d.undo
		j.ops = append(j.ops, undoOp{prev: storeInfo{tid: int32(tid)}, kind: undoWB})
		j.wbs = append(j.wbs, d.pendingWB[tid])
	}
	d.pendingWB[tid] = wb
}

// AttachUndo empties the undo journal, drawn from the pool on first use,
// and arms it: every state mutation from now on is recorded until the next
// Rewind. The engine arms it for a probe's pre-crash run only; post-crash
// state (CrashRead's report) is never journaled.
func (d *Detector) AttachUndo() {
	if d.undo == nil {
		d.undo = journalPool.Get().(*journal)
	}
	d.undo.ops, d.undo.wbs = d.undo.ops[:0], d.undo.wbs[:0]
	d.journaling = true
}

// Mark returns the journal's current position.
func (d *Detector) Mark() int { return len(d.undo.ops) }

// Retire hands the undo journal back to the pool, holding no pending list,
// once the scenario or probe owning the detector is dead (never for a
// detector it handed over). The detector must not be used again.
func (d *Detector) Retire() {
	if d.undo != nil {
		clear(d.undo.wbs)
		journalPool.Put(d.undo)
		d.undo, d.journaling = nil, false
	}
}

// Rewind undoes ops [mark, Mark()) newest first, then truncates the
// journal to mark and disarms it. Afterwards the detector equals a Clone
// taken when the journal stood at mark, and a later Rewind to an earlier
// mark still works: a probe walks its crash points backwards. A fresh
// address was the last one on its line's list when it was registered, so
// undoing registrations newest first pops them in order. A pending list
// gets back the header it had: later appends wrote only past its length.
func (d *Detector) Rewind(mark int) {
	j := d.undo
	for i := len(j.ops) - 1; i >= mark; i-- {
		op := &j.ops[i]
		switch op.kind {
		case undoWB:
			last := len(j.wbs) - 1
			d.pendingWB[vclock.TID(op.prev.tid)] = j.wbs[last]
			j.wbs[last] = nil
			j.wbs = j.wbs[:last]
		case undoFresh:
			delete(d.stores, op.addr)
			line := pmm.LineOf(op.addr)
			if addrs := d.lines[line]; len(addrs) > 1 {
				d.lines[line] = addrs[:len(addrs)-1]
			} else {
				delete(d.lines, line)
			}
		default:
			d.stores[op.addr] = op.prev
		}
	}
	j.ops = j.ops[:mark]
	d.journaling = false
}

// SeedPersisted marks a Setup-time initial write durable before the first
// execution starts: initial values are persisted by definition.
func (d *Detector) SeedPersisted(addr pmm.Addr) {
	d.set(addr, storeInfo{state: statePersisted})
}

// StoreCommitted implements tso.Listener: the address regresses to
// Modified. Note the FSM is per ADDRESS, not per byte — stores are modelled
// as atomic units, the blind spot the paper identifies.
func (d *Detector) StoreCommitted(rec *tso.CommittedStore) {
	d.set(rec.Addr, storeInfo{seq: rec.Seq, tid: int32(rec.TID), state: stateModified})
}

// CLFlushCommitted implements tso.Listener: every store on the line is now
// persisted.
func (d *Detector) CLFlushCommitted(_ vclock.TID, addr pmm.Addr, _ vclock.Seq, _ vclock.Stamp) {
	for _, a := range d.lines[pmm.LineOf(addr)] {
		if s := d.stores[a]; s.state != statePersisted {
			s.state = statePersisted
			d.set(a, s)
		}
	}
}

// CLWBBuffered implements tso.Listener: stores on the line advance to
// Writeback, pending the thread's next fence.
func (d *Detector) CLWBBuffered(tid vclock.TID, addr pmm.Addr, _ vclock.Stamp) {
	for _, a := range d.lines[pmm.LineOf(addr)] {
		if s := d.stores[a]; s.state == stateModified {
			s.state = stateWriteback
			d.set(a, s)
			d.setWB(tid, append(d.pendingWB[tid], a))
		}
	}
}

// CLWBPersisted implements tso.Listener: the fence completed the
// write-back.
func (d *Detector) CLWBPersisted(flush tso.FBEntry, fenceTID vclock.TID, _ vclock.Seq, _ vclock.Stamp) {
	for _, a := range d.lines[pmm.LineOf(flush.Addr)] {
		if s := d.stores[a]; s.state == stateWriteback {
			s.state = statePersisted
			d.set(a, s)
		}
	}
}

// FenceCommitted implements tso.Listener: any remaining write-backs of the
// fencing thread complete.
func (d *Detector) FenceCommitted(tid vclock.TID, _ vclock.Seq, _ vclock.Stamp) {
	for _, a := range d.pendingWB[tid] {
		if s, ok := d.stores[a]; ok && s.state == stateWriteback {
			s.state = statePersisted
			d.set(a, s)
		}
	}
	if d.pendingWB[tid] != nil {
		d.setWB(tid, nil)
	}
}

var _ tso.Listener = (*Detector)(nil)

// CrashRead classifies a post-crash load of addr: a cross-failure race is
// added to the report iff the last store to the address was NOT persisted
// at the read. Guarded (checksum-validation) reads are skipped, like
// Yashme's benign classification. Persisted stores are always clean — atomic or not, torn
// or not — which is why this detector is structurally unable to report a
// persistency race on a flushed store.
func (d *Detector) CrashRead(addr pmm.Addr, guarded bool) {
	if guarded {
		return
	}
	s, ok := d.stores[addr]
	if !ok || s.state == statePersisted {
		return
	}
	d.report.Add(report.Race{
		Benchmark: d.benchmark,
		Field:     d.labeler(addr),
		Addr:      uint64(addr),
		StoreSeq:  uint64(s.seq),
		StoreTID:  int(s.tid),
	})
}

// Clone returns an independent deep copy with no journal attached. A
// model-check probe clones its rewound detector into each crash point's
// snapshot, and every resume but a snapshot's last clones again.
func (d *Detector) Clone() *Detector {
	c := &Detector{
		benchmark: d.benchmark,
		labeler:   d.labeler,
		stores:    make(map[pmm.Addr]storeInfo, len(d.stores)),
		lines:     make(map[pmm.Line][]pmm.Addr, len(d.lines)),
		pendingWB: make(map[vclock.TID][]pmm.Addr, len(d.pendingWB)),
		report:    d.report.Clone(),
	}
	for a, s := range d.stores {
		c.stores[a] = s
	}
	for l, addrs := range d.lines {
		c.lines[l] = append([]pmm.Addr(nil), addrs...)
	}
	for tid, addrs := range d.pendingWB {
		if len(addrs) > 0 {
			c.pendingWB[tid] = append([]pmm.Addr(nil), addrs...)
		}
	}
	return c
}

// SetLabeler rebinds the report labeler to a resumed scenario's own heap.
func (d *Detector) SetLabeler(l func(pmm.Addr) string) { d.labeler = l }

// AppendStateSignature serializes, for crash-image memoization, the FSM in
// ascending address order plus the pending write-backs per thread — exactly
// the state CrashRead verdicts are a function of. Two crash points with
// equal signatures are indistinguishable to this detector.
func (d *Detector) AppendStateSignature(buf []byte) []byte {
	addrs := make([]pmm.Addr, 0, len(d.stores))
	for a := range d.stores {
		addrs = append(addrs, a)
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
	buf = sigU64(buf, uint64(len(addrs)))
	for _, a := range addrs {
		s := d.stores[a]
		buf = sigU64(buf, uint64(a))
		buf = sigU64(buf, uint64(s.seq))
		buf = sigU64(buf, uint64(s.tid))
		buf = sigU64(buf, uint64(s.state))
	}
	tids := make([]vclock.TID, 0, len(d.pendingWB))
	for tid, addrs := range d.pendingWB {
		if len(addrs) > 0 {
			tids = append(tids, tid)
		}
	}
	sort.Slice(tids, func(i, j int) bool { return tids[i] < tids[j] })
	buf = sigU64(buf, uint64(len(tids)))
	for _, tid := range tids {
		buf = sigU64(buf, uint64(tid))
		buf = sigU64(buf, uint64(len(d.pendingWB[tid])))
		for _, a := range d.pendingWB[tid] {
			buf = sigU64(buf, uint64(a))
		}
	}
	return buf
}

// sigU64 serializes v little-endian into the signature buffer (mirrors the
// engine's encoding).
func sigU64(buf []byte, v uint64) []byte {
	return append(buf,
		byte(v), byte(v>>8), byte(v>>16), byte(v>>24),
		byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56))
}

// storeInfoBytes is the accounted retained size of one FSM entry (map
// overhead included, fixed for platform stability).
const storeInfoBytes = 48

// FootprintBytes estimates the retained size of one clone, for
// Stats.SnapshotBytes accounting.
func (d *Detector) FootprintBytes() int64 {
	n := int64(len(d.stores)) * storeInfoBytes
	for _, addrs := range d.lines {
		n += int64(len(addrs)) * 8
	}
	for _, addrs := range d.pendingWB {
		n += int64(len(addrs)) * 8
	}
	return n
}
