// Delta-checkpoint support: a mutation journal over the detector's
// pre-crash state, plus the state signature that backs crash-image
// memoization (both consumed by internal/engine's checkpoint layer). The
// same journal, read backwards, rewinds a live detector to an earlier
// point (Rewind): random mode's probe hands its own detector, rewound to
// the drawn crash point, to the one scenario that crashes there.
//
// During a probe run the only detector state that changes between two
// crash points of the pre-crash execution is appended or derived from
// appends: StoreCommitted appends a StoreRecord (and registers a first
// store on its line), and applyFlush appends a flushmap node and/or raises
// an address's persist lower bound. Every other Listener method is a
// pre-crash no-op (CLWBBuffered, FenceCommitted), and the read-side state
// (lastflush, cvpre, the report) mutates only in post-crash executions.
// Journaling those three mutation kinds therefore captures the detector's
// evolution exactly: replaying a journal segment onto a clone of an
// earlier snapshot reproduces, bit for bit, the clone a full capture at
// the later point would have taken.
package core

import (
	"yashme/internal/pmm"
	"yashme/internal/vclock"
)

// JournalOpKind discriminates the three detector mutations a pre-crash
// execution can perform.
type JournalOpKind uint8

const (
	// JournalStore is a StoreCommitted append: Target is the ref of the
	// appended record. The record itself is not copied into the op — store
	// records are immutable once committed, so the journal freezes a view
	// of the watched execution's arena at detach time and replay reads the
	// record from there, re-deriving the storemap entry and, for a first
	// store, the line's address list.
	JournalStore JournalOpKind = iota
	// JournalFlush is an applyFlush flushmap append: Target names the
	// covered store, Flush the recorded flush identity.
	JournalFlush
	// JournalPersist is an applyFlush persist-lower-bound raise: Target
	// becomes the persistTab entry of its own address.
	JournalPersist
)

// JournalOp is one recorded detector mutation. Prev is the value the op
// overwrote, which is what Rewind restores: the covered store's old
// flushTail for JournalFlush, the address's old persistTab ref for
// JournalPersist. A JournalStore needs none — the storemap entry it
// replaced is the record's own prevSameAddr.
type JournalOp struct {
	Kind   JournalOpKind
	Target StoreRef // the appended (JournalStore) or covered store
	Prev   int32    // JournalFlush/JournalPersist: the overwritten value
	Flush  FlushRef // JournalFlush: the flush identity
}

// JournalOpBytes is the estimated retained size of one journal op (the
// struct above plus slice-growth overhead), used for Stats.SnapshotBytes
// accounting. A fixed constant keeps the accounting platform-stable.
const JournalOpBytes = 32

// Journal accumulates the mutations of one watched execution. The engine
// attaches it for the duration of a probe run (SetJournal), marks segment
// boundaries at each crash point (Mark), and detaches it before the
// recovery execution starts so post-crash appends never pollute it.
// Detaching freezes a view of the watched execution's arena: replay resolves
// JournalStore refs against it, and a replayed clone extends its shared
// arena view over it instead of copying records.
type Journal struct {
	ops   []JournalOp
	arena []StoreRecord
	// clocks is the clock arena's frozen prefix at detach time: every stamp
	// or ref recorded by the watched run resolves in it, and every replayed
	// clone shares its lookup index.
	clocks *vclock.Frozen
}

// Mark returns the current segment boundary: ops[lo:hi] for two
// consecutive marks is exactly what happened between them.
func (j *Journal) Mark() int { return len(j.ops) }

// Len returns the total ops recorded.
func (j *Journal) Len() int { return len(j.ops) }

// SetJournal attaches (or, with nil, detaches) the replay journal. Only
// the current execution's mutations are recorded; clones never inherit the
// attachment (Clone builds a fresh Detector). Detaching freezes the
// attached journal's arena view; replay is only valid after that.
// Attaching marks the current execution shared: the frozen view outlives
// the detector, so Retire must never recycle that arena.
func (d *Detector) SetJournal(j *Journal) {
	if j != nil {
		d.Current().shared = true
	}
	if j == nil && d.journal != nil {
		e := d.Current()
		d.journal.arena = e.arena[:len(e.arena):len(e.arena)]
		d.journal.clocks = d.arena.Freeze()
	}
	d.journal = j
}

// ReplayJournal applies ops [lo, hi) of j to the current execution. The
// receiver must be a clone of the detector as it stood at the journal
// position lo — in particular its arena is a prefix view of the journal's
// frozen arena, so a JournalStore op extends the view over the frozen
// record (a ref is 1-based, so it doubles as the arena length after its
// append) rather than copying it. Afterwards the execution is
// bit-equivalent to a clone taken at hi.
func (d *Detector) ReplayJournal(j *Journal, lo, hi int) {
	// Adopt the journal's frozen clock prefix outright: the clone's own
	// view is a prefix of it (both came from the watched detector's
	// append-only arena), so every ref taken at any journal position
	// resolves identically, including the replayed records' stamps.
	d.arena.Adopt(j.clocks)
	e := d.Current()
	for i := lo; i < hi; i++ {
		op := &j.ops[i]
		switch op.Kind {
		case JournalStore:
			e.arena = j.arena[:op.Target:op.Target]
			e.meta = append(e.meta, recMeta{})
			rec := &e.arena[op.Target-1]
			e.storeTab.Set(rec.Addr, rec.ref)
			if rec.prevSameAddr == 0 {
				la := e.lineAddrs.Ptr(pmm.LineOf(rec.Addr))
				*la = append(*la, rec.Addr)
			}
		case JournalFlush:
			e.addFlush(e.ByRef(op.Target), op.Flush)
		case JournalPersist:
			e.persistTab.Set(e.ByRef(op.Target).Addr, op.Target)
		}
	}
}

// AttachUndo empties j and attaches it to record the current execution's
// mutations for a later Rewind. Unlike SetJournal it neither marks the
// execution shared nor freezes an arena view: a rewound execution stays
// the detector's own, and Retire recycles it as usual.
func (d *Detector) AttachUndo(j *Journal) {
	j.ops, j.arena, j.clocks = j.ops[:0], nil, nil
	d.journal = j
}

// Rewind undoes ops [mark, Len) of the attached undo journal j on the
// current execution, newest first, then truncates j to mark and detaches
// it. Afterwards the execution is equivalent to a Clone taken when j stood
// at mark: the store, meta and flush arenas are truncated, every storemap,
// persist-bound and flush-chain entry an undone op overwrote is restored,
// and the address-indexed tables shrink back to the length they had then
// (pre-crash, a table only grows by a nonzero Set at its new top, so that
// length is one past its highest nonzero slot). The clock arena is left
// as is: clocks interned after the mark are unreferenced, never wrong.
func (d *Detector) Rewind(j *Journal, mark int) {
	e := d.Current()
	for i := len(j.ops) - 1; i >= mark; i-- {
		op := &j.ops[i]
		switch op.Kind {
		case JournalStore:
			rec := &e.arena[op.Target-1]
			e.storeTab.Set(rec.Addr, rec.prevSameAddr)
			if rec.prevSameAddr == 0 {
				// The address's first store registered it last on its
				// line: every later registration was undone before this.
				la := e.lineAddrs.Ptr(pmm.LineOf(rec.Addr))
				if len(*la) == 1 {
					*la = nil // no shared capacity for a later clone to alias
				} else {
					*la = (*la)[:len(*la)-1]
				}
			}
			e.arena = e.arena[:op.Target-1]
			e.meta = e.meta[:op.Target-1]
		case JournalFlush:
			m := &e.meta[op.Target-1]
			if op.Prev != 0 {
				e.flushArena[op.Prev-1].next = 0
			} else {
				m.flushHead = 0
			}
			m.flushTail = op.Prev
			e.flushArena = e.flushArena[:len(e.flushArena)-1]
		case JournalPersist:
			e.persistTab.Set(e.ByRef(op.Target).Addr, StoreRef(op.Prev))
		}
	}
	n := e.storeTab.Len()
	for n > 0 && e.storeTab.At(pmm.Addr(n-1)) == 0 {
		n--
	}
	e.storeTab.Truncate(n)
	n = e.persistTab.Len()
	for n > 0 && e.persistTab.At(pmm.Addr(n-1)) == 0 {
		n--
	}
	e.persistTab.Truncate(n)
	n = e.lineAddrs.Len()
	for n > 0 && len(e.lineAddrs.At(pmm.Line(n-1))) == 0 {
		n--
	}
	e.lineAddrs.Truncate(n)
	j.ops = j.ops[:mark]
	d.journal = nil
}

// CloneReplay clones the detector and replays journal ops [lo, hi) onto the
// clone's current execution in one sized pass: the segment is pre-scanned
// for its append counts and high-water address, so the meta and flush
// arenas and every table of the replayed execution allocate once at their
// final sizes instead of being cloned at keyframe size and regrown during
// replay (the store arena is shared either way). Bit-equivalent to Clone
// followed by ReplayJournal — this is the checkpoint layer's delta
// materialization fast path.
func (d *Detector) CloneReplay(j *Journal, lo, hi int) *Detector {
	var stores, flushes int
	var maxAddr pmm.Addr
	for i := lo; i < hi; i++ {
		op := &j.ops[i]
		var a pmm.Addr
		switch op.Kind {
		case JournalStore:
			stores++
			a = j.arena[op.Target-1].Addr
		case JournalFlush:
			flushes++
		case JournalPersist:
			a = j.arena[op.Target-1].Addr
		}
		if a > maxAddr {
			maxAddr = a
		}
	}
	nd := &Detector{cfg: d.cfg, report: d.report.Clone(), arena: d.arena.Clone()}
	nd.execs = make([]*Execution, len(d.execs))
	for i, e := range d.execs {
		if i == len(d.execs)-1 {
			nd.execs[i] = e.cloneSized(stores, flushes, maxAddr)
		} else {
			nd.execs[i] = e.clone()
		}
	}
	nd.ReplayJournal(j, lo, hi)
	return nd
}

// appendU64 serializes v little-endian into buf.
func appendU64(buf []byte, v uint64) []byte {
	return append(buf,
		byte(v), byte(v>>8), byte(v>>16), byte(v>>24),
		byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56))
}

// AppendStateSignature serializes the execution's crash-visible detector
// state into buf and returns the extended slice: arena and flush-arena
// lengths, then per stored address (ascending) the storemap ref, the
// persist lower bound, and the full flush chain of every record in the
// address's history (newest first). Two probe points of one schedule with
// equal signatures hold byte-identical image-determining state — the
// stores, their values and order (positional refs over append-only arenas
// make equal refs name equal records within one run), what was flushed,
// and what the persist floors are. crashSeq is deliberately excluded: it
// feeds only the trace recorder and test accessors, never an image or a
// race verdict.
func (e *Execution) AppendStateSignature(buf []byte) []byte {
	buf = appendU64(buf, uint64(len(e.arena)))
	buf = appendU64(buf, uint64(len(e.flushArena)))
	for a, n := pmm.Addr(0), pmm.Addr(e.storeTab.Len()); a < n; a++ {
		ref := e.storeTab.At(a)
		if ref == 0 {
			continue
		}
		buf = appendU64(buf, uint64(a))
		buf = appendU64(buf, uint64(ref))
		buf = appendU64(buf, uint64(e.persistTab.At(a)))
		for s := e.ByRef(ref); s != nil; s = e.ByRef(s.prevSameAddr) {
			head := e.meta[s.ref-1].flushHead
			cnt := uint64(0)
			for f := head; f != 0; f = e.flushArena[f-1].next {
				cnt++
			}
			buf = appendU64(buf, cnt)
			for f := head; f != 0; f = e.flushArena[f-1].next {
				fr := e.flushArena[f-1].ref
				buf = appendU64(buf, uint64(fr.TID))
				buf = appendU64(buf, uint64(fr.Seq))
			}
		}
	}
	return buf
}

// Estimated retained bytes per unit of detector state, for
// Stats.SnapshotBytes accounting (fixed constants keep the numbers
// platform-stable; they track the struct sizes above within a few bytes).
// The store arena does not appear: committed records are immutable and
// shared between clones, so a clone retains no arena bytes of its own.
const (
	recMetaBytes   = 12
	flushNodeBytes = 16
	tableSlotBytes = 4
	lineSlotBytes  = 24 // slice/clock headers in the per-line tables
)

// FootprintBytes estimates the retained size of a full detector clone —
// what one full-capture snapshot costs and what a delta checkpoint avoids.
func (d *Detector) FootprintBytes() int64 {
	var n int64
	for _, e := range d.execs {
		n += int64(len(e.meta)) * recMetaBytes
		n += int64(len(e.flushArena)) * flushNodeBytes
		n += int64(e.storeTab.Len()+e.persistTab.Len()) * tableSlotBytes
		n += int64(e.lineAddrs.Len()) * lineSlotBytes
		// lastflush slots shrank from owned clocks to 4-byte arena refs.
		n += int64(e.lastflush.Len()) * tableSlotBytes
	}
	return n
}
