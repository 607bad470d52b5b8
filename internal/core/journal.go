// The detector's mutation journal and its crash-point state signature,
// both consumed by internal/engine's probes. A probe attaches an undo
// journal (AttachUndo) for its pre-crash run, marks it at every crash
// point, and afterwards walks the points backwards, rewinding its own
// detector to each (Rewind): model checking clones the rewound detector
// into each crash point's private copy, random mode hands it to the one
// scenario that crashes at the drawn point.
//
// During a probe run the only detector state that changes between two
// crash points of the pre-crash execution is appended or derived from
// appends: StoreCommitted appends a StoreRecord (and registers a first
// store on its line), and applyFlush appends a flushmap node and/or raises
// an address's persist lower bound. Every other Listener method is a
// pre-crash no-op (CLWBBuffered, FenceCommitted), and the read-side state
// (lastflush, cvpre, the report) mutates only in post-crash executions.
// Journaling those three mutation kinds therefore captures the detector's
// evolution exactly: undoing a journal suffix restores, bit for bit, the
// state a clone taken at the earlier mark would hold.
package core

import (
	"slices"

	"yashme/internal/pmm"
)

// JournalOpKind discriminates the three detector mutations a pre-crash
// execution can perform.
type JournalOpKind uint8

const (
	// JournalStore is a StoreCommitted append: Target is the ref of the
	// appended record. The record itself is not copied into the op: Rewind
	// reads it from the arena it truncates, and its prevSameAddr restores
	// the storemap entry.
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

// Journal accumulates the mutations of one watched execution: the engine
// attaches it to a probe's detector for the pre-crash run (AttachUndo) and
// records a mark at each crash point; Rewind then walks it backwards.
type Journal struct {
	ops []JournalOp
}

// Mark returns the current position: ops[lo:hi] for two consecutive marks
// is exactly what happened between them.
func (j *Journal) Mark() int { return len(j.ops) }

// Len returns the total ops recorded.
func (j *Journal) Len() int { return len(j.ops) }

// AttachUndo empties j and attaches it to record the current execution's
// mutations for a later Rewind. The execution stays the detector's own:
// rewinding it needs no other holder, and Retire recycles it as usual,
// whatever clones were taken from it (each owns its copy).
func (d *Detector) AttachUndo(j *Journal) {
	j.ops = j.ops[:0]
	d.journal = j
}

// Rewind undoes ops [mark, Len) of the attached undo journal j on the
// current execution, newest first, then truncates j to mark and detaches
// it. Afterwards the execution is equivalent to a Clone taken when j stood
// at mark: the store and flush arenas are truncated, every storemap,
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
				// Undo the address's registration on its (sorted) line.
				la := e.lineAddrs.Ptr(pmm.LineOf(rec.Addr))
				if len(*la) == 1 {
					*la = nil // no shared capacity for a later clone to alias
				} else {
					i := slices.Index(*la, rec.Addr)
					*la = slices.Delete(*la, i, i+1)
				}
			}
			e.arena = e.arena[:op.Target-1]
		case JournalFlush:
			s := &e.arena[op.Target-1]
			if op.Prev != 0 {
				e.flushArena[op.Prev-1].next = 0
			} else {
				s.flushHead = 0
			}
			s.flushTail = op.Prev
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

// appendU64 serializes v little-endian into buf.
func appendU64(buf []byte, v uint64) []byte {
	return append(buf,
		byte(v), byte(v>>8), byte(v>>16), byte(v>>24),
		byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56))
}

// AppendStateSignature serializes the execution's crash-visible detector
// state into buf and returns the extended slice: arena and flush-arena
// lengths, then per stored address (ascending, walked line by line) the
// storemap ref, the persist lower bound, and the full flush chain of every
// record in the address's history (newest first). Two probe points of one
// schedule with equal signatures hold byte-identical image-determining
// state — the stores, their values and order (positional refs over
// append-only arenas make equal refs name equal records within one run),
// what was flushed, and what the persist floors are. crashSeq is
// deliberately excluded: it feeds only the trace recorder and test
// accessors, never an image or a race verdict.
func (e *Execution) AppendStateSignature(buf []byte) []byte {
	buf = appendU64(buf, uint64(len(e.arena)))
	buf = appendU64(buf, uint64(len(e.flushArena)))
	for l, n := pmm.Line(0), pmm.Line(e.lineAddrs.Len()); l < n; l++ {
		for _, a := range e.lineAddrs.At(l) {
			ref := e.storeTab.At(a)
			buf = appendU64(buf, uint64(a))
			buf = appendU64(buf, uint64(ref))
			buf = appendU64(buf, uint64(e.persistTab.At(a)))
			for s := e.ByRef(ref); s != nil; s = e.ByRef(s.prevSameAddr) {
				head := s.flushHead
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
	}
	return buf
}

// Estimated retained bytes per unit of detector state, for
// Stats.SnapshotBytes accounting (fixed constants keep the numbers
// platform-stable; they track the struct sizes above within a few bytes).
// A clone copies its store arena like everything else, so its records
// count in full.
const (
	storeRecordBytes = 80
	flushNodeBytes   = 24
	tableSlotBytes   = 4
	lineSlotBytes    = 24 // slice/clock headers in the per-line tables
)

// FootprintBytes estimates the retained size of a full detector clone —
// what one crash point's private copy or one recovery capture costs.
func (d *Detector) FootprintBytes() int64 {
	var n int64
	for _, e := range d.execs {
		n += int64(len(e.arena)) * storeRecordBytes
		n += int64(len(e.flushArena)) * flushNodeBytes
		n += int64(e.storeTab.Len()+e.persistTab.Len()) * tableSlotBytes
		n += int64(e.lineAddrs.Len()) * lineSlotBytes
		// lastflush slots shrank from owned clocks to 4-byte arena refs.
		n += int64(e.lastflush.Len()) * tableSlotBytes
	}
	return n
}
