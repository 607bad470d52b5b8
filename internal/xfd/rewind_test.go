package xfd

import (
	"bytes"
	"fmt"
	"testing"

	"yashme/internal/pmm"
	"yashme/internal/tso"
	"yashme/internal/vclock"
)

// rewindAddrs are the addresses a generated event sequence touches: eight
// words over four cache lines, so flushes cover several stored addresses
// and first registrations interleave across lines.
var rewindAddrs = [8]pmm.Addr{0x1000, 0x1008, 0x1010, 0x1040, 0x1048, 0x2000, 0x2008, 0x3000}

// applyRewindEvent decodes one program byte into a listener event at
// commit sequence seq: bits 0-2 pick the event, bits 3-5 the address,
// bits 6-7 the thread.
func applyRewindEvent(d *Detector, b byte, seq vclock.Seq) {
	a := rewindAddrs[(b>>3)&7]
	tid := vclock.TID(b >> 6)
	switch b & 7 {
	case 0, 1:
		d.StoreCommitted(&tso.CommittedStore{Addr: a, Size: 8, Val: uint64(seq), TID: tid, Seq: seq})
	case 2:
		d.CLFlushCommitted(tid, a, seq, vclock.Stamp{})
	case 3, 4:
		d.CLWBBuffered(tid, a, vclock.Stamp{})
	case 5:
		d.CLWBPersisted(tso.FBEntry{Addr: a, TID: tid}, tid, seq, vclock.Stamp{})
	case 6:
		d.FenceCommitted(tid, seq, vclock.Stamp{})
	case 7:
		d.SeedPersisted(a)
	}
}

// rewindState renders what FuzzJournalRewind compares: the state
// signature, the footprint, and the races CrashRead reports on every
// touched address (classifying a read adds its race to the report, so this
// runs last).
func rewindState(d *Detector) []byte {
	buf := fmt.Appendf(nil, "sig %x\nfootprint %d\n", d.AppendStateSignature(nil), d.FootprintBytes())
	for _, a := range rewindAddrs {
		d.CrashRead(a, false)
	}
	for _, r := range d.Report().Races() {
		buf = fmt.Appendf(buf, "%+v\n", r)
	}
	return buf
}

// checkJournalRewind runs prog on a detector with its undo journal
// attached, cloning it after ops hi = mark%(len+1) and lo = hi/2, then
// rewinds it to hi and to lo in turn, as a probe's backward walk does, and
// fails unless each rewound state equals the clone taken there.
func checkJournalRewind(t *testing.T, prog []byte, mark uint16) {
	d := New("rewind", func(a pmm.Addr) string { return fmt.Sprintf("%#x", uint64(a)) })
	// Retired journals are pooled, so later inputs arm a used one.
	defer d.Retire()
	d.SeedPersisted(rewindAddrs[0])
	d.AttachUndo()
	hi := int(mark) % (len(prog) + 1)
	lo := hi / 2
	var at [2]struct {
		op, jMark int
		clone     *Detector
	}
	at[0].op, at[1].op = hi, lo
	for i := 0; i <= len(prog); i++ {
		for k := range at {
			if at[k].op == i {
				at[k].clone, at[k].jMark = d.Clone(), d.Mark()
			}
		}
		if i < len(prog) {
			applyRewindEvent(d, prog[i], vclock.Seq(i+1))
		}
	}
	for _, p := range at {
		d.Rewind(p.jMark)
		if d.Mark() != p.jMark {
			t.Fatalf("journal holds %d ops after rewinding to %d", d.Mark(), p.jMark)
		}
		got, want := rewindState(d.Clone()), rewindState(p.clone)
		if !bytes.Equal(got, want) {
			t.Fatalf("rewind to op %d (journal %d) != clone at that op:\nrewound:\n%s\nclone:\n%s", p.op, p.jMark, got, want)
		}
	}
}

// FuzzJournalRewind searches for an event sequence and a mark where
// undoing the journal (Detector.Rewind) disagrees with a Clone taken at the
// mark: the equivalence a probe's backward walk and random mode's handover
// rest on.
func FuzzJournalRewind(f *testing.F) {
	f.Add([]byte{0x00, 0x03, 0x08, 0x0b, 0x06, 0x02}, uint16(3))
	f.Fuzz(checkJournalRewind)
}
