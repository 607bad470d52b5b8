package core

import (
	"bytes"
	"fmt"
	"testing"

	"yashme/internal/pmm"
	"yashme/internal/tso"
	"yashme/internal/vclock"
)

// rewindAddrs are the addresses a generated program touches: eight words
// over four cache lines, so flushes cover several stored addresses and
// first-store registrations interleave across lines.
var rewindAddrs = [8]pmm.Addr{0x1000, 0x1008, 0x1010, 0x1040, 0x1048, 0x2000, 0x2008, 0x3000}

// applyRewindOp decodes one program byte onto the machine: bits 0-2 pick
// the operation, bits 3-5 the address, bit 6 the thread, and bit 7 drains
// that thread's store buffer afterwards (stores and flushes reach the
// detector only when they leave the buffer).
func applyRewindOp(m *tso.Machine, b byte, val uint64) {
	a := rewindAddrs[(b>>3)&7]
	tid := vclock.TID((b >> 6) & 1)
	switch b & 7 {
	case 0:
		m.EnqueueStore(tid, a, 8, val, false, false)
	case 1:
		m.EnqueueStore(tid, a, 8, val, true, true)
	case 2:
		m.EnqueueCLFlush(tid, a)
	case 3:
		m.EnqueueCLWB(tid, a)
	case 4:
		m.EnqueueSFence(tid)
	case 5:
		m.MFence(tid)
	case 6:
		m.Load(tid, a, 8, true)
	case 7:
		m.EvictOne(tid)
	}
	if b&0x80 != 0 {
		m.DrainSB(tid)
	}
}

// rewindState renders what FuzzJournalRewind compares: per execution the
// state signature, every record (its flush-chain bounds included) and its
// flush chain (flushesOf, arena order), the per-line address lists, and the
// detector's FootprintBytes, which reads the table lengths a rewind must
// restore.
func rewindState(d *Detector) []byte {
	var buf []byte
	for _, e := range d.Executions() {
		buf = fmt.Appendf(buf, "exec %d sig %x\n", e.ID, e.AppendStateSignature(nil))
		for r := StoreRef(1); int(r) <= len(e.arena); r++ {
			buf = fmt.Appendf(buf, "%+v %v;", *e.ByRef(r), e.flushesOf(e.ByRef(r)))
		}
		buf = fmt.Appendf(buf, "\nlines %d:", e.lineAddrs.Len())
		for l := pmm.Line(0); int(l) < e.lineAddrs.Len(); l++ {
			if addrs := e.lineAddrs.At(l); len(addrs) > 0 {
				buf = fmt.Appendf(buf, " %d=%v", l, addrs)
			}
		}
		buf = fmt.Appendf(buf, "\n")
	}
	return fmt.Appendf(buf, "footprint %d\n", d.FootprintBytes())
}

// maxRewindOps caps a generated program's length.
const maxRewindOps = 64

// checkJournalRewind runs prog on a detector with an undo journal
// attached, clones the detector after op mark%(len+1), finishes the
// program, rewinds to the journal mark taken at the clone, and fails
// unless the rewound detector equals the clone.
func checkJournalRewind(t *testing.T, prog []byte, mark uint16) {
	if len(prog) > maxRewindOps {
		// Undrained store buffers make long programs quadratic; a few
		// dozen ops already reach every mutation kind on four lines.
		prog = prog[:maxRewindOps]
	}
	d := New(Config{Prefix: true, Benchmark: "rewind"})
	m := tso.NewMachine(d, d.ClockArena())
	m.SpawnThreads(2)
	j := &Journal{}
	d.AttachUndo(j)
	at := int(mark) % (len(prog) + 1)
	var want []byte
	jMark := 0
	for i := 0; i <= len(prog); i++ {
		if i == at {
			want = rewindState(d.Clone())
			jMark = j.Mark()
		}
		if i < len(prog) {
			applyRewindOp(m, prog[i], uint64(i+1))
		}
	}
	d.Rewind(j, jMark)
	if got := rewindState(d); !bytes.Equal(got, want) {
		t.Fatalf("rewind to op %d (journal %d of %d) != clone at that op:\nrewound:\n%s\nclone:\n%s",
			at, jMark, j.Len(), got, want)
	}
	if j.Len() != jMark {
		t.Fatalf("journal holds %d ops after rewinding to %d", j.Len(), jMark)
	}
}

// FuzzJournalRewind searches for a program and a mark where undoing the
// journal (Detector.Rewind) disagrees with a Clone taken at the mark —
// the equivalence random mode's probe handover rests on.
func FuzzJournalRewind(f *testing.F) {
	f.Add([]byte{0x80, 0x82, 0x88, 0x8a}, uint16(2))
	f.Fuzz(checkJournalRewind)
}
