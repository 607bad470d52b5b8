package core

import (
	"bytes"
	"fmt"
	"testing"

	"yashme/internal/pmm"
	"yashme/internal/tso"
)

// commitFlushed commits n flushed stores of val, val+1, ... to consecutive
// words from base on thread 0.
func (r *rig) commitFlushed(base pmm.Addr, n int, val uint64) {
	for i := 0; i < n; i++ {
		a := base + pmm.Addr(8*i)
		r.m.EnqueueStore(0, a, 8, val+uint64(i), false, false)
		r.m.EnqueueCLFlush(0, a)
		r.m.DrainSB(0)
	}
}

// stateOf renders everything a scenario resumed from d can read: per
// execution the state signature (stores, flush chains, persist bounds) and
// every store record's contents.
func stateOf(d *Detector) []byte {
	var buf []byte
	for _, e := range d.Executions() {
		buf = fmt.Appendf(buf, "%x\n", e.AppendStateSignature(nil))
		for _, a := range e.StoredAddrs() {
			for _, s := range e.History(a) {
				buf = fmt.Appendf(buf, "%d:%+v;", e.ID, *s)
			}
		}
	}
	return buf
}

// dirtyPools runs fresh detectors that draw whatever Retire recycled and
// overwrite it with different records, then retire them again.
func dirtyPools() {
	for i := 0; i < 8; i++ {
		r := newRig(true)
		r.commitFlushed(addrX, 16, 1000*uint64(i+1))
		r.commitFlushed(addrZ, 16, 5000*uint64(i+1))
		r.d.EndExecution(r.m.CurSeq())
		r.m = tso.NewMachine(r.d)
		r.commitFlushed(addrX, 4, 9000)
		r.d.Retire()
	}
}

// TestRetireKeepsSnapshotsIntact: retiring a probe whose store arena its
// clones share must leave every copy taken from it intact. The probe runs
// with an undo journal, is cloned at its end, rewound to an earlier mark
// and cloned again; that rewound copy must equal a clone taken at the mark
// on the way forward. Every copy is read before the probe retires and
// again after other detectors have reused the pools.
func TestRetireKeepsSnapshotsIntact(t *testing.T) {
	probe := newRig(true)
	j := &Journal{}
	probe.d.AttachUndo(j)
	probe.commitFlushed(addrX, 4, 1)
	lo := j.Mark()
	probe.d.MarkShared()
	fwd := probe.d.Clone()
	probe.commitFlushed(addrZ, 6, 100)
	probe.d.MarkShared()
	full := probe.d.Clone()
	probe.d.Rewind(j, lo)
	key := probe.d.Clone()
	// A recovery execution nothing shares: the one part of the probe that
	// Retire may recycle.
	probe.d.EndExecution(probe.m.CurSeq())
	probe.m = tso.NewMachine(probe.d)
	probe.commitFlushed(addrX, 2, 200)

	wantKey, wantFull := stateOf(key), stateOf(full)
	if !bytes.Equal(wantKey, stateOf(fwd)) {
		t.Fatal("rewind then clone does not reproduce the clone taken at the mark")
	}

	probe.d.Retire()
	dirtyPools()

	if got := stateOf(key); !bytes.Equal(got, wantKey) {
		t.Errorf("rewound copy changed after the probe retired:\n%s\nwant\n%s", got, wantKey)
	}
	if got := stateOf(full); !bytes.Equal(got, wantFull) {
		t.Errorf("full clone changed after the probe retired:\n%s\nwant\n%s", got, wantFull)
	}

	// Retiring a clone must not disturb its source or its siblings either.
	sib := key.Clone()
	key.Retire()
	dirtyPools()
	if got := stateOf(sib); !bytes.Equal(got, wantKey) {
		t.Errorf("sibling clone changed after a clone retired:\n%s\nwant\n%s", got, wantKey)
	}
}

// TestRetiredExecutionsComeBackEmpty: a detector built after others retired
// must start from empty state whatever it draws from the pool.
func TestRetiredExecutionsComeBackEmpty(t *testing.T) {
	dirtyPools()
	r := newRig(true)
	for _, e := range r.d.Executions() {
		if n := len(e.StoredAddrs()); n != 0 {
			t.Fatalf("fresh execution %d holds %d stored addresses", e.ID, n)
		}
		if e.CrashSeq() != 0 || e.PersistLB(addrX) != nil || e.Latest(addrZ) != nil {
			t.Fatalf("fresh execution %d carries state from a retired one", e.ID)
		}
	}
	// A race check on a fresh store sees no inherited flushes or bounds.
	r.m.EnqueueStore(0, addrX, 8, 1, false, false)
	r.m.DrainSB(0)
	e := r.crash()
	if got := len(e.FlushesOf(e.Latest(addrX))); got != 0 {
		t.Fatalf("fresh store has %d flushes", got)
	}
	if race := r.d.CheckCandidate(e, e.Latest(addrX), false); race == nil {
		t.Fatal("unflushed store on a recycled execution must race")
	}
}

// TestRetireKeepsWalkCopiesIntact: a probe walks its marks backwards,
// rewinding and copying at each, and each copy is resumed by clones that
// retire before the copy does — the engine's model-check walk. Copies are
// unmarked clones: retiring one, or a clone of one, must leave the probe's
// records and every other copy intact, and the walk must never write a
// record a copy still reads.
func TestRetireKeepsWalkCopiesIntact(t *testing.T) {
	probe := newRig(true)
	j := &Journal{}
	probe.d.AttachUndo(j)
	var marks []int
	var want [][]byte
	for i := 0; i < 4; i++ {
		probe.commitFlushed(addrX+pmm.Addr(64*i), 3, uint64(10*i+1))
		marks = append(marks, j.Mark())
		probe.d.MarkShared()
		want = append(want, stateOf(probe.d.Clone()))
	}
	probe.d.MarkShared()
	copies := make([]*Detector, len(marks))
	for i := len(marks) - 1; i >= 0; i-- {
		probe.d.Rewind(j, marks[i])
		copies[i] = probe.d.Clone()
		resumed := copies[i].Clone()
		resumed.EndExecution(probe.m.CurSeq())
		rec := &rig{d: resumed, m: tso.NewMachine(resumed)}
		rec.commitFlushed(addrZ, 5, 700)
		resumed.Retire()
		dirtyPools()
	}
	probe.d.Retire()
	for i := range copies {
		if i%2 == 0 {
			copies[i].Retire()
		}
	}
	dirtyPools()
	for i := range copies {
		if i%2 == 0 {
			continue
		}
		if got := stateOf(copies[i]); !bytes.Equal(got, want[i]) {
			t.Errorf("copy at mark %d changed:\n%s\nwant\n%s", marks[i], got, want[i])
		}
	}
}

// TestMarkSharedResumedDetectorNeverRecycled: a detector cloned from a
// crash point's copy is private to its scenario, but under
// RecoveryCrashes a recovery sink clones it again once its recovery
// execution has run. MarkShared must revoke the privacy: retiring the
// resumed detector may then recycle none of its executions, whose own
// store arena (the recovery's) the sink's snapshot borrows.
func TestMarkSharedResumedDetectorNeverRecycled(t *testing.T) {
	probe := newRig(true)
	probe.commitFlushed(addrX, 4, 1)
	probe.d.MarkShared()
	template := probe.d.Clone()
	wantTemplate := stateOf(template)

	resumed := template.Clone()
	resumed.EndExecution(probe.m.CurSeq())
	rec := &rig{d: resumed, m: tso.NewMachine(resumed)}
	rec.commitFlushed(addrZ, 6, 300)
	resumed.MarkShared()
	sinkSnap := resumed.Clone()
	want := stateOf(sinkSnap)
	execs := append([]*Execution(nil), resumed.Executions()...)

	resumed.Retire()
	for i := 0; i < 64; i++ {
		e, _ := execPool.Get().(*Execution)
		if e == nil {
			break
		}
		for _, x := range execs {
			if e == x {
				t.Fatalf("execution %d of a resumed detector marked shared was recycled", x.ID)
			}
		}
	}
	dirtyPools()
	if got := stateOf(sinkSnap); !bytes.Equal(got, want) {
		t.Errorf("recovery snapshot changed after the resumed detector retired:\n%s\nwant\n%s", got, want)
	}
	if got := stateOf(template); !bytes.Equal(got, wantTemplate) {
		t.Errorf("template changed after a detector resumed from it retired:\n%s\nwant\n%s", got, wantTemplate)
	}
}

// TestPrivateCloneRecyclesAllButItsArena: a clone nobody else reads is
// recycled on Retire, without the store arena it borrowed from its
// source. Reusing that view would write later records over the source's.
func TestPrivateCloneRecyclesAllButItsArena(t *testing.T) {
	probe := newRig(true)
	probe.commitFlushed(addrX, 8, 1)
	probe.d.MarkShared()
	template := probe.d.Clone()
	want := stateOf(template)
	for i := 0; i < 4; i++ {
		c := template.Clone()
		c.Retire()
		dirtyPools()
	}
	if got := stateOf(template); !bytes.Equal(got, want) {
		t.Errorf("template changed after its private clones retired:\n%s\nwant\n%s", got, want)
	}
}
