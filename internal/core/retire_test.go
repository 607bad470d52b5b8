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
		for _, a := range e.AppendStoredAddrs(nil) {
			for _, s := range e.history(a) {
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
		r.m = tso.NewMachine(r.d, r.d.ClockArena())
		r.commitFlushed(addrX, 4, 9000)
		r.d.Retire()
	}
}

// TestRetireKeepsSnapshotsIntact: retiring a probe its clones were taken
// from must leave every copy intact. The probe runs with an undo journal,
// is cloned at its end, rewound to an earlier mark and cloned again; that
// rewound copy must equal a clone taken at the mark on the way forward.
// Every copy is read before the probe retires and again after other
// detectors have reused the pools.
func TestRetireKeepsSnapshotsIntact(t *testing.T) {
	probe := newRig(true)
	j := &Journal{}
	probe.d.AttachUndo(j)
	probe.commitFlushed(addrX, 4, 1)
	lo := j.Mark()
	fwd := probe.d.Clone()
	probe.commitFlushed(addrZ, 6, 100)
	full := probe.d.Clone()
	probe.d.Rewind(j, lo)
	key := probe.d.Clone()
	// A recovery execution on the probe, so its Retire recycles a grown
	// execution besides the rewound one.
	probe.d.EndExecution(probe.m.CurSeq())
	probe.m = tso.NewMachine(probe.d, probe.d.ClockArena())
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
		if n := len(e.AppendStoredAddrs(nil)); n != 0 {
			t.Fatalf("fresh execution %d holds %d stored addresses", e.ID, n)
		}
		if e.crashSeq != 0 || e.PersistLB(addrX) != nil || e.Latest(addrZ) != nil {
			t.Fatalf("fresh execution %d carries state from a retired one", e.ID)
		}
	}
	// A race check on a fresh store sees no inherited flushes or bounds.
	r.m.EnqueueStore(0, addrX, 8, 1, false, false)
	r.m.DrainSB(0)
	e := r.crash()
	if got := len(e.flushesOf(e.Latest(addrX))); got != 0 {
		t.Fatalf("fresh store has %d flushes", got)
	}
	if race := r.d.checkCandidate(e, e.Latest(addrX), false); race == nil {
		t.Fatal("unflushed store on a recycled execution must race")
	}
}

// TestRetireKeepsWalkCopiesIntact: a probe walks its marks backwards,
// rewinding and copying at each, and each copy is resumed by clones that
// retire before the copy does — the engine's model-check walk. Retiring
// the probe, a copy, or a clone of one must leave every other copy intact,
// and the walk's rewinds must never write a record a copy reads. Two
// orders: each copy resumes as the walk reaches it (Workers 1), or the
// probe retires and the pools are dirtied before any copy resumes (pool
// mode, where the planner retires the probe with specs still queued).
func TestRetireKeepsWalkCopiesIntact(t *testing.T) {
	resume := func(probe *rig, c *Detector) {
		resumed := c.Clone()
		resumed.EndExecution(probe.m.CurSeq())
		rec := &rig{d: resumed, m: tso.NewMachine(resumed, resumed.ClockArena())}
		rec.commitFlushed(addrZ, 5, 700)
		resumed.Retire()
		dirtyPools()
	}
	for _, probeFirst := range []bool{false, true} {
		t.Run(fmt.Sprintf("probe-retires-first=%v", probeFirst), func(t *testing.T) {
			probe := newRig(true)
			j := &Journal{}
			probe.d.AttachUndo(j)
			var marks []int
			var want [][]byte
			for i := 0; i < 4; i++ {
				probe.commitFlushed(addrX+pmm.Addr(64*i), 3, uint64(10*i+1))
				marks = append(marks, j.Mark())
				want = append(want, stateOf(probe.d.Clone()))
			}
			copies := make([]*Detector, len(marks))
			for i := len(marks) - 1; i >= 0; i-- {
				probe.d.Rewind(j, marks[i])
				copies[i] = probe.d.Clone()
				if !probeFirst {
					resume(probe, copies[i])
				}
			}
			probe.d.Retire()
			dirtyPools()
			if probeFirst {
				for i := len(copies) - 1; i >= 0; i-- {
					resume(probe, copies[i])
				}
			}
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
		})
	}
}

// TestRetireRecyclesEveryExecution: a clone copies its source's records,
// so Retire recycles every execution: the probe's, although clones were
// taken from it, and each clone's, with the arena backing it copied the
// records into. sync.Pool drops a random share of what is put back under
// -race, and a GC may empty it, so each round retires a fresh pair and
// the test passes once a round sees both come back.
func TestRetireRecyclesEveryExecution(t *testing.T) {
	for round := 0; round < 32; round++ {
		probe := newRig(true)
		probe.commitFlushed(addrX, 8, 1)
		c := probe.d.Clone()
		probeExec, cloneExec := probe.d.Current(), c.Current()
		cloneArena := &cloneExec.arena[0]
		probe.d.Retire()
		c.Retire()
		var gotProbe, gotClone bool
		for i := 0; i < 64; i++ {
			e, _ := execPool.Get().(*Execution)
			if e == nil {
				break
			}
			gotProbe = gotProbe || e == probeExec
			gotClone = gotClone || e == cloneExec && cap(e.arena) > 0 && &e.arena[:1][0] == cloneArena
		}
		if gotProbe && gotClone {
			return
		}
	}
	t.Fatal("Retire did not recycle the cloned probe's execution and the clone's own arena")
}
