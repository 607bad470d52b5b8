package vclock

// Arena equivalence harness: a mini-simulation drives the interned arena,
// the owned (always-append) arena and the map-based reference oracle from
// reference_test.go through the same operation sequence, respecting the σ
// invariant the epoch fast path depends on — sequence numbers are globally
// unique and strictly increasing, and every clock is a join of commit-time
// thread-clock snapshots. The three must agree on every observable.

import (
	"fmt"
	"sync"
	"testing"
	"testing/quick"
)

const arenaTIDs = 4

// arenaSim drives one arena through commit/acquire/flush-join events while
// mirroring every clock in map form.
type arenaSim struct {
	a    *Arena
	seq  Seq
	base []Ref   // per-thread snapshot base
	self []Seq   // per-thread own latest σ
	ref  []mapVC // per-thread full clock, map form

	// stamps is the pool of commit stamps later events may join with.
	stamps []Stamp
	srefs  []mapVC // parallel map form of each stamp's clock

	// lf mirrors the detector's lastflush/CVpre use: a snapshot Ref joined
	// with commit stamps via JoinStamp.
	lf    Ref
	lfRef mapVC
}

func newArenaSim(owned bool) *arenaSim {
	s := &arenaSim{
		a:     NewArena(owned),
		base:  make([]Ref, arenaTIDs),
		self:  make([]Seq, arenaTIDs),
		ref:   make([]mapVC, arenaTIDs),
		lfRef: make(mapVC),
	}
	for t := range s.ref {
		s.ref[t] = make(mapVC)
	}
	return s
}

// arenaOp is one generated event. Kind selects commit / acquire / flush-join;
// T names the acting thread and Pick selects a stamp from the pool.
type arenaOp struct {
	Kind uint8
	T    uint8
	Pick uint8
}

func (s *arenaSim) apply(op arenaOp) {
	t := TID(op.T % arenaTIDs)
	switch op.Kind % 3 {
	case 0: // commit: mint the thread's next stamp, record it in the pool
		s.seq++
		s.self[t] = s.seq
		st := Stamp{Base: s.base[t], Self: NewEpoch(t, s.seq)}
		if s.a.Owned() {
			st = s.a.Reintern(st)
		}
		s.ref[t][t] = s.seq
		m := make(mapVC, len(s.ref[t]))
		for u, q := range s.ref[t] {
			m[u] = q
		}
		s.stamps = append(s.stamps, st)
		s.srefs = append(s.srefs, m)
	case 1: // acquire: join a pooled stamp into the thread's clock
		if len(s.stamps) == 0 {
			return
		}
		i := int(op.Pick) % len(s.stamps)
		s.base[t] = s.a.JoinThread(s.base[t], t, s.self[t], s.stamps[i])
		s.ref[t].Join(s.srefs[i])
	case 2: // flush-cover: join a pooled stamp into the lastflush snapshot
		if len(s.stamps) == 0 {
			return
		}
		i := int(op.Pick) % len(s.stamps)
		s.lf = s.a.JoinStamp(s.lf, s.stamps[i])
		s.lfRef.Join(s.srefs[i])
	}
}

// check compares every observable of the arena state against the map oracle.
func (s *arenaSim) check() error {
	for t := TID(0); t < arenaTIDs; t++ {
		st := Stamp{Base: s.base[t], Self: NewEpoch(t, s.self[t])}
		for u := TID(0); u < arenaTIDs+1; u++ {
			if got, want := s.a.MaterializeInto(nil, st).Get(u), s.ref[t].Get(u); got != want {
				return fmt.Errorf("thread %d clock component %d = %d, oracle %d", t, u, got, want)
			}
			for _, q := range []Seq{0, 1, s.ref[t].Get(u), s.ref[t].Get(u) + 1} {
				if got, want := s.a.Contains(st, u, q), s.ref[t].Contains(u, q); got != want {
					return fmt.Errorf("thread %d Contains(%d,%d) = %v, oracle %v", t, u, q, got, want)
				}
			}
		}
	}
	for i, st := range s.stamps {
		m := s.a.MaterializeInto(nil, st)
		for u := TID(0); u < arenaTIDs; u++ {
			if m.Get(u) != s.srefs[i].Get(u) {
				return fmt.Errorf("stamp %d materialized %v, oracle %v", i, m, s.srefs[i])
			}
		}
	}
	for u := TID(0); u < arenaTIDs; u++ {
		if got, want := s.a.RefGet(s.lf, u), s.lfRef.Get(u); got != want {
			return fmt.Errorf("lastflush RefGet(%d) = %d, oracle %d", u, got, want)
		}
		for _, q := range []Seq{0, 1, s.lfRef.Get(u), s.lfRef.Get(u) + 1} {
			if got, want := s.a.RefContains(s.lf, u, q), s.lfRef.Contains(u, q); got != want {
				return fmt.Errorf("lastflush RefContains(%d,%d) = %v, oracle %v", u, q, got, want)
			}
		}
	}
	return nil
}

// Property: under the simulator's σ discipline, the interned arena (epoch
// fast path on) and the owned arena (fast path off, one private snapshot
// per commit) both agree with the map oracle after every event.
func TestArenaMatchesMapReference(t *testing.T) {
	f := func(ops []arenaOp) bool {
		interned, owned := newArenaSim(false), newArenaSim(true)
		for _, op := range ops {
			interned.apply(op)
			owned.apply(op)
			if err := interned.check(); err != nil {
				t.Logf("interned, after %+v: %v", op, err)
				return false
			}
			if err := owned.check(); err != nil {
				t.Logf("owned, after %+v: %v", op, err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 250}); err != nil {
		t.Error(err)
	}
}

// Property: the epoch fast path fires under the discipline, and never on
// the owned arena.
func TestArenaEpochCounters(t *testing.T) {
	f := func(ops []arenaOp) bool {
		interned, owned := newArenaSim(false), newArenaSim(true)
		joins := 0
		for _, op := range ops {
			if op.Kind%3 != 0 && len(interned.stamps) > 0 {
				joins++
			}
			interned.apply(op)
			owned.apply(op)
		}
		ih, ihits, imiss := interned.a.TakeCounters()
		_, ohits, omiss := owned.a.TakeCounters()
		_ = ih
		if ohits != 0 || omiss != 0 {
			t.Logf("owned arena used the epoch fast path: hits=%d misses=%d", ohits, omiss)
			return false
		}
		if int(ihits+imiss) != joins {
			t.Logf("interned arena: %d hits + %d misses != %d joins", ihits, imiss, joins)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestArenaCloneNoAliasing: a clone shares the original's snapshots
// read-only; either side's later interns stay private, shared Refs resolve
// identically on both sides, and the clone's cost counters start at zero.
func TestArenaCloneNoAliasing(t *testing.T) {
	a := NewArena(false)
	r1 := a.Intern(VC{1, 2})
	r2 := a.Intern(VC{3})
	n := a.Len()

	c := a.Clone()
	if got, _, _ := c.TakeCounters(); got != 0 {
		t.Fatalf("clone starts with %d interned, want 0", got)
	}

	// Diverge: each side interns a different new clock.
	ra := a.Intern(VC{1, 2, 3})
	rc := c.Intern(VC{4, 4})
	if ra != Ref(n) || rc != Ref(n) {
		t.Fatalf("post-clone interns got refs %d/%d, want both %d (independent appends)", ra, rc, n)
	}
	if got := a.At(ra).Get(2); got != 3 {
		t.Errorf("original's new entry = %v", a.At(ra))
	}
	if got := c.At(rc).Get(0); got != 4 {
		t.Errorf("clone's new entry = %v (original's append leaked in)", c.At(rc))
	}

	// Shared prefix refs resolve identically.
	for _, r := range []Ref{0, r1, r2} {
		for u := TID(0); u < 3; u++ {
			if a.RefGet(r, u) != c.RefGet(r, u) {
				t.Errorf("ref %d component %d diverged: %d vs %d", r, u, a.RefGet(r, u), c.RefGet(r, u))
			}
		}
	}

	// Re-interning an old clock on the clone finds the shared entry (the
	// lazily rebuilt lookup covers the shared prefix).
	if got := c.Intern(VC{1, 2}); got != r1 {
		t.Errorf("clone re-interned {1 2} as %d, want shared %d", got, r1)
	}

	// The original's scratch buffers and counters are untouched by clone use.
	if got, _, _ := a.TakeCounters(); got != 3 {
		t.Errorf("original interned counter = %d, want 3", got)
	}
}

// TestArenaClonesShareFrozenIndex: every clone of a checkpoint template
// looks its inherited entries up through the template's one Frozen index,
// built once by whichever clone interns first and never written again —
// each clone's own appends go to its private map. Clones intern
// concurrently here; under -race any write to the shared index after it
// is built, or an unsynchronized build, is reported.
func TestArenaClonesShareFrozenIndex(t *testing.T) {
	probe := NewArena(false)
	const inherited = 40
	refs := make([]Ref, inherited)
	for i := range refs {
		refs[i] = probe.Intern(VC{Seq(i + 1), 7})
	}
	tmpl := probe.Clone()      // the snapshot template
	probe.Intern(VC{0, 0, 99}) // the probe runs on past the capture
	f := tmpl.Freeze()
	if f != tmpl.Clone().base || f != tmpl.Clone().base {
		t.Fatal("clones of one template do not share its frozen prefix")
	}

	const workers = 4
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := tmpl.Clone()
			for i, r := range refs {
				if got := c.Intern(VC{Seq(i + 1), 7}); got != r {
					errs <- fmt.Errorf("clone %d: inherited clock %d interned as %d, want %d", w, i, got, r)
					return
				}
			}
			for i := 0; i < 10; i++ {
				want := Ref(inherited + 1 + i)
				for pass := 0; pass < 2; pass++ {
					if got := c.Intern(VC{Seq(1000 + w), Seq(i)}); got != want {
						errs <- fmt.Errorf("clone %d: own clock %d (pass %d) interned as %d, want %d", w, i, pass, got, want)
						return
					}
				}
			}
			if c.Intern(VC{0, 0, 99}) != Ref(inherited+11) {
				errs <- fmt.Errorf("clone %d resolved the probe's post-capture clock through the template", w)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	filed := 0
	for _, r := range f.table {
		if r != 0 {
			filed++
		}
	}
	if filed != inherited {
		t.Errorf("shared index holds %d refs after the clones interned, want the %d inherited", filed, inherited)
	}

	// A live arena cloned again and again without appending in between —
	// a probe walking its crash points backwards — hands every clone the
	// same prefix, and a new one only after it appends.
	a, b := probe.Clone(), probe.Clone()
	if a.base != b.base {
		t.Fatal("clones taken between two appends do not share one frozen prefix")
	}
	probe.Intern(VC{0, 0, 100})
	if c := probe.Clone(); c.base == a.base || c.base.len() != a.base.len()+1 {
		t.Fatal("a clone taken after an append reuses the stale prefix")
	}
	if got := a.Intern(VC{0, 0, 99}); got != Ref(inherited+1) {
		t.Errorf("clone interned the probe's clock as %d, want %d", got, inherited+1)
	}
}
