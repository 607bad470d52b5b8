package vclock

import (
	"fmt"
	"maps"
	"slices"
	"testing"
)

// naiveArena is the model an Arena is checked against: every snapshot by
// Ref in canonical form, and (interning mode) a map from a snapshot's
// canonical key to its Ref. A clone copies both.
type naiveArena struct {
	clocks []VC
	index  map[string]Ref
	owned  bool
}

// intern is the model's Intern: the empty clock is Ref 0, an interning
// model returns the Ref of an equal clock, and anything else appends.
func (m *naiveArena) intern(v VC) Ref {
	w := slices.Clone(canonical(v))
	if len(w) == 0 {
		return 0
	}
	key := w.String()
	if r, ok := m.index[key]; ok && !m.owned {
		return r
	}
	r := Ref(len(m.clocks))
	m.clocks = append(m.clocks, w)
	if !m.owned {
		m.index[key] = r
	}
	return r
}

func (m *naiveArena) clone() *naiveArena {
	return &naiveArena{clocks: slices.Clone(m.clocks), index: maps.Clone(m.index), owned: m.owned}
}

// fuzzBytes hands out the fuzz input one byte at a time, zero once spent.
type fuzzBytes []byte

func (b *fuzzBytes) next() int {
	if len(*b) == 0 {
		return 0
	}
	v := (*b)[0]
	*b = (*b)[1:]
	return int(v)
}

// checkArena compares every snapshot of a against the model.
func checkArena(a *Arena, m *naiveArena) error {
	if a.Len() != len(m.clocks) {
		return fmt.Errorf("arena holds %d snapshots, model %d", a.Len(), len(m.clocks))
	}
	for r, want := range m.clocks {
		if got := a.At(Ref(r)); !slices.Equal(got, want) {
			return fmt.Errorf("At(%d) = %v, model %v", r, got, want)
		}
	}
	return nil
}

// runArenaOps drives arenas and their models through the operations the
// input encodes — Intern, JoinStamp, Clone, Freeze, each on any arena
// alive so far, clones included — and checks every returned Ref and every
// snapshot against the model. A clone that appended is never cloned (the
// engine never clones one), and freezing it must panic.
func runArenaOps(data []byte) error {
	in := fuzzBytes(data)
	owned := in.next()%2 == 1
	arenas := []*Arena{NewArena(owned)}
	models := []*naiveArena{{clocks: []VC{nil}, index: map[string]Ref{}, owned: owned}}
	clock := func() VC {
		v := make(VC, in.next()%5)
		for i := range v {
			v[i] = Seq(in.next() % 4)
		}
		return v
	}
	for step := 0; len(in) > 0; step++ {
		op, i := in.next()%4, in.next()%len(arenas)
		a, m := arenas[i], models[i]
		switch op {
		case 0: // Intern
			v := clock()
			if got, want := a.Intern(v), m.intern(v); got != want {
				return fmt.Errorf("step %d: arena %d interned %v as %d, model %d", step, i, v, got, want)
			}
		case 1: // JoinStamp: a self epoch only where no fast path can take it
			r, base := Ref(in.next()%a.Len()), Ref(in.next()%a.Len())
			st := Stamp{Base: base}
			if a.Owned() {
				st.Self = NewEpoch(TID(in.next()%4), Seq(in.next()%8))
			}
			want := slices.Clone(m.clocks[base])
			if s := st.Self.Seq(); s != 0 {
				self := make(VC, st.Self.TID()+1)
				self[st.Self.TID()] = s
				want.Join(self)
			}
			want.Join(m.clocks[r])
			if got, wantRef := a.JoinStamp(r, st), m.intern(want); got != wantRef {
				return fmt.Errorf("step %d: arena %d joined %v into %d as %d, model %d", step, i, want, r, got, wantRef)
			}
		case 2: // Clone
			if len(arenas) < 8 && !appendedClone(a) {
				arenas, models = append(arenas, a.Clone()), append(models, m.clone())
			}
		case 3: // Freeze
			if appendedClone(a) {
				if !freezePanics(a) {
					return fmt.Errorf("step %d: arena %d froze after appending to its inherited prefix", step, i)
				}
				break
			}
			f := a.Freeze()
			if f.len() != len(m.clocks) {
				return fmt.Errorf("step %d: arena %d froze %d snapshots, model %d", step, i, f.len(), len(m.clocks))
			}
			for r, want := range m.clocks {
				if got := f.at(Ref(r)); !slices.Equal(got, want) {
					return fmt.Errorf("step %d: arena %d frozen At(%d) = %v, model %v", step, i, r, got, want)
				}
			}
		}
		if err := checkArena(a, m); err != nil {
			return fmt.Errorf("step %d, arena %d: %v", step, i, err)
		}
	}
	for i := range arenas {
		if err := checkArena(arenas[i], models[i]); err != nil {
			return fmt.Errorf("end, arena %d: %v", i, err)
		}
	}
	return nil
}

// appendedClone reports whether a is a clone that appended since it was
// cloned: the one arena Freeze refuses.
func appendedClone(a *Arena) bool { return a.base != nil && len(a.own.spans) > 0 }

// freezePanics reports whether a.Freeze panics.
func freezePanics(a *Arena) (panicked bool) {
	defer func() { panicked = recover() != nil }()
	a.Freeze()
	return false
}

// FuzzArenaMatchesNaive checks the arena's layered storage and hashed
// lookup against the naive model, once with the real clock hash and once
// with a hash that files every clock under one value, so a lookup that
// trusted a hash match without comparing the words would merge distinct
// clocks and fail.
func FuzzArenaMatchesNaive(f *testing.F) {
	f.Add([]byte{0, 0, 0, 3, 1, 2, 0, 0, 2, 1, 1, 2, 0, 1, 3, 1, 1, 0, 1, 2, 0, 1, 0, 0, 1, 1, 2})
	f.Add([]byte{1, 0, 0, 2, 5, 6, 2, 0, 0, 1, 3, 0, 1, 0, 2, 7, 7, 1, 1, 1, 1, 3, 4, 3, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := runArenaOps(data); err != nil {
			t.Fatalf("real hash: %v", err)
		}
		real := clockHash
		clockHash = func(VC) uint64 { return 42 }
		defer func() { clockHash = real }()
		if err := runArenaOps(data); err != nil {
			t.Fatalf("colliding hash: %v", err)
		}
	})
}
