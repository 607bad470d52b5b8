package vclock

// The dense slice-backed VC replaced an earlier map-based implementation.
// This file keeps the map version as a test-only reference and checks, on
// random operation sequences, that the two agree on every observable:
// component reads, joins, Contains and String.

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

// mapVC is the original map-based vector clock, verbatim semantics.
type mapVC map[TID]Seq

func (v mapVC) Get(t TID) Seq {
	if v == nil {
		return 0
	}
	return v[t]
}

func (v mapVC) Set(t TID, s Seq) {
	if cur := v[t]; s < cur {
		panic("mapVC: component regression")
	}
	v[t] = s
}

func (v mapVC) Join(other mapVC) {
	for t, s := range other {
		if s > v[t] {
			v[t] = s
		}
	}
}

func (v mapVC) Contains(t TID, s Seq) bool {
	return s == 0 || s <= v.Get(t)
}

func (v mapVC) String() string {
	tids := make([]int, 0, len(v))
	for t := range v {
		if v[t] != 0 {
			tids = append(tids, int(t))
		}
	}
	sort.Ints(tids)
	var b strings.Builder
	b.WriteByte('{')
	for i, t := range tids {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%d:%d", t, v[TID(t)])
	}
	b.WriteByte('}')
	return b.String()
}

// refOp is one randomly generated operation. quick fills the fields; apply
// interprets them. Kind 0 = Set, 1 = Join (with a clock built from Arg
// pairs), 2 = Clone-and-continue (checks the copy detaches).
type refOp struct {
	Kind uint8
	T    uint8
	S    uint16
	Arg  [3]uint16 // Join operand: component for TIDs 0..2
}

const refTIDs = 8 // dense range the harness exercises

// apply runs one op against both implementations, keeping them panic-free by
// raising Set targets to at least the current component.
func (op refOp) apply(d *VC, m mapVC) mapVC {
	switch op.Kind % 3 {
	case 0:
		t := TID(op.T % refTIDs)
		s := Seq(op.S)
		if cur := m.Get(t); s < cur {
			s = cur
		}
		d.Set(t, s)
		m.Set(t, s)
	case 1:
		other := VC(nil)
		otherRef := make(mapVC)
		for i, c := range op.Arg {
			if c == 0 {
				continue
			}
			other.Set(TID(i), Seq(c))
			otherRef.Set(TID(i), Seq(c))
		}
		d.Join(other)
		m.Join(otherRef)
	case 2:
		c := slices.Clone(*d)
		cm := make(mapVC, len(m))
		for t, s := range m {
			cm[t] = s
		}
		*d = c
		m = cm
	}
	return m
}

// agree compares every observable of the two implementations.
func agree(d VC, m mapVC) error {
	for t := TID(0); t < refTIDs+2; t++ {
		if d.Get(t) != m.Get(t) {
			return fmt.Errorf("Get(%d): dense %d, map %d", t, d.Get(t), m.Get(t))
		}
		for _, s := range []Seq{0, 1, d.Get(t), d.Get(t) + 1} {
			if d.Contains(t, s) != m.Contains(t, s) {
				return fmt.Errorf("Contains(%d,%d): dense %v, map %v", t, s, d.Contains(t, s), m.Contains(t, s))
			}
		}
	}
	if d.String() != m.String() {
		return fmt.Errorf("String: dense %q, map %q", d.String(), m.String())
	}
	return nil
}

// Property: after any op sequence, the dense VC and the map reference agree
// on Get, Contains and String.
func TestDenseMatchesMapReference(t *testing.T) {
	f := func(ops []refOp) bool {
		d := VC(nil)
		m := make(mapVC)
		for _, op := range ops {
			m = op.apply(&d, m)
			if err := agree(d, m); err != nil {
				t.Logf("after %+v: %v", op, err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}
