package vclock

import (
	"slices"
	"testing"
	"testing/quick"
)

func TestGetOnNilAndEmpty(t *testing.T) {
	var nilVC VC
	if got := nilVC.Get(3); got != 0 {
		t.Fatalf("nil VC Get = %d, want 0", got)
	}
	if got := VC(nil).Get(0); got != 0 {
		t.Fatalf("empty VC Get = %d, want 0", got)
	}
}

func TestSetAndGet(t *testing.T) {
	v := VC(nil)
	v.Set(1, 10)
	v.Set(2, 5)
	if v.Get(1) != 10 || v.Get(2) != 5 || v.Get(3) != 0 {
		t.Fatalf("unexpected components: %v", v)
	}
	v.Set(1, 10) // equal is fine
	v.Set(1, 11)
	if v.Get(1) != 11 {
		t.Fatalf("Set did not raise component: %v", v)
	}
}

func TestSetRegressionPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Set lowering a component did not panic")
		}
	}()
	v := VC(nil)
	v.Set(1, 10)
	v.Set(1, 9)
}

func TestJoin(t *testing.T) {
	a := VC{1: 5, 2: 9}
	b := VC{1: 7, 3: 2}
	a.Join(b)
	want := VC{1: 7, 2: 9, 3: 2}
	for tid, s := range want {
		if a.Get(TID(tid)) != s {
			t.Fatalf("after join, component %d = %d, want %d", tid, a.Get(TID(tid)), s)
		}
	}
}

func TestContains(t *testing.T) {
	v := VC{1: 5}
	cases := []struct {
		tid  TID
		seq  Seq
		want bool
	}{
		{1, 5, true},
		{1, 4, true},
		{1, 6, false},
		{2, 1, false},
		{2, 0, true}, // seq 0 = never happened, trivially contained
	}
	for _, c := range cases {
		if got := v.Contains(c.tid, c.seq); got != c.want {
			t.Errorf("Contains(%d,%d) = %v, want %v", c.tid, c.seq, got, c.want)
		}
	}
}

func TestStringDeterministic(t *testing.T) {
	v := VC{3: 1, 1: 2, 2: 3}
	want := "{1:2 2:3 3:1}"
	if got := v.String(); got != want {
		t.Fatalf("String = %q, want %q", got, want)
	}
	if got := VC(nil).String(); got != "{}" {
		t.Fatalf("empty String = %q", got)
	}
}

// leq reports whether every component of a is <= the matching component of
// b (a happens-before-or-equal b).
func leq(a, b VC) bool {
	for t, s := range a {
		if s > b.Get(TID(t)) {
			return false
		}
	}
	return true
}

// Property: Join is idempotent, commutative in effect, and monotone.
func TestJoinProperties(t *testing.T) {
	mk := func(xs []uint8) VC {
		v := VC(nil)
		for i, x := range xs {
			if x > 0 {
				v.Set(TID(i), Seq(x))
			}
		}
		return v
	}
	idempotent := func(xs []uint8) bool {
		a := mk(xs)
		b := slices.Clone(a)
		a.Join(b)
		return leq(a, b) && leq(b, a)
	}
	if err := quick.Check(idempotent, nil); err != nil {
		t.Errorf("join not idempotent: %v", err)
	}
	commutative := func(xs, ys []uint8) bool {
		ab := mk(xs)
		ab.Join(mk(ys))
		ba := mk(ys)
		ba.Join(mk(xs))
		return leq(ab, ba) && leq(ba, ab)
	}
	if err := quick.Check(commutative, nil); err != nil {
		t.Errorf("join not commutative: %v", err)
	}
	monotone := func(xs, ys []uint8) bool {
		a := mk(xs)
		joined := slices.Clone(a)
		joined.Join(mk(ys))
		return leq(a, joined)
	}
	if err := quick.Check(monotone, nil); err != nil {
		t.Errorf("join not monotone: %v", err)
	}
}

// Property: Contains agrees with a direct component comparison.
func TestContainsProperty(t *testing.T) {
	f := func(comp uint8, seq uint8) bool {
		v := VC(nil)
		if comp > 0 {
			v.Set(1, Seq(comp))
		}
		want := seq == 0 || Seq(seq) <= v.Get(1)
		return v.Contains(1, Seq(seq)) == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// BenchmarkVCJoin measures the single-pass join on the two shapes that
// matter: growing (other is longer, one allocation) and in-place (other
// fits, zero allocations).
func BenchmarkVCJoin(b *testing.B) {
	long := VC(nil)
	for t := TID(0); t < 8; t++ {
		long.Set(t, Seq(t+1))
	}
	short := VC(nil)
	short.Set(1, 100)
	b.Run("grow", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			v := VC{5}
			v.Join(long)
		}
	})
	b.Run("in-place", func(b *testing.B) {
		b.ReportAllocs()
		v := slices.Clone(long)
		for i := 0; i < b.N; i++ {
			v.Join(short)
		}
	})
}
