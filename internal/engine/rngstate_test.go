package engine

import (
	"math"
	"math/rand"
	"testing"
)

// A countingSource must produce the stdlib stream exactly, across the
// 607-word register wrap.
func TestCountingSourceMatchesStdlib(t *testing.T) {
	for _, seed := range []int64{1, 7, 20220326, -5} {
		cs := newCountingSource(seed)
		ref := rand.NewSource(seed).(rand.Source64)
		for i := 0; i < 3000; i++ {
			if got, want := cs.Uint64(), ref.Uint64(); got != want {
				t.Fatalf("seed %d draw %d: got %#x, want %#x", seed, i, got, want)
			}
		}
		cs.release()
	}
}

// streamAt returns rand.NewSource(seed) after n raw steps.
func streamAt(seed int64, n uint64) rand.Source64 {
	ref := rand.NewSource(seed).(rand.Source64)
	for i := uint64(0); i < n; i++ {
		ref.Uint64()
	}
	return ref
}

// checkStreamAt requires cs, placed at draw n of seed's stream, to draw
// what the stdlib source draws after n raw steps, through Int63, Uint64
// and rand.Rand.Intn (whose rejection loop draws a varying number of
// values), for twice the register length.
func checkStreamAt(t *testing.T, what string, cs *countingSource, seed int64, n uint64) {
	t.Helper()
	if cs.seed != seed || cs.n != n {
		t.Fatalf("%s: source at (%d, %d), want (%d, %d)", what, cs.seed, cs.n, seed, n)
	}
	ref := streamAt(seed, n)
	for i := 0; i < 50; i++ {
		if got, want := cs.Int63(), ref.Int63(); got != want {
			t.Fatalf("%s: seed %d at %d, Int63 %d: got %#x, want %#x", what, seed, n, i, got, want)
		}
		if got, want := cs.Uint64(), ref.Uint64(); got != want {
			t.Fatalf("%s: seed %d at %d, Uint64 %d: got %#x, want %#x", what, seed, n, i, got, want)
		}
	}
	if cs.n != n+100 {
		t.Fatalf("%s: seed %d at %d: 100 draws counted as %d", what, seed, n, cs.n-n)
	}
	r, rr := rand.New(cs), rand.New(ref)
	for i := 0; i < 2*rngLen; i++ {
		k := 1 + i
		if i%2 == 1 {
			k = 3 << 61 // Int63n rejects about a quarter of the draws
		}
		if got, want := r.Intn(k), rr.Intn(k); got != want {
			t.Fatalf("%s: seed %d at %d, Intn(%d) %d: got %d, want %d", what, seed, n, k, i, got, want)
		}
	}
}

// TestCountingSourcePositionMatchesStdlib: a source placed at (seed, n)
// fills its register on its first draw and continues seed's stream from
// draw n — on a fresh source, on a register drawn from the pool after a
// release, and on a register handed over from a source that drew past n
// and was stepped back to it, as a random-mode probe's is.
func TestCountingSourcePositionMatchesStdlib(t *testing.T) {
	for _, seed := range []int64{1, 7, 20220326, -5} {
		for _, n := range []uint64{0, 1, 272, 606, 607, 1500} {
			var cs countingSource
			cs.reset(seed, n)
			if cs.state != nil {
				t.Fatal("placing a source filled a register")
			}
			checkStreamAt(t, "placed", &cs, seed, n)
			cs.release()

			// The pool now holds a register at some other position; the
			// next placed source may fill it.
			dirty := newCountingSource(seed + 1)
			dirty.Uint64()
			dirty.release()
			cs.reset(seed, n)
			checkStreamAt(t, "placed after a release", &cs, seed, n)

			probe := newCountingSource(seed)
			for i := uint64(0); i < n+rngLen+17; i++ {
				probe.Uint64()
			}
			probe.rewind(rngLen + 17)
			cs.reset(seed, n)
			cs.state, probe.state = probe.state, nil
			checkStreamAt(t, "handed over", &cs, seed, n)
			cs.release()
		}
	}
}

// A pooled countingSource must produce the stdlib stream exactly however
// often its register is recycled, and reseeding a live source must restart
// the stream.
func TestPooledCountingSourceMatchesStdlib(t *testing.T) {
	for round := 0; round < 3; round++ {
		for _, seed := range []int64{1, 7, 20220326, -5} {
			cs := newCountingSource(seed)
			ref := rand.NewSource(seed).(rand.Source64)
			for i := 0; i < 2*rngLen; i++ {
				if got, want := cs.Uint64(), ref.Uint64(); got != want {
					t.Fatalf("round %d seed %d draw %d: got %#x, want %#x", round, seed, i, got, want)
				}
			}
			cs.Seed(seed + 1)
			ref = rand.NewSource(seed + 1).(rand.Source64)
			if got, want := cs.Uint64(), ref.Uint64(); got != want {
				t.Fatalf("round %d reseed %d: got %#x, want %#x", round, seed+1, got, want)
			}
			cs.release()
		}
	}
}

// checkSeedRngState compares the closed-form fill for seed against the
// stdlib's seed loop: the whole register, then 2x607 draws so both indices
// wrap.
func checkSeedRngState(t *testing.T, seed int64) {
	t.Helper()
	var st rngState
	seedRngState(seed, &st)
	src := rand.NewSource(seed)
	want := mirrorOf(src)
	if st.tap != want.tap || st.feed != want.feed {
		t.Fatalf("seed %d: tap/feed = %d/%d, want %d/%d", seed, st.tap, st.feed, want.tap, want.feed)
	}
	for i := range st.vec {
		if st.vec[i] != want.vec[i] {
			t.Fatalf("seed %d: vec[%d] = %#x, want %#x", seed, i, st.vec[i], want.vec[i])
		}
	}
	ref := src.(rand.Source64)
	for i := 0; i < 2*rngLen; i++ {
		if got, want := st.Uint64(), ref.Uint64(); got != want {
			t.Fatalf("seed %d draw %d: got %#x, want %#x", seed, i, got, want)
		}
	}
}

// The closed-form fill must produce the stdlib's register for every seed:
// the normalization edges (0, multiples of 2^31-1, negatives, the int64
// extremes, the stand-in for zero) and a spread of arbitrary seeds.
func TestSeedRngStateMatchesStdlib(t *testing.T) {
	for _, seed := range []int64{
		0, 1, -1, lcgMod, -lcgMod, 1 << 31, rngZeroSeed, 20220326,
		math.MinInt64, math.MaxInt64,
	} {
		checkSeedRngState(t, seed)
	}
	gen := rand.New(rand.NewSource(18))
	for i := 0; i < 10000; i++ {
		checkSeedRngState(t, int64(gen.Uint64()))
	}
}

func FuzzSeedRngState(f *testing.F) {
	f.Fuzz(checkSeedRngState)
}

// TestRngUnstepInvertsStep: k generator steps followed by k unsteps restore
// the register exactly, from several starting offsets and for k up to
// past twice the register length, so both indices wrap in each direction.
// A rewound source then continues the stream a source placed at the same
// draw count produces, and a source that never drew rewinds its position
// alone.
func TestRngUnstepInvertsStep(t *testing.T) {
	var st rngState
	seedRngState(20220326, &st)
	for _, offset := range []int{0, 1, 272, 606, 900} {
		for i := 0; i < offset; i++ {
			st.Uint64()
		}
		for _, k := range []int{1, 273, 334, rngLen, rngLen + 1, 2*rngLen + 17} {
			start := st
			for i := 0; i < k; i++ {
				st.Uint64()
			}
			for i := 0; i < k; i++ {
				st.unstep()
			}
			if st != start {
				t.Fatalf("offset %d: %d steps then %d unsteps do not restore the register", offset, k, k)
			}
		}
	}
	cs := newCountingSource(7)
	for i := 0; i < 1500; i++ {
		cs.Uint64()
	}
	cs.rewind(1500 - 333)
	checkStreamAt(t, "rewound", cs, 7, 333)
	cs.release()

	idle := newCountingSource(7)
	idle.n = 1500
	idle.rewind(1500 - 333)
	if idle.state != nil {
		t.Fatal("rewinding a source that never drew filled a register")
	}
	checkStreamAt(t, "rewound before drawing", idle, 7, 333)
	idle.release()
}
