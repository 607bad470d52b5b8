package engine

import (
	"math"
	"math/rand"
	"testing"
)

// The mirror must validate on every supported Go release: if this fails,
// math/rand internals changed and resumes silently take the slow
// seed-and-skip path.
func TestRngMirrorValidates(t *testing.T) {
	if !rngMirrorOK {
		t.Fatal("rngState mirror failed validation against this Go release's math/rand")
	}
}

// A mirrored countingSource must produce the stdlib stream exactly, across
// the 607-word register wrap.
func TestCountingSourceMatchesStdlib(t *testing.T) {
	for _, seed := range []int64{1, 7, 20220326, -5} {
		cs := newCountingSource(seed)
		ref := rand.NewSource(seed).(rand.Source64)
		for i := 0; i < 3000; i++ {
			if got, want := cs.Uint64(), ref.Uint64(); got != want {
				t.Fatalf("seed %d draw %d: got %#x, want %#x", seed, i, got, want)
			}
		}
	}
}

// A fork must continue from the fork point and leave the original stream
// untouched.
func TestCountingSourceFork(t *testing.T) {
	cs := newCountingSource(42)
	cs.skip(700) // past one register wrap
	fk := cs.fork()
	if fk == nil {
		t.Fatal("fork returned nil with mirroring available")
	}
	if fk.n != cs.n {
		t.Fatalf("fork draw count %d != original %d", fk.n, cs.n)
	}
	ref := rand.NewSource(42).(rand.Source64)
	for i := 0; i < 700; i++ {
		ref.Uint64()
	}
	for i := 0; i < 2000; i++ {
		if got, want := fk.Uint64(), ref.Uint64(); got != want {
			t.Fatalf("forked draw %d: got %#x, want %#x", i, got, want)
		}
	}
	// The fork's 2000 draws must not have advanced the original: its next
	// draw is stream position 701.
	ref = rand.NewSource(42).(rand.Source64)
	for i := 0; i < 700; i++ {
		ref.Uint64()
	}
	if got, want := cs.Uint64(), ref.Uint64(); got != want {
		t.Fatalf("original advanced by fork draws: got %#x, want %#x", got, want)
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

// A copy-on-write fork shares its donor's frozen register until it draws;
// releasing it must never hand that register to the pool, where a later
// source would overwrite a snapshot's rng. A fork that drew owns a private
// copy, and the donor stays frozen either way.
func TestCopyOnWriteSourceNeverRecycled(t *testing.T) {
	donor := newCountingSource(42)
	donor.skip(700)
	frozen := *donor.state
	sharedFork(donor).release()
	drawn := sharedFork(donor)
	drawn.Uint64()
	drawn.release()
	for i := 0; i < 8; i++ {
		cs := newCountingSource(int64(100 + i))
		cs.Uint64()
		cs.release()
	}
	if *donor.state != frozen {
		t.Fatal("a released copy-on-write fork recycled its donor's register")
	}
	fk := sharedFork(donor)
	ref := rand.NewSource(42).(rand.Source64)
	for i := 0; i < 700; i++ {
		ref.Uint64()
	}
	for i := 0; i < 10; i++ {
		if got, want := fk.Uint64(), ref.Uint64(); got != want {
			t.Fatalf("fork of the donor drifted at draw %d: got %#x, want %#x", i, got, want)
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
	if !rngMirrorOK {
		t.Skip("mirror unavailable on this Go release")
	}
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
	if !rngMirrorOK {
		f.Skip("mirror unavailable on this Go release")
	}
	f.Fuzz(checkSeedRngState)
}

// The stdlib-backed fallback must give the mirrored source's stream draw
// for draw, count draws the same way, and skip and reseed alike; it can
// never fork.
func TestStdlibSourceMatchesMirrored(t *testing.T) {
	if !rngMirrorOK {
		t.Skip("mirror unavailable on this Go release")
	}
	for _, seed := range []int64{0, 7, -5, 20220326} {
		fb, cs := newStdlibSource(seed), newCountingSource(seed)
		if fb.mirrored || fb.fork() != nil || sharedFork(fb) != nil {
			t.Fatalf("seed %d: fallback source claims a copyable register", seed)
		}
		same := func(step string) {
			t.Helper()
			for i := 0; i < 50; i++ {
				if got, want := fb.Int63(), cs.Int63(); got != want {
					t.Fatalf("seed %d %s Int63 %d: got %#x, want %#x", seed, step, i, got, want)
				}
				if got, want := fb.Uint64(), cs.Uint64(); got != want {
					t.Fatalf("seed %d %s Uint64 %d: got %#x, want %#x", seed, step, i, got, want)
				}
			}
			if fb.n != cs.n {
				t.Fatalf("seed %d %s: fallback counted %d draws, mirrored %d", seed, step, fb.n, cs.n)
			}
		}
		same("start")
		fb.skip(rngLen)
		cs.skip(rngLen) // 100 draws + 607: past the register wrap
		same("after skip")
		fb.Seed(seed + 1)
		cs.Seed(seed + 1)
		same("after reseed")
		cs.release()
	}
}

// sharedFork returns a copy-on-write fork of src, nil when src cannot be
// forked.
func sharedFork(src *countingSource) *countingSource {
	c := new(countingSource)
	if !c.shareFrom(src) {
		return nil
	}
	return c
}

// TestRngUnstepInvertsStep: k generator steps followed by k unsteps restore
// the register exactly, from several starting offsets and for k up to
// past twice the register length, so both indices wrap in each direction.
// A rewound source then continues the stream a fresh source skipped to the
// same draw count produces.
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
	if !rngMirrorOK {
		t.Skip("mirror unavailable on this Go release")
	}
	cs, ref := newCountingSource(7), newCountingSource(7)
	cs.skip(1500)
	cs.rewind(1500 - 333)
	ref.skip(333)
	if cs.n != ref.n {
		t.Fatalf("rewound draw count %d, want %d", cs.n, ref.n)
	}
	for i := 0; i < 1000; i++ {
		if got, want := cs.Uint64(), ref.Uint64(); got != want {
			t.Fatalf("rewound source drifted at draw %d: got %#x, want %#x", i, got, want)
		}
	}
}
