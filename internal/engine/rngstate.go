// The scheduler rng's register.
//
// Every crash scenario owns a rand.Rand, and a checkpointed resume must hand
// it the exact stream position a from-scratch run would hold. math/rand does
// not expose its generator state, but the package is frozen under the Go 1
// compatibility promise, so this file mirrors it: the state struct layout and
// the step function of its additive lagged-Fibonacci generator
// (math/rand/rng.go). A scheduler source is then a seed and a draw count,
// and it fills a register of its own only when it first draws: seeded here,
// then stepped to the count (countingSource). A random-mode probe's register
// is stepped back instead (unstep) and handed to its one resume.
//
// The seeding follows the stdlib too, because random mode seeds a fresh
// register for every scenario. The stdlib fills the 607-word register from 1,841 serial
// steps of the LCG x <- 48271*x mod (2^31-1), XORed with a table of "cooked"
// constants. The k-th LCG value is 48271^k * x0 mod (2^31-1), so
// seedRngState takes the powers from a table built once and fills every word
// from three independent multiplications, reduced with the Mersenne-prime
// fold instead of a division. The cooked table is unexported; init recovers
// it by XORing the LCG part out of one rand.NewSource(1) register.
//
// The mirror is validated at init: the layout check compares field names,
// types, offsets and total size by reflection, the fill check compares whole
// registers against rand.NewSource for seeds other than the one the cooked
// table came from, and the behavior check steps a seeded register alongside
// the real source across the register's wrap point. If any fails (a Go
// release that changed math/rand's internals), init panics and names the Go
// version: there is no second path.
package engine

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"unsafe"
)

const (
	rngLen  = 607
	rngTap  = 273
	rngMask = 1<<63 - 1

	// The seeding LCG: x <- lcgMul*x mod lcgMod, started lcgWarmup steps
	// before the first register word and stepped three times per word.
	lcgMod    = 1<<31 - 1
	lcgMul    = 48271
	lcgWarmup = 20
	// rngZeroSeed stands in for a seed that is 0 mod lcgMod, as in the stdlib.
	rngZeroSeed = 89482311
)

// rngState mirrors math/rand's rngSource: an additive lagged-Fibonacci
// generator x[n] = x[n-273] + x[n-607] over a 607-word feedback register.
// Field names, types and order must match exactly (the layout validation
// checks them against the live type).
type rngState struct {
	tap  int
	feed int
	vec  [rngLen]int64
}

// Uint64 advances the generator one step — the stdlib step function
// verbatim, so a register continues the stdlib stream byte-identically.
func (r *rngState) Uint64() uint64 {
	r.tap--
	if r.tap < 0 {
		r.tap += rngLen
	}
	r.feed--
	if r.feed < 0 {
		r.feed += rngLen
	}
	x := r.vec[r.feed] + r.vec[r.tap]
	r.vec[r.feed] = x
	return uint64(x)
}

// unstep undoes one Uint64 step: the word the step overwrote was the sum of
// its old value and the tap word, which the step left unchanged.
func (r *rngState) unstep() {
	r.vec[r.feed] -= r.vec[r.tap]
	r.tap++
	if r.tap == rngLen {
		r.tap = 0
	}
	r.feed++
	if r.feed == rngLen {
		r.feed = 0
	}
}

// lcgPow[i][j] is lcgMul^(lcgWarmup+1+3i+j) mod lcgMod: the multiplier
// taking the normalized seed to the LCG value that feeds bits 40, 20 and 0
// (j = 0, 1, 2) of register word i. rngCooked is the stdlib's constant the
// word is XORed with, recovered by validateRngMirror.
var (
	lcgPow    = lcgPowers()
	rngCooked [rngLen]int64
)

func lcgPowers() (pow [rngLen][3]uint32) {
	x := uint64(1)
	for k := 0; k < lcgWarmup; k++ {
		x = lcgMod31(x * lcgMul)
	}
	for i := range pow {
		for j := range pow[i] {
			x = lcgMod31(x * lcgMul)
			pow[i][j] = uint32(x)
		}
	}
	return pow
}

// lcgMod31 reduces a product of two nonzero residues mod 2^31-1 by folding
// the high bits onto the low ones (2^31 = 1 mod 2^31-1) twice. The first
// fold leaves at most 2^32-2, the second at most 2^31-1, which it cannot
// reach: the modulus is prime, so the product is never 0 mod it. The result
// is therefore already in [1, 2^31-2], with no final subtraction.
func lcgMod31(p uint64) uint64 {
	p = p&lcgMod + p>>31
	return p&lcgMod + p>>31
}

func init() {
	if err := validateRngMirror(); err != nil {
		panic(fmt.Sprintf("engine: the scheduler rng mirror does not match math/rand of %s: %v", runtime.Version(), err))
	}
}

// validateRngMirror checks the running math/rand implementation against
// the mirror, and fills rngCooked on the way.
func validateRngMirror() error {
	src := rand.NewSource(1)
	v := reflect.ValueOf(src)
	if v.Kind() != reflect.Pointer {
		return errors.New("rand.NewSource returns no pointer")
	}
	t := v.Elem().Type()
	mt := reflect.TypeOf(rngState{})
	if t.Kind() != reflect.Struct || t.NumField() != mt.NumField() || t.Size() != mt.Size() {
		return fmt.Errorf("source type %v is not shaped like rngState", t)
	}
	for i := 0; i < mt.NumField(); i++ {
		f, g := t.Field(i), mt.Field(i)
		if f.Name != g.Name || f.Type != g.Type || f.Offset != g.Offset {
			return fmt.Errorf("source field %d is %s %v at offset %d, not %s %v at %d", i, f.Name, f.Type, f.Offset, g.Name, g.Type, g.Offset)
		}
	}
	// With rngCooked still zero, seedRngState(1) fills in the bare LCG
	// part; XORing it out of the stdlib's register leaves the constants.
	var st rngState
	seedRngState(1, &st)
	one := mirrorOf(src)
	for i := range rngCooked {
		rngCooked[i] = one.vec[i] ^ st.vec[i]
	}
	for _, seed := range []int64{0, -1, math.MinInt64, 20220326} {
		seedRngState(seed, &st)
		if st != *mirrorOf(rand.NewSource(seed)) {
			return fmt.Errorf("seed %d fills a different register", seed)
		}
	}
	s64, ok := rand.NewSource(20220326).(rand.Source64)
	if !ok {
		return errors.New("the source has no Uint64")
	}
	// st holds seed 20220326's register. Step far enough to wrap both
	// register indices at least twice.
	for i := 0; i < 2*rngLen; i++ {
		if st.Uint64() != s64.Uint64() {
			return fmt.Errorf("step %d draws a different value", i)
		}
	}
	return nil
}

// mirrorOf views a stdlib source's state as an rngState. Only valid once
// the layout check has passed.
func mirrorOf(src rand.Source) *rngState {
	return (*rngState)(unsafe.Pointer(reflect.ValueOf(src).Pointer()))
}

// rngStatePool holds the registers of dead sources (countingSource.release)
// and of spent random-mode snapshots (snapshot.release). Every register has
// one owner, so every one comes back.
var rngStatePool sync.Pool

// getRngState returns a register to overwrite, recycled when one is free.
func getRngState() *rngState {
	if st, _ := rngStatePool.Get().(*rngState); st != nil {
		return st
	}
	return new(rngState)
}

// seedRngState sets out to the state rand.NewSource(seed) starts in;
// validation proved at init that the fill equals the stdlib's.
func seedRngState(seed int64, out *rngState) {
	// Normalize exactly as rngSource.Seed does.
	seed %= lcgMod
	if seed < 0 {
		seed += lcgMod
	}
	if seed == 0 {
		seed = rngZeroSeed
	}
	x0 := uint64(seed)
	out.tap = 0
	out.feed = rngLen - rngTap
	// Word i XORs three consecutive LCG values at bits 40, 20 and 0; the
	// top one overflows the word exactly as the stdlib's int64 shift does.
	for i := range out.vec {
		p := &lcgPow[i]
		u := lcgMod31(x0*uint64(p[0]))<<40 ^ lcgMod31(x0*uint64(p[1]))<<20 ^ lcgMod31(x0*uint64(p[2]))
		out.vec[i] = int64(u) ^ rngCooked[i]
	}
}
