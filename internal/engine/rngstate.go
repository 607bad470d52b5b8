// Copyable scheduler-rng state.
//
// Every crash scenario owns a rand.Rand, and a checkpointed resume must hand
// it the exact stream position a from-scratch run would hold — historically
// by re-seeding a fresh source (math/rand's seed loop walks an LCG ~1900
// steps to fill the 607-word register) and replaying every draw the prefix
// made. Profiling showed that re-seeding alone was ~25% of a model-checking
// sweep. math/rand does not expose its generator state, but the package is
// frozen under the Go 1 compatibility promise, so this file mirrors it: the
// state struct layout and the step function of its additive lagged-Fibonacci
// generator (math/rand/rng.go). A snapshot then carries a plain copy of the
// seeded state, and a resume is a 4.9KB memcpy — no seed loop, no replay.
//
// The mirror is validated at init: the layout check compares field names,
// types, offsets and total size by reflection, and the behavior check steps
// a mirrored copy alongside the real source across the register's wrap
// point. If either fails (a future Go release changing internals), mirroring
// is disabled and countingSource falls back to seed-and-skip — slower,
// byte-identical results.
package engine

import (
	"math/rand"
	"reflect"
	"sync"
	"unsafe"
)

const (
	rngLen  = 607
	rngMask = 1<<63 - 1
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
// verbatim, so a mirrored copy continues the stream byte-identically.
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

func (r *rngState) Int63() int64 { return int64(r.Uint64() & rngMask) }

// rngMirrorOK reports whether the running math/rand implementation matches
// the mirror; computed once at init.
var rngMirrorOK = validateRngMirror()

func validateRngMirror() bool {
	src := rand.NewSource(20220326)
	v := reflect.ValueOf(src)
	if v.Kind() != reflect.Pointer {
		return false
	}
	t := v.Elem().Type()
	mt := reflect.TypeOf(rngState{})
	if t.Kind() != reflect.Struct || t.NumField() != mt.NumField() || t.Size() != mt.Size() {
		return false
	}
	for i := 0; i < mt.NumField(); i++ {
		f, g := t.Field(i), mt.Field(i)
		if f.Name != g.Name || f.Type != g.Type || f.Offset != g.Offset {
			return false
		}
	}
	s64, ok := src.(rand.Source64)
	if !ok {
		return false
	}
	st := *(*rngState)(unsafe.Pointer(v.Pointer()))
	// Step far enough to wrap both register indices at least twice.
	for i := 0; i < 2*rngLen; i++ {
		if st.Uint64() != s64.Uint64() {
			return false
		}
	}
	return true
}

// rngStatePool holds the registers of dead scenarios' sources
// (countingSource.release); seedSources holds stdlib sources kept only to
// be re-seeded and copied out, since Seed does not allocate and
// rand.NewSource does.
var (
	rngStatePool sync.Pool
	seedSources  = sync.Pool{New: func() any { return rand.NewSource(1) }}
)

// getRngState returns a register to overwrite, recycled when one is free.
func getRngState() *rngState {
	if st, _ := rngStatePool.Get().(*rngState); st != nil {
		return st
	}
	return new(rngState)
}

// seedRngState sets out to the state rand.NewSource(seed) starts in. Only
// valid when rngMirrorOK: validation proved the stdlib source is a pointer
// to a struct laid out as rngState.
func seedRngState(seed int64, out *rngState) {
	src := seedSources.Get().(rand.Source)
	src.Seed(seed)
	*out = *(*rngState)(unsafe.Pointer(reflect.ValueOf(src).Pointer()))
	seedSources.Put(src)
}
