// Package vclock implements vector clocks over thread identifiers.
//
// Yashme (ASPLOS '22, §6) orders store-buffer evictions with a single global
// sequence counter σ and summarizes happens-before with clock vectors that
// map a thread identifier τ to the largest σ of an operation by τ that is
// ordered before the current point. Because σ is globally unique and strictly
// increasing, a component-wise comparison against a clock vector answers
// "does operation (τ, σ) happen before this point?" in O(1).
package vclock

import (
	"fmt"
	"strings"
)

// TID identifies a simulated thread. Thread 0 is the main thread. TIDs are
// small and dense — the simulator spawns threads 0..n-1 — which is what lets
// VC index components directly instead of hashing them.
type TID int

// Seq is a global sequence number assigned to an operation when it takes
// effect on the (simulated) cache. Zero means "never happened"; the first
// operation receives Seq 1.
type Seq uint64

// maxTID bounds clock growth: a component index beyond this is a corrupt TID
// (the simulator never runs more than a handful of threads), not a clock.
const maxTID = 1 << 16

// VC is a vector clock: for each thread τ, the largest Seq of an operation by
// τ known to happen before the point the clock describes. It is a dense slice
// indexed by TID; a component beyond len(v) — or equal to zero — means "never
// happened". The zero value (nil) is an empty clock ready for use.
//
// Set and Join take pointer receivers because raising a component for a TID
// past the current length grows the slice; Get, Contains and String work
// on values and accept nil.
type VC []Seq

// Get returns the component for τ, zero if absent.
func (v VC) Get(t TID) Seq {
	if int(t) < 0 || int(t) >= len(v) {
		return 0
	}
	return v[t]
}

// grow extends v so that component t is addressable.
func (v *VC) grow(t TID) {
	if t < 0 || t >= maxTID {
		panic(fmt.Sprintf("vclock: thread id %d out of range [0, %d)", t, maxTID))
	}
	if int(t) < len(*v) {
		return
	}
	n := make(VC, t+1)
	copy(n, *v)
	*v = n
}

// Set raises the component for τ to s. Lowering is not permitted; Set panics
// if s is smaller than the current component, because clock components are
// monotone by construction (σ increases globally).
func (v *VC) Set(t TID, s Seq) {
	if cur := v.Get(t); s < cur {
		panic(fmt.Sprintf("vclock: component for thread %d would regress from %d to %d", t, cur, s))
	}
	v.grow(t)
	(*v)[t] = s
}

// Join merges other into v, component-wise maximum. When other is longer
// the merged clock is built in one pass — copy other, then fold v's old
// components over it — instead of growing first and walking other twice.
func (v *VC) Join(other VC) {
	d := *v
	if len(other) > len(d) {
		if t := TID(len(other) - 1); t >= maxTID {
			panic(fmt.Sprintf("vclock: thread id %d out of range [0, %d)", t, maxTID))
		}
		n := make(VC, len(other))
		copy(n, other)
		for t, s := range d {
			if s > n[t] {
				n[t] = s
			}
		}
		*v = n
		return
	}
	for t, s := range other {
		if s > d[t] {
			d[t] = s
		}
	}
}

// Contains reports whether the operation (t, s) is included in the prefix
// described by v, i.e. s <= v[t]. An operation with Seq 0 never happened and
// is trivially contained.
func (v VC) Contains(t TID, s Seq) bool {
	if s == 0 {
		return true
	}
	return s <= v.Get(t)
}

// String renders the clock deterministically, for logs and tests. Zero
// components are omitted: they are indistinguishable from absent ones in
// every operation the clock supports.
func (v VC) String() string {
	var b strings.Builder
	b.WriteByte('{')
	first := true
	for t, s := range v {
		if s == 0 {
			continue
		}
		if !first {
			b.WriteByte(' ')
		}
		first = false
		fmt.Fprintf(&b, "%d:%d", t, s)
	}
	b.WriteByte('}')
	return b.String()
}
