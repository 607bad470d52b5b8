// Interned copy-on-write clock storage.
//
// Yashme's σ is globally unique and strictly increasing (§6), which buys
// two representation wins over one-heap-clock-per-store:
//
//   - Epoch: a store commit is fully identified by the pair (τ, σ) of the
//     committing thread and its global sequence number. Every clock in the
//     simulation is a join of commit-time thread-clock snapshots, and
//     thread clocks are monotone, so any clock whose τ-component reaches σ
//     necessarily includes the ENTIRE clock of the commit (τ, σ) — the
//     commit-closure property. A packed 64-bit epoch compare therefore
//     answers "is this store's whole clock already covered?" in O(1),
//     letting the detector skip the component-wise join outright.
//
//   - Interning: a thread's clock only changes at synchronizing events
//     (acquire loads, fences, spawns), so all stores it commits between two
//     such events share one immutable snapshot. The Arena deduplicates
//     those snapshots and hands out dense int32 Refs; records, the
//     detector's per-line flush clocks and the machine's per-thread state
//     carry Refs, making Detector.Clone and Machine.Clone flat slice
//     copies (the same capped-view trick as the store arena).
//
// A Stamp pairs a Ref with the one component that differs from the
// snapshot — the committing store's own epoch — so a commit allocates
// nothing at all: the logical clock of Stamp{Base, Self} is
// At(Base) ⊔ {Self.TID(): Self.Seq()}.
package vclock

import (
	"encoding/binary"
	"fmt"
	"sync"
)

// Epoch packs a store commit's identity (τ, σ) into one word:
// tid in the top 16 bits, seq in the low 48. The zero Epoch means "no
// component" (thread 0's seq 0, which never names a real operation).
type Epoch uint64

const (
	epochSeqBits = 48
	maxEpochSeq  = Seq(1)<<epochSeqBits - 1
)

// NewEpoch packs (t, s). It panics when either half would not round-trip —
// the simulator never runs 2^16 threads or 2^48 operations, so an
// out-of-range value is a corrupt input, not a clock.
func NewEpoch(t TID, s Seq) Epoch {
	if t < 0 || t >= maxTID {
		panic(fmt.Sprintf("vclock: epoch thread id %d out of range [0, %d)", t, maxTID))
	}
	if s > maxEpochSeq {
		panic(fmt.Sprintf("vclock: epoch seq %d exceeds %d", s, maxEpochSeq))
	}
	return Epoch(uint64(t)<<epochSeqBits | uint64(s))
}

// TID returns the packed thread id.
func (e Epoch) TID() TID { return TID(e >> epochSeqBits) }

// Seq returns the packed sequence number. Zero means "no component".
func (e Epoch) Seq() Seq { return Seq(e) & maxEpochSeq }

// HappensBefore reports whether the operation the epoch names is included
// in v — the O(1) compare that replaces a component-wise walk whenever the
// question is about a single commit.
func (e Epoch) HappensBefore(v VC) bool { return e.Seq() <= v.Get(e.TID()) }

// Ref addresses an immutable clock snapshot in an Arena. Ref 0 is always
// the empty clock, so the zero value of every Ref-carrying structure is a
// valid "never synchronized" state.
type Ref int32

// Stamp is a logical clock in interned form: the snapshot Base joined with
// the single component Self. Self is the committing operation's own epoch
// (zero when the stamp is a plain snapshot), and by construction
// Self.Seq() >= At(Base).Get(Self.TID()) — a thread's own component in its
// snapshot can never be ahead of its latest operation.
type Stamp struct {
	Base Ref
	Self Epoch
}

// Arena holds deduplicated immutable clock snapshots. Entries are
// append-only and never mutated after interning, so Clone is a capped
// slice view and clones share backing storage until either side appends.
//
// An owned Arena (the engine's reference configuration,
// engine.Options.Reference) appends a private materialized copy on every
// Intern instead of deduplicating, reproducing the one-clock-per-record
// cost model of the previous representation; the epoch join fast path is
// disabled there so the two modes differ only in cost counters, never in
// observable results. It is the slow side the fast path is tested against.
type Arena struct {
	entries []VC // entries[0] is the canonical empty clock (nil)
	// base indexes the prefix inherited through Clone (nil for a fresh
	// arena); it is shared read-only with every other arena that inherits
	// the same prefix, and its index is built only when one of them first
	// interns, so clones that never intern pay nothing. lookup maps the
	// canonical bytes of the arena's own appends to their Ref. frozen is
	// the last prefix Freeze handed out over the arena's own appends.
	base   *Frozen
	frozen *Frozen
	lookup map[string]Ref
	key    []byte // scratch for canonical keys
	buf    VC     // scratch: join left operand / materialized stamps
	buf2   VC     // scratch: join right operand
	owned  bool

	// Cost counters, harvested (and reset) via TakeCounters. Clones start
	// at zero so resumed scenarios count only their own work.
	interned    int64
	epochHits   int64
	epochMisses int64
}

// NewArena returns an empty arena. owned selects the always-append
// reference representation over interning.
func NewArena(owned bool) *Arena {
	return &Arena{entries: make([]VC, 1, 16), owned: owned}
}

// Owned reports whether the arena is in the always-append mode.
func (a *Arena) Owned() bool { return a.owned }

// Len returns the number of snapshots, counting the canonical empty clock.
func (a *Arena) Len() int { return len(a.entries) }

// At returns the snapshot a Ref addresses. The result is immutable — it is
// shared by every holder of the Ref and by every clone of the arena.
func (a *Arena) At(r Ref) VC { return a.entries[r] }

// canonical trims trailing zero components, the unique dense form of a
// clock (zero and absent components are indistinguishable).
func canonical(v VC) VC {
	n := len(v)
	for n > 0 && v[n-1] == 0 {
		n--
	}
	return v[:n]
}

// keyOf renders the canonical form into the scratch key buffer.
func (a *Arena) keyOf(v VC) []byte {
	a.key = appendKey(a.key[:0], v)
	return a.key
}

// appendKey appends the lookup key of canonical clock v to buf.
func appendKey(buf []byte, v VC) []byte {
	for _, s := range v {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(s))
	}
	return buf
}

// Frozen is a read-only prefix of an arena's snapshots with a lookup index
// over it. The index is built at most once, by the first arena to intern
// against the prefix, and never written afterwards, so every clone of a
// checkpoint template — concurrently, across workers — shares one index
// instead of rebuilding its own over the inherited entries.
type Frozen struct {
	entries []VC
	once    sync.Once
	lookup  map[string]Ref
}

// index returns the prefix's lookup map, building it on first use.
func (f *Frozen) index() map[string]Ref {
	f.once.Do(func() {
		f.lookup = make(map[string]Ref, len(f.entries))
		var key []byte
		for r := 1; r < len(f.entries); r++ {
			key = appendKey(key[:0], f.entries[r])
			f.lookup[string(key)] = Ref(r)
		}
	})
	return f.lookup
}

// find returns the Ref of the canonical clock w if the arena holds it.
func (a *Arena) find(w VC) (Ref, bool) {
	k := a.keyOf(w)
	if a.base != nil {
		if r, ok := a.base.index()[string(k)]; ok {
			return r, true
		}
	}
	r, ok := a.lookup[string(k)]
	return r, ok
}

// Intern returns the Ref of v's canonical form, appending a private copy
// if (in interning mode) no identical snapshot exists yet. v is not
// retained; the caller may keep mutating it.
func (a *Arena) Intern(v VC) Ref {
	w := canonical(v)
	if len(w) == 0 {
		return 0
	}
	if !a.owned {
		if r, ok := a.find(w); ok {
			return r
		}
	}
	r := Ref(len(a.entries))
	a.entries = append(a.entries, w.Clone())
	a.interned++
	if !a.owned {
		if a.lookup == nil {
			a.lookup = make(map[string]Ref)
		}
		a.lookup[string(a.key)] = r // find left w's key in the scratch
	}
	return r
}

// Reintern materializes a stamp and appends it as a private snapshot —
// the owned mode's per-record clock copy. The returned stamp addresses the
// new snapshot with the same self epoch (now redundantly folded in).
func (a *Arena) Reintern(st Stamp) Stamp {
	a.buf = a.MaterializeInto(a.buf[:0], st)
	return Stamp{Base: a.Intern(a.buf), Self: st.Self}
}

// Get returns the component for t of the clock a stamp denotes.
func (a *Arena) Get(st Stamp, t TID) Seq {
	s := a.entries[st.Base].Get(t)
	if st.Self.TID() == t && st.Self.Seq() > s {
		s = st.Self.Seq()
	}
	return s
}

// Contains reports whether operation (t, s) is included in the clock a
// stamp denotes, consulting the self epoch before the snapshot.
func (a *Arena) Contains(st Stamp, t TID, s Seq) bool {
	if s == 0 {
		return true
	}
	if st.Self.TID() == t && s <= st.Self.Seq() {
		return true
	}
	return s <= a.entries[st.Base].Get(t)
}

// RefGet returns the component for t of the snapshot r addresses.
func (a *Arena) RefGet(r Ref, t TID) Seq { return a.entries[r].Get(t) }

// RefContains reports whether operation (t, s) is included in snapshot r.
func (a *Arena) RefContains(r Ref, t TID, s Seq) bool {
	return a.entries[r].Contains(t, s)
}

// MaterializeInto writes the full clock a stamp denotes into buf
// (reusing its capacity) and returns it.
func (a *Arena) MaterializeInto(buf VC, st Stamp) VC {
	base := a.entries[st.Base]
	n := len(base)
	if t := int(st.Self.TID()); st.Self.Seq() != 0 && t >= n {
		n = t + 1
	}
	if cap(buf) < n {
		buf = make(VC, n)
	} else {
		buf = buf[:n]
		for i := range buf {
			buf[i] = 0
		}
	}
	copy(buf, base)
	if s := st.Self.Seq(); s != 0 && s > buf[st.Self.TID()] {
		buf[st.Self.TID()] = s
	}
	return buf
}

// Materialize returns a freshly allocated full clock for a stamp.
func (a *Arena) Materialize(st Stamp) VC {
	return a.MaterializeInto(nil, st).Clone()
}

// JoinStamp joins the clock of stamp st into snapshot r and returns the
// Ref of the result. The epoch fast path: when st's self epoch is already
// included in At(r), the commit-closure property guarantees st's whole
// clock is too, so the join is a no-op and no vector is touched.
func (a *Arena) JoinStamp(r Ref, st Stamp) Ref {
	if !a.owned && st.Self.Seq() != 0 {
		if st.Self.HappensBefore(a.entries[r]) {
			a.epochHits++
			return r
		}
		a.epochMisses++
	}
	return a.joinSlow(a.entries[r], st)
}

// JoinThread joins stamp st into a thread's clock (snapshot base plus the
// thread's own latest seq) and returns the new base Ref. Same epoch fast
// path as JoinStamp, additionally covered by the thread's self component.
func (a *Arena) JoinThread(base Ref, t TID, self Seq, st Stamp) Ref {
	if !a.owned && st.Self.Seq() != 0 {
		covered := st.Self.HappensBefore(a.entries[base])
		if !covered && st.Self.TID() == t {
			covered = st.Self.Seq() <= self
		}
		if covered {
			a.epochHits++
			return base
		}
		a.epochMisses++
	}
	return a.joinSlow(a.entries[base], st)
}

// joinSlow materializes st, joins it with left in scratch space and
// interns the result.
func (a *Arena) joinSlow(left VC, st Stamp) Ref {
	a.buf2 = a.MaterializeInto(a.buf2[:0], st)
	a.buf = append(a.buf[:0], left...)
	v := a.buf
	v.Join(a.buf2)
	a.buf = v
	return a.Intern(a.buf)
}

// Clone returns an arena sharing this one's snapshots read-only: the entry
// slice is capped so either side's next append reallocates privately, the
// inherited prefix is looked up through a shared Frozen index (see
// Freeze), and the cost counters start at zero so a resumed scenario
// counts only its own work. Clone only reads a, so a template may be
// cloned concurrently.
func (a *Arena) Clone() *Arena {
	f := a.Freeze()
	return &Arena{entries: f.entries, base: f, owned: a.owned}
}

// Freeze returns the arena's current snapshots as a Frozen prefix, for a
// clone. An arena that has not appended since it inherited its prefix — a
// crash point's copy — returns that prefix, and one that has not appended
// since its last Freeze returns that one, so every clone taken between two
// appends shares one index: a probe's whole backward walk, whose rewinds
// intern nothing, builds it at most once. Only the arena's owner appends,
// so only the owner's Freeze writes a, and a copy may be cloned
// concurrently.
func (a *Arena) Freeze() *Frozen {
	if a.base != nil && len(a.base.entries) == len(a.entries) {
		return a.base
	}
	if a.frozen == nil || len(a.frozen.entries) != len(a.entries) {
		a.frozen = &Frozen{entries: a.entries[:len(a.entries):len(a.entries)]}
	}
	return a.frozen
}

// FootprintBytes estimates the heap bytes the arena's snapshots retain
// (for checkpoint accounting).
func (a *Arena) FootprintBytes() int64 {
	n := int64(len(a.entries)) * int64(24) // slice headers
	for _, e := range a.entries {
		n += int64(len(e)) * 8
	}
	return n
}

// TakeCounters returns the interned/epoch-hit/epoch-miss counts
// accumulated since the last call and resets them, so harvesting at every
// absorb point never double-counts.
func (a *Arena) TakeCounters() (interned, hits, misses int64) {
	interned, hits, misses = a.interned, a.epochHits, a.epochMisses
	a.interned, a.epochHits, a.epochMisses = 0, 0, 0
	return
}
