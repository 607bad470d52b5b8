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
//     carry Refs, so copying them copies no clock, and an arena clone
//     shares every snapshot it inherits.
//
// A Stamp pairs a Ref with the one component that differs from the
// snapshot — the committing store's own epoch — so a commit allocates
// nothing at all: the logical clock of Stamp{Base, Self} is
// At(Base) ⊔ {Self.TID(): Self.Seq()}.
package vclock

import (
	"encoding/binary"
	"fmt"
	"hash/maphash"
	"slices"
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

// Arena holds deduplicated immutable clock snapshots. Snapshots are
// append-only and never mutated after interning. An arena's snapshots are
// two runs: the prefix it inherited through Clone, read from a Frozen that
// every clone of the same source shares, and its own appends, whose words
// sit end to end in one flat slab. A clone therefore copies nothing, and
// its first append starts its own slab instead of copying the prefix.
//
// In interning mode every snapshot is filed under a hash of its canonical
// words (clockHash); the hash only routes a lookup to candidate slots, and
// slices.Equal confirms every match, so a collision can never merge two
// distinct clocks. No key is materialized: a lookup allocates nothing.
//
// An owned Arena (the engine's reference configuration,
// engine.Options.Reference) appends a private materialized copy on every
// Intern instead of deduplicating, reproducing the one-clock-per-record
// cost model of the previous representation; the epoch join fast path is
// disabled there so the two modes differ only in cost counters, never in
// observable results. It is the slow side the fast path is tested against.
type Arena struct {
	// base holds refs [0, own.n0), inherited through Clone (nil for a
	// fresh arena, whose own run starts with the canonical empty clock).
	// It is shared read-only with every other arena that inherits the same
	// prefix. own holds the arena's appends, indexed in interning mode.
	// frozen is the last prefix Freeze handed out over a fresh arena's own
	// appends.
	base   *Frozen
	own    run
	frozen *Frozen
	buf    VC // scratch: joins and materialized stamps
	owned  bool

	// Cost counters, harvested (and reset) via TakeCounters. Clones start
	// at zero so resumed scenarios count only their own work.
	interned    int64
	epochHits   int64
	epochMisses int64
}

// run is a contiguous range of snapshots, refs [n0, n0+len(spans)): the
// canonical words of ref n0+i are words[spans[i].off:spans[i].end]. table
// is an open-addressed hash index over them: a power-of-two slot array of
// refs, probed linearly from a clock's hash, 0 marking an empty slot (the
// empty clock, ref 0, is never filed).
type run struct {
	n0    int
	words []Seq
	spans []span
	table []Ref
}

// span locates one snapshot's words in its run's slab.
type span struct{ off, end uint32 }

// at returns the snapshot r, which the run must hold. The view is capped,
// so appending to it never writes into the slab.
func (u *run) at(r Ref) VC {
	s := u.spans[int(r)-u.n0]
	return VC(u.words[s.off:s.end:s.end])
}

// push appends w as the run's next snapshot.
func (u *run) push(w VC) {
	off := uint32(len(u.words))
	u.words = append(u.words, w...)
	u.spans = append(u.spans, span{off, uint32(len(u.words))})
}

// find returns the ref of the canonical clock w, hashed to h, if the
// run's index holds it.
func (u *run) find(w VC, h uint64) (Ref, bool) {
	if len(u.table) == 0 {
		return 0, false
	}
	mask := uint64(len(u.table) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		r := u.table[i]
		if r == 0 {
			return 0, false
		}
		if slices.Equal(u.at(r), w) {
			return r, true
		}
	}
}

// index rebuilds the table over every snapshot of the run but the empty
// clock, at most half full.
func (u *run) index() {
	size := 16
	for size < 2*len(u.spans) {
		size *= 2
	}
	u.table = make([]Ref, size)
	for i := range u.spans {
		if r := Ref(u.n0 + i); r != 0 {
			u.file(clockHash(u.at(r)), r)
		}
	}
}

// file enters r under hash h; the table must have a free slot.
func (u *run) file(h uint64, r Ref) {
	mask := uint64(len(u.table) - 1)
	i := h & mask
	for u.table[i] != 0 {
		i = (i + 1) & mask
	}
	u.table[i] = r
}

// clockSeed seeds clockHash. A seed that differs between processes is
// safe: refs are assigned in append order, and every hash match is
// confirmed by slices.Equal, so no result depends on the hash values.
var clockSeed = maphash.MakeSeed()

// clockHash hashes a canonical clock. Tests swap it for one that collides
// every clock.
var clockHash = hashClock

// hashClock is the maphash of a canonical clock's little-endian words,
// serialized on the stack (a clock of up to 16 threads allocates nothing).
func hashClock(w VC) uint64 {
	var buf [128]byte
	b := buf[:0]
	for _, s := range w {
		b = binary.LittleEndian.AppendUint64(b, uint64(s))
	}
	return maphash.Bytes(clockSeed, b)
}

// NewArena returns an empty arena. owned selects the always-append
// reference representation over interning.
func NewArena(owned bool) *Arena {
	a := &Arena{owned: owned}
	a.own.spans = make([]span, 1, 16) // ref 0: the canonical empty clock
	return a
}

// Owned reports whether the arena is in the always-append mode.
func (a *Arena) Owned() bool { return a.owned }

// Len returns the number of snapshots, counting the canonical empty clock.
func (a *Arena) Len() int { return a.own.n0 + len(a.own.spans) }

// At returns the snapshot a Ref addresses. The result is immutable — it is
// shared by every holder of the Ref and by every clone of the arena.
func (a *Arena) At(r Ref) VC {
	u := &a.own
	if int(r) < u.n0 {
		u = &a.base.run
	}
	return u.at(r)
}

// canonical trims trailing zero components, the unique dense form of a
// clock (zero and absent components are indistinguishable).
func canonical(v VC) VC {
	n := len(v)
	for n > 0 && v[n-1] == 0 {
		n--
	}
	return v[:n]
}

// Frozen is a read-only prefix of an arena's snapshots, refs [0, len),
// in one run. Its index is built at most once, by the first arena to
// intern against the prefix, and never written afterwards, so every clone
// of a checkpoint template — concurrently, across workers — shares one
// index instead of rebuilding its own over the inherited snapshots.
type Frozen struct {
	run
	once sync.Once
}

// len returns the number of snapshots in the prefix.
func (f *Frozen) len() int { return len(f.spans) }

// find returns the ref of canonical clock w, hashed to h, if the prefix
// (nil: none) holds it.
func (f *Frozen) find(w VC, h uint64) (Ref, bool) {
	if f == nil {
		return 0, false
	}
	f.once.Do(f.index)
	return f.run.find(w, h)
}

// Intern returns the Ref of v's canonical form, appending a private copy
// if (in interning mode) no identical snapshot exists yet. v is not
// retained; the caller may keep mutating it.
func (a *Arena) Intern(v VC) Ref {
	w := canonical(v)
	if len(w) == 0 {
		return 0
	}
	var h uint64
	if !a.owned {
		h = clockHash(w)
		if r, ok := a.base.find(w, h); ok {
			return r
		}
		if r, ok := a.own.find(w, h); ok {
			return r
		}
	}
	r := Ref(a.Len())
	a.own.push(w)
	a.interned++
	if !a.owned {
		if 2*len(a.own.spans) > len(a.own.table) {
			a.own.index()
		} else {
			a.own.file(h, r)
		}
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

// Contains reports whether operation (t, s) is included in the clock a
// stamp denotes, consulting the self epoch before the snapshot.
func (a *Arena) Contains(st Stamp, t TID, s Seq) bool {
	if s == 0 {
		return true
	}
	if st.Self.TID() == t && s <= st.Self.Seq() {
		return true
	}
	return s <= a.At(st.Base).Get(t)
}

// RefGet returns the component for t of the snapshot r addresses.
func (a *Arena) RefGet(r Ref, t TID) Seq { return a.At(r).Get(t) }

// RefContains reports whether operation (t, s) is included in snapshot r.
func (a *Arena) RefContains(r Ref, t TID, s Seq) bool {
	return a.At(r).Contains(t, s)
}

// MaterializeInto writes the full clock a stamp denotes into buf
// (reusing its capacity) and returns it.
func (a *Arena) MaterializeInto(buf VC, st Stamp) VC {
	base := a.At(st.Base)
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

// JoinStamp joins the clock of stamp st into snapshot r and returns the
// Ref of the result. The epoch fast path: when st's self epoch is already
// included in At(r), the commit-closure property guarantees st's whole
// clock is too, so the join is a no-op and no vector is touched.
func (a *Arena) JoinStamp(r Ref, st Stamp) Ref {
	left := a.At(r)
	if !a.owned && st.Self.Seq() != 0 {
		if st.Self.HappensBefore(left) {
			a.epochHits++
			return r
		}
		a.epochMisses++
	}
	return a.joinSlow(left, st)
}

// JoinThread joins stamp st into a thread's clock (snapshot base plus the
// thread's own latest seq) and returns the new base Ref. Same epoch fast
// path as JoinStamp, additionally covered by the thread's self component.
func (a *Arena) JoinThread(base Ref, t TID, self Seq, st Stamp) Ref {
	left := a.At(base)
	if !a.owned && st.Self.Seq() != 0 {
		covered := st.Self.HappensBefore(left)
		if !covered && st.Self.TID() == t {
			covered = st.Self.Seq() <= self
		}
		if covered {
			a.epochHits++
			return base
		}
		a.epochMisses++
	}
	return a.joinSlow(left, st)
}

// joinSlow joins the clock of st with left in scratch space and interns
// the result.
func (a *Arena) joinSlow(left VC, st Stamp) Ref {
	v := append(a.buf[:0], left...)
	v.Join(a.At(st.Base))
	if t, s := st.Self.TID(), st.Self.Seq(); s > v.Get(t) {
		v.Set(t, s)
	}
	a.buf = v
	return a.Intern(v)
}

// Clone returns an arena sharing this one's snapshots read-only: the
// inherited prefix is resolved and looked up through a shared Frozen (see
// Freeze), the clone's own appends start a slab of their own, and the cost
// counters start at zero so a resumed scenario counts only its own work.
// Clone only reads a, so a template may be cloned concurrently.
func (a *Arena) Clone() *Arena {
	f := a.Freeze()
	return &Arena{base: f, own: run{n0: f.len()}, owned: a.owned}
}

// Freeze returns the arena's current snapshots as a Frozen prefix, for a
// clone. A clone that has not appended since it inherited its prefix — a
// crash point's copy — returns that prefix. A fresh arena returns a capped
// view of its own run, which its later appends never write into, and one
// that has not appended since its last Freeze returns that one, so every
// clone taken between two appends shares one index: a probe's whole
// backward walk, whose rewinds intern nothing, builds it at most once. A
// clone that appended is never cloned again (the engine copies probes and
// crash-point copies only), and Freeze panics on one. Only the arena's
// owner appends, so only the owner's Freeze writes a, and a copy may be
// cloned concurrently.
func (a *Arena) Freeze() *Frozen {
	if a.base != nil {
		if len(a.own.spans) > 0 {
			panic("vclock: Freeze of a clone that appended")
		}
		return a.base
	}
	if a.frozen == nil || a.frozen.len() != a.Len() {
		u := a.own
		a.frozen = &Frozen{run: run{
			words: u.words[:len(u.words):len(u.words)],
			spans: u.spans[:len(u.spans):len(u.spans)],
		}}
	}
	return a.frozen
}

// TakeCounters returns the interned/epoch-hit/epoch-miss counts
// accumulated since the last call and resets them, so harvesting at every
// absorb point never double-counts.
func (a *Arena) TakeCounters() (interned, hits, misses int64) {
	interned, hits, misses = a.interned, a.epochHits, a.epochMisses
	a.interned, a.epochHits, a.epochMisses = 0, 0, 0
	return
}
