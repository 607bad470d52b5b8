// Package report collects, deduplicates and renders persistency-race
// reports. The paper's Tables 3 and 4 identify each bug by the program and
// the field (root cause) that races; races are therefore deduplicated by
// (benchmark, field), matching the paper's manual deduplication ("one
// variable can participate in multiple buggy scenarios", §7.2).
package report

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Race is one persistency-race report: a post-crash load observed a
// non-atomic pre-crash store that a derivable pre-crash execution prefix
// leaves unpersisted.
type Race struct {
	// Benchmark is the program under test.
	Benchmark string `json:"benchmark"`
	// Field is the root cause: the named persistent field the racing store
	// wrote (e.g. "Pair.key").
	Field string `json:"field"`
	// Addr is the racing store's address.
	Addr uint64 `json:"addr"`
	// StoreSeq and StoreTID identify the racing store in the pre-crash
	// commit order.
	StoreSeq uint64 `json:"store_seq"`
	StoreTID int    `json:"store_tid"`
	// ExecID is the pre-crash execution (in the execution stack) that the
	// racing store belongs to.
	ExecID int `json:"exec_id"`
	// Benign marks a race observed only by checksum-validation loads
	// (§7.5): a true persistency race by definition, but the program
	// rejects the corrupt data before use.
	Benign bool `json:"benign,omitempty"`
	// Flushed reports whether the store had been flushed before the crash
	// (true exactly when only the prefix expansion could reveal the race).
	Flushed bool `json:"flushed"`
	// Witness, when execution tracing is enabled, is the race-revealing
	// pre-crash prefix combined with the post-crash observation (§5.1).
	Witness string `json:"witness,omitempty"`
}

func (r Race) String() string {
	kind := "persistency race"
	if r.Benign {
		kind = "benign (checksum-guarded) persistency race"
	}
	return fmt.Sprintf("%s: %s on %s (store seq=%d tid=%d exec=%d flushed-pre-crash=%v)",
		kind, r.Benchmark, r.Field, r.StoreSeq, r.StoreTID, r.ExecID, r.Flushed)
}

// raceKey is the dedup identity of a race as a comparable value: map
// lookups with it allocate nothing, which matters because every racy
// candidate of every crash scenario passes through Add on its way to the
// handful of deduplicated reports.
type raceKey struct {
	benchmark, field string
	benign           bool
}

func keyOf(r Race) raceKey {
	return raceKey{benchmark: r.Benchmark, field: r.Field, benign: r.Benign}
}

// normCache memoizes NormalizeField for labels that actually carry array
// indices: the same few field labels arrive with every racy candidate of
// every crash scenario, concurrently across worker goroutines. The label
// space is bounded by the workloads' heaps, so the cache is too.
var normCache sync.Map // string → string

// NormalizeField strips array indices from a field label ("seg[3].key" →
// "seg.key"): the paper's tables identify bugs by struct field, not by
// element instance.
func NormalizeField(field string) string {
	if !strings.ContainsRune(field, '[') {
		return field
	}
	if v, ok := normCache.Load(field); ok {
		return v.(string)
	}
	var b strings.Builder
	depth := 0
	for _, r := range field {
		switch {
		case r == '[':
			depth++
		case r == ']' && depth > 0:
			depth--
		case depth == 0:
			b.WriteRune(r)
		}
	}
	n := b.String()
	normCache.Store(field, n)
	return n
}

// Set accumulates deduplicated race reports.
//
// A Set is single-goroutine, merge-only state: it is built by one owner
// (the engine gives every crash scenario its own Set and folds them with
// Merge on the merging goroutine) and is not safe for concurrent use.
// Read accessors (Races, Benign, Fields, String) order races by the
// stable key (Benchmark, Field, benignness) rather than by insertion, and
// duplicate reports keep a canonical representative, so the observable
// output is independent of the order in which sets were merged:
// Merge(a, b) and Merge(b, a) render identically.
type Set struct {
	// keys and races hold the deduplicated races in first-seen insertion
	// order, as parallel slices. Deduplicated sets are tiny (a handful of
	// (benchmark, field) pairs), so a linear scan beats a map — and, more
	// to the point, an empty Set costs nothing: the engine builds one per
	// crash scenario, and a per-scenario map bucket (a Race is >100 bytes)
	// was a measurable share of the exploration's allocations.
	keys  []raceKey
	races []Race
	// ranks holds each race's merge rank (MergeRanked; 0 for races added
	// or merged unranked), parallel to races.
	ranks []int
	// idx accelerates lookup if a set ever outgrows the linear scan; built
	// lazily by find, dropped by Clone.
	idx map[raceKey]int
	// RawCount counts reported races before deduplication. The detector
	// reports a store once per guardedness and scenario (core.StoreRecord
	// keeps the verdict), so it counts those first reports, not every
	// racing load.
	RawCount int
}

// smallSetScan is the set size up to which dedup lookups linear-scan
// instead of building idx.
const smallSetScan = 16

// setPool holds released sets (Release) with their backing arrays: the
// engine builds and folds a few sets per crash scenario, so a warm sweep
// reuses their slices instead of regrowing them.
var setPool sync.Pool

// NewSet returns an empty report set, on a released set's backing when one
// is free.
func NewSet() *Set {
	if s, _ := setPool.Get().(*Set); s != nil {
		return s
	}
	return &Set{}
}

// Release empties the set and hands it to the pool NewSet draws from. The
// caller must be its only holder and must not use it again; races already
// merged elsewhere are copies and stay valid.
func (s *Set) Release() {
	clear(s.keys)
	clear(s.races)
	*s = Set{keys: s.keys[:0], races: s.races[:0], ranks: s.ranks[:0]}
	setPool.Put(s)
}

// find returns the slot of k, or -1 if the set does not contain it.
func (s *Set) find(k raceKey) int {
	if s.idx == nil && len(s.keys) > smallSetScan {
		s.idx = make(map[raceKey]int, len(s.keys))
		for i, kk := range s.keys {
			s.idx[kk] = i
		}
	}
	if s.idx != nil {
		if i, ok := s.idx[k]; ok {
			return i
		}
		return -1
	}
	for i, kk := range s.keys {
		if kk == k {
			return i
		}
	}
	return -1
}

// canonicalBefore reports whether a is the preferred representative over b
// for the same dedup key, making deduplication commutative across merge
// orders. A flushed-pre-crash instance wins (it is the witness that only
// the prefix expansion could reveal the race); ties fall to the earliest
// racing store in the execution stack.
func canonicalBefore(a, b Race) bool {
	if a.Flushed != b.Flushed {
		return a.Flushed
	}
	if a.ExecID != b.ExecID {
		return a.ExecID < b.ExecID
	}
	if a.StoreSeq != b.StoreSeq {
		return a.StoreSeq < b.StoreSeq
	}
	if a.StoreTID != b.StoreTID {
		return a.StoreTID < b.StoreTID
	}
	return a.Addr < b.Addr
}

// Add records a race, deduplicating by (benchmark, field, benignness).
// The field is normalized (array indices stripped) first. A duplicate
// keeps the canonical representative (earliest store) regardless of the
// order reports arrive in. It reports whether the race was new.
func (s *Set) Add(r Race) bool { return s.add(r, 0) }

// add is Add with a merge rank: of two equally canonical representatives
// the lower rank wins, and of two equal ranks the one already held.
func (s *Set) add(r Race, rank int) bool {
	s.RawCount++
	r.Field = NormalizeField(r.Field)
	k := keyOf(r)
	if i := s.find(k); i >= 0 {
		if held := s.races[i]; canonicalBefore(r, held) {
			if r.Witness == "" {
				r.Witness = held.Witness
			}
			s.races[i], s.ranks[i] = r, rank
		} else if rank < s.ranks[i] && !canonicalBefore(held, r) {
			s.races[i], s.ranks[i] = r, rank
		}
		return false
	}
	s.keys = append(s.keys, k)
	s.races = append(s.races, r)
	s.ranks = append(s.ranks, rank)
	if s.idx != nil {
		s.idx[k] = len(s.keys) - 1
	}
	return true
}

// Races returns the deduplicated non-benign races in stable (benchmark,
// field) order.
func (s *Set) Races() []Race { return s.filter(false) }

// Benign returns the deduplicated benign (checksum-guarded) races.
func (s *Set) Benign() []Race { return s.filter(true) }

func (s *Set) filter(benign bool) []Race {
	var out []Race
	for i := range s.races {
		if s.races[i].Benign == benign {
			out = append(out, s.races[i])
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Benchmark != out[j].Benchmark {
			return out[i].Benchmark < out[j].Benchmark
		}
		return out[i].Field < out[j].Field
	})
	return out
}

// Count returns the number of deduplicated non-benign races. It allocates
// nothing: the engine polls it after every crash scenario.
func (s *Set) Count() int { return s.count(false) }

// BenignCount returns the number of deduplicated benign races.
func (s *Set) BenignCount() int { return s.count(true) }

func (s *Set) count(benign bool) int {
	n := 0
	for i := range s.races {
		if s.races[i].Benign == benign {
			n++
		}
	}
	return n
}

// Fields returns the sorted set of non-benign racing field names.
func (s *Set) Fields() []string {
	var out []string
	for _, r := range s.Races() {
		out = append(out, r.Field)
	}
	sort.Strings(out)
	return out
}

// AttachWitnesses fills the Witness of every race that lacks one, using the
// supplied builder (typically trace.Recorder.Witness).
func (s *Set) AttachWitnesses(build func(Race) string) {
	for i := range s.races {
		if s.races[i].Witness == "" {
			s.races[i].Witness = build(s.races[i])
		}
	}
}

// Clone returns an independent copy of the set: mutating either side
// afterwards (Add, Merge, AttachWitnesses) leaves the other untouched. The
// engine's checkpoint layer clones the set captured at a snapshot point so
// every resumed scenario starts from the same accumulated reports.
func (s *Set) Clone() *Set {
	c := NewSet()
	c.RawCount = s.RawCount
	c.keys = append(c.keys, s.keys...)
	c.races = append(c.races, s.races...)
	c.ranks = append(c.ranks, s.ranks...)
	return c
}

// Merge adds every race from other into s. Merging is commutative up to
// the observable output: whatever order sets are merged in, Races(),
// Benign(), Fields() and String() render the same races with the same
// canonical representatives (see Add), except that of two equally
// canonical representatives the one held first stays; where they can
// differ (their witnesses), merge with MergeRanked. s and other must not
// be mutated concurrently; the engine merges on a single goroutine.
func (s *Set) Merge(other *Set) { s.MergeRanked(other, 0) }

// MergeRanked is Merge with every race of other at merge rank rank: where
// two representatives are equally canonical but differ elsewhere (their
// witnesses, which record different crashes), the one merged at the lower
// rank is kept. A fold of ranked sets therefore renders the same in any
// order as merging them in rank order.
func (s *Set) MergeRanked(other *Set, rank int) {
	for i := range other.races {
		s.add(other.races[i], rank)
	}
	s.RawCount += other.RawCount - len(other.races)
}

// String renders the set, one race per line, non-benign first.
func (s *Set) String() string {
	var b strings.Builder
	for _, r := range s.Races() {
		fmt.Fprintln(&b, r)
	}
	for _, r := range s.Benign() {
		fmt.Fprintln(&b, r)
	}
	return b.String()
}
