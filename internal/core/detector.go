// Package core implements the Yashme persistency-race detection algorithm —
// the paper's primary contribution (ASPLOS '22, §5–§6).
//
// A persistency race (Definition 5.1) is a load l in a post-crash execution
// E' reading from a store s in a pre-crash execution E such that:
//
//  1. s is not atomic (so the compiler may tear it or invent stores);
//  2. no atomic release store s' to s's cache line with s →hb s' was read by
//     E' before it read s (cache coherence would otherwise guarantee s
//     persisted completely);
//  3. no clflush to s's cache line happens-after s (in the consistent
//     prefix); and
//  4. no clwb to s's cache line happens-after s followed in store-buffer
//     order by a fence (in the consistent prefix).
//
// The detector maintains, per execution (paper §6):
//
//   - storemap: address → latest committed store;
//   - flushmap: store → the first flush per thread that happens-after it
//     (kept inline on each store record as Flushes);
//   - lastflush: cache line → clock-vector lower bound for when the line was
//     written back, raised when the post-crash execution reads from an
//     atomic release store on the line;
//   - CVpre: the clock vector describing the shortest pre-crash prefix E+
//     consistent with everything the post-crash execution has observed
//     (§4.2/§5.1). A flush only defeats a race report if it is inside E+;
//     otherwise there exists a derivable pre-crash execution that stopped
//     before the flush and still yields the same post-crash execution
//     (Theorem 1).
//
// Disabling the prefix expansion (Config.Prefix = false) gives the paper's
// baseline: a flush anywhere before the crash defeats the report. Table 5
// compares the two.
package core

import (
	"fmt"
	"sync"

	"yashme/internal/addridx"
	"yashme/internal/pmm"
	"yashme/internal/report"
	"yashme/internal/tso"
	"yashme/internal/vclock"
)

// FlushRef identifies one flush recorded for a store: the thread that
// guaranteed persistence and the sequence number of the operation that made
// it guaranteed (the clflush itself, or the fence completing a clwb).
type FlushRef struct {
	TID vclock.TID
	Seq vclock.Seq
}

// StoreRef names a StoreRecord inside its owning Execution: a 1-based index
// into the execution's arena. Zero is "no store" (the nil of the old
// pointer-based representation). Refs survive Detector.Clone unchanged —
// the same ref names the corresponding record in the cloned arena — which
// is what lets the engine identify stores across checkpoint snapshots
// without any pointer remapping.
type StoreRef int32

// flushNode is one entry in an execution's flush arena: the flushmap lists
// of all store records live here as linked chains, so recording a flush is
// an arena append plus a link write and cloning the detector copies one
// flat slice instead of per-record Flushes slices.
type flushNode struct {
	ref  FlushRef
	next int32 // 1-based index of the next node in the chain, 0 = end
}

// StoreRecord is the detector's view of one committed store. Records live
// in their execution's arena (commit order); take care not to retain
// pointers across commits on a still-running execution — the arena may
// grow. Refs (StoreRef) are stable; pointers into ended executions are too.
// Every clone holds its own copy of the arena, so the post-commit state
// (flushmap chain bounds, torn mark) lives in the record itself.
type StoreRecord struct {
	Addr    pmm.Addr
	Size    int
	Val     uint64
	TID     vclock.TID
	Seq     vclock.Seq
	CV      vclock.Stamp
	Atomic  bool
	Release bool

	// ref is this record's own 1-based arena index.
	ref StoreRef
	// prevSameAddr chains to the previous store to the same address (the
	// per-address history, newest to oldest).
	prevSameAddr StoreRef
	// flushHead/flushTail delimit this store's flushmap chain in the
	// execution's flush arena: the first flush per thread that happens-after
	// this store (paper Figure 8, Evict_SB/Evict_FB).
	flushHead, flushTail int32
	// torn is set by the engine when a post-crash load actually observed
	// this store as racing and synthesized a torn value from it.
	torn bool
	// memo remembers the post-crash verdicts already reached on this store
	// (memo* bits; see CandidateRaced and ObserveRead). The record is its
	// scenario's own copy, so the bits travel with the report and the
	// read-side clocks they summarize.
	memo uint8
}

// Post-crash verdict memo bits (StoreRecord.memo). cvpre and lastflush only
// grow and a store's flush chain is fixed once its execution ended, so a
// "persisted" verdict never reverts; a race already reported for the same
// guardedness would only re-add an identical report; and joining a store's
// clock into cvpre twice changes nothing.
const (
	memoClean       uint8 = 1 << iota // persistency-safe or suppressed, for good
	memoRaced                         // reported as a race by an unguarded load
	memoRacedBenign                   // reported as a race by a guarded load
	memoObserved                      // ObserveRead joined the store's clock
)

// Ref returns the record's stable identity within its execution.
func (s *StoreRecord) Ref() StoreRef { return s.ref }

// Prev returns the ref of the previous store to the same address in this
// execution (0 = none). Walking Latest → Prev visits an address's history
// newest-first without allocating.
func (s *StoreRecord) Prev() StoreRef { return s.prevSameAddr }

// Execution is the per-execution detector state. Executions form a stack
// (paper §6, exec): a crash during recovery pushes a new execution whose
// loads may read from any earlier one.
//
// All hot state is slice-backed: store records live in a commit-ordered
// arena, per-address lookups go through dense addridx tables holding arena
// refs, and per-line state is line-indexed. Clone is a handful of flat
// copies (see clone.go).
type Execution struct {
	ID int

	// arena holds every committed store record in commit (σ) order;
	// StoreRef r names arena[r-1].
	arena []StoreRecord
	// flushArena backs the per-record flushmap chains.
	flushArena []flushNode
	// storeTab: latest committed store per address (storemap).
	storeTab addridx.Table[StoreRef]
	// lineAddrs: which addresses on each cache line have been stored to,
	// ascending: the walk over every stored address (AppendStoredAddrs)
	// visits the written lines only, not every storeTab slot.
	lineAddrs addridx.LineTable[[]pmm.Addr]
	// lastflush: line → lower bound clock for the line's write-back, as a
	// ref into the detector's clock arena.
	lastflush addridx.LineTable[vclock.Ref]
	// cvpre: how much of this execution later executions have observed
	// (arena ref; 0 = nothing observed yet).
	cvpre vclock.Ref
	// persistTab: per address, the latest store known persisted via an
	// explicit flush (the engine's candidate windows start here).
	persistTab addridx.Table[StoreRef]
	// crashSeq: σ at the crash ending this execution (0 while running).
	crashSeq vclock.Seq
	// lineBuf is the flat backing a clone carves its per-line address lists
	// from (clone); kept across recycling so a warm clone reuses it.
	lineBuf []pmm.Addr
}

// execPool holds retired, emptied executions. The engine runs one
// short-lived detector per crash scenario across a pool of workers;
// drawing executions from here lets a scenario reuse the arenas and
// tables an earlier one grew instead of regrowing them from empty.
var execPool sync.Pool

func newExecution(id int) *Execution {
	if e, _ := execPool.Get().(*Execution); e != nil {
		e.ID = id
		return e
	}
	return &Execution{ID: id}
}

// reset empties the execution for reuse, keeping every backing array. The
// records and flush nodes hold no pointers, so truncation is enough; the
// tables clear what was used.
func (e *Execution) reset() {
	e.arena = e.arena[:0]
	e.flushArena = e.flushArena[:0]
	e.storeTab.Reset()
	e.persistTab.Reset()
	e.lineAddrs.Reset()
	e.lastflush.Reset()
	e.cvpre, e.crashSeq = 0, 0
}

// ByRef resolves a StoreRef to its record, nil for the zero ref.
func (e *Execution) ByRef(r StoreRef) *StoreRecord {
	if r == 0 {
		return nil
	}
	return &e.arena[r-1]
}

// Latest returns the latest committed store to addr, or nil.
func (e *Execution) Latest(addr pmm.Addr) *StoreRecord { return e.ByRef(e.storeTab.At(addr)) }

// PersistLB returns the latest store to addr known persisted via explicit
// flushes, or nil if no flush covered the address.
func (e *Execution) PersistLB(addr pmm.Addr) *StoreRecord { return e.ByRef(e.persistTab.At(addr)) }

// MarkTorn records that a post-crash load observed s as racing and
// synthesized a torn value from it.
func (e *Execution) MarkTorn(s *StoreRecord) { s.torn = true }

// AppendStoredAddrs appends every address written in this execution to buf,
// in ascending address order, and returns the extended slice. Callers on the
// hot image-derivation path pass a reused scratch buffer so the walk stays
// allocation-free. The walk goes line by line: a workload writes a few
// percent of the address range its tables span.
func (e *Execution) AppendStoredAddrs(buf []pmm.Addr) []pmm.Addr {
	for l, n := pmm.Line(0), pmm.Line(e.lineAddrs.Len()); l < n; l++ {
		buf = append(buf, e.lineAddrs.At(l)...)
	}
	return buf
}

// Config selects the detector variant.
type Config struct {
	// Prefix enables the paper's key idea (§4.2): check races against every
	// consistent prefix of the pre-crash execution rather than only the
	// exact crash state. False gives the Table 5 baseline.
	Prefix bool
	// EADR adapts the detector to eADR platforms (§7.5), where the cache is
	// inside the persistence domain and flushing is not required: a store is
	// fully persistent once it has committed BEFORE anything the post-crash
	// execution observed. Races shrink to stores that no observed operation
	// is ordered after — the crash could still interrupt the (compiler-torn)
	// store itself. Absence of races in the default mode implies absence
	// under EADR, never the reverse.
	EADR bool
	// Benchmark names the program under test in reports.
	Benchmark string
	// Labeler renders an address as a field name for reports (normally
	// Heap.LabelFor). May be nil.
	Labeler func(pmm.Addr) string
	// Suppress lists normalized field labels whose races are not reported —
	// the paper's proposed annotation mechanism for stores that are only
	// consumed by checksum validation (§7.5, "a future implementation of
	// Yashme could use annotations to suppress race warnings").
	Suppress []string
	// OwnedClocks disables clock interning (the engine's reference
	// configuration): the arena appends a private materialized clock per
	// record instead of deduplicating snapshots, and the epoch join fast
	// path is off. Observable results are identical either way; only cost
	// counters move.
	OwnedClocks bool
}

// suppressed reports whether the label is annotated away.
func (c Config) suppressed(label string) bool {
	n := report.NormalizeField(label)
	for _, s := range c.Suppress {
		if s == n {
			return true
		}
	}
	return false
}

// Detector implements the Yashme algorithm over the event stream of a
// tso.Machine. It satisfies tso.Listener for the current execution.
type Detector struct {
	cfg    Config
	execs  []*Execution
	report *report.Set
	// arena holds every clock snapshot the detector's state refers to:
	// record stamps, per-line lastflush refs and cvpre all resolve here.
	// The engine builds the simulating tso.Machine on the same arena
	// (tso.NewMachine) so stamps cross the listener boundary by value.
	arena *vclock.Arena
	// journal, when attached (AttachUndo), records every mutation of the
	// current execution so the engine's probe can rewind them (journal.go).
	// Never inherited by clones.
	journal *Journal
}

// New returns a detector with an initial (first pre-crash) execution.
func New(cfg Config) *Detector {
	d := &Detector{cfg: cfg, report: report.NewSet(), arena: vclock.NewArena(cfg.OwnedClocks)}
	d.execs = append(d.execs, newExecution(0))
	return d
}

// ClockArena returns the arena the detector's stamps and refs resolve in.
// The engine shares it with each execution's tso.Machine.
func (d *Detector) ClockArena() *vclock.Arena { return d.arena }

// Report returns the accumulated race reports.
func (d *Detector) Report() *report.Set { return d.report }

// Current returns the execution currently being recorded.
func (d *Detector) Current() *Execution { return d.execs[len(d.execs)-1] }

// Executions returns the execution stack, oldest first.
func (d *Detector) Executions() []*Execution { return d.execs }

// Retire hands the detector's executions back to the pool later detectors
// draw from. The detector must never be used again; its report and clock
// arena are not recycled, so results merged from it stay valid. Every
// execution goes back: a clone owns everything it holds (see Clone), so
// no other detector reads these arrays.
func (d *Detector) Retire() {
	for _, e := range d.execs {
		e.reset()
		execPool.Put(e)
	}
	d.execs = nil
}

// EndExecution marks the current execution crashed at crashSeq and pushes a
// fresh execution for the post-crash run.
func (d *Detector) EndExecution(crashSeq vclock.Seq) *Execution {
	d.Current().crashSeq = crashSeq
	e := newExecution(len(d.execs))
	d.execs = append(d.execs, e)
	return e
}

// --- tso.Listener: pre-crash bookkeeping (paper Figure 8) ---

// StoreCommitted implements Evict_SB for stores: update storemap/history.
func (d *Detector) StoreCommitted(rec *tso.CommittedStore) {
	e := d.Current()
	prev := e.storeTab.At(rec.Addr)
	ref := StoreRef(len(e.arena) + 1)
	e.arena = append(e.arena, StoreRecord{
		Addr: rec.Addr, Size: rec.Size, Val: rec.Val,
		TID: rec.TID, Seq: rec.Seq, CV: rec.CV,
		Atomic: rec.Atomic, Release: rec.Release,
		ref: ref, prevSameAddr: prev,
	})
	e.storeTab.Set(rec.Addr, ref)
	if prev == 0 {
		// First store to this address: register it on its cache line, in
		// address order (a line holds at most eight words).
		la := e.lineAddrs.Ptr(pmm.LineOf(rec.Addr))
		*la = append(*la, rec.Addr)
		for i := len(*la) - 1; i > 0 && (*la)[i-1] > rec.Addr; i-- {
			(*la)[i-1], (*la)[i] = (*la)[i], (*la)[i-1]
		}
	}
	if d.journal != nil {
		d.journal.ops = append(d.journal.ops, JournalOp{Kind: JournalStore, Target: ref})
	}
}

// CLFlushCommitted implements Evict_SB for clflush: for every latest store
// on the flushed line that happens-before the clflush and has no earlier
// recorded flush ordered before this one, record ⟨τ, σ_clflush⟩ in its
// flushmap entry. The store is also the new persist lower bound for its
// address.
func (d *Detector) CLFlushCommitted(tid vclock.TID, addr pmm.Addr, seq vclock.Seq, cv vclock.Stamp) {
	d.applyFlush(pmm.LineOf(addr), cv, tid, seq, cv)
}

// CLWBBuffered is a no-op for the detector: a clwb guarantees nothing until
// a fence (paper Figure 4b).
func (d *Detector) CLWBBuffered(vclock.TID, pmm.Addr, vclock.Stamp) {}

// CLWBPersisted implements Evict_FB: a fence made a buffered clwb durable.
// A store is covered if it happens-before the clwb (flush.CV); the flush
// identity recorded is the fence.
func (d *Detector) CLWBPersisted(flush tso.FBEntry, fenceTID vclock.TID, fenceSeq vclock.Seq, fenceCV vclock.Stamp) {
	d.applyFlush(pmm.LineOf(flush.Addr), flush.CV, fenceTID, fenceSeq, fenceCV)
}

// FenceCommitted needs no detector action beyond what CLWBPersisted did.
func (d *Detector) FenceCommitted(vclock.TID, vclock.Seq, vclock.Stamp) {}

// applyFlush records a flush for every latest store on the line covered by
// coverCV, unless an already-recorded flush is ordered before this flush
// (orderCV) — the "first flush per thread" rule of Figure 8.
func (d *Detector) applyFlush(line pmm.Line, coverCV vclock.Stamp, flushTID vclock.TID, flushSeq vclock.Seq, orderCV vclock.Stamp) {
	e := d.Current()
	for _, a := range e.lineAddrs.At(line) {
		ref := e.storeTab.At(a)
		s := e.ByRef(ref)
		if s == nil || !d.arena.Contains(coverCV, s.TID, s.Seq) {
			continue // store did not happen-before the flush
		}
		already := false
		for n := s.flushHead; n != 0; n = e.flushArena[n-1].next {
			f := e.flushArena[n-1].ref
			if d.arena.Contains(orderCV, f.TID, f.Seq) {
				already = true // an earlier flush is ordered before this one
				break
			}
		}
		if !already {
			fr := FlushRef{TID: flushTID, Seq: flushSeq}
			tail := s.flushTail
			e.addFlush(s, fr)
			if d.journal != nil {
				d.journal.ops = append(d.journal.ops, JournalOp{Kind: JournalFlush, Target: ref, Prev: tail, Flush: fr})
			}
		}
		if lbRef := e.persistTab.At(a); lbRef == 0 || s.Seq > e.ByRef(lbRef).Seq {
			e.persistTab.Set(a, ref)
			if d.journal != nil {
				d.journal.ops = append(d.journal.ops, JournalOp{Kind: JournalPersist, Target: ref, Prev: int32(lbRef)})
			}
		}
	}
}

// addFlush appends a flushmap entry to s's chain in the flush arena.
func (e *Execution) addFlush(s *StoreRecord, f FlushRef) {
	e.flushArena = append(e.flushArena, flushNode{ref: f})
	n := int32(len(e.flushArena))
	if s.flushTail != 0 {
		e.flushArena[s.flushTail-1].next = n
	} else {
		s.flushHead = n
	}
	s.flushTail = n
}

var _ tso.Listener = (*Detector)(nil)

// --- post-crash checks (paper Figure 9) ---

// CandidateRaced runs the Load_NonAtomic race check for one candidate store
// s in pre-crash execution e, without committing the observation, and
// reports whether s races. guarded marks a checksum-validation load (the
// report is classified benign). A race is recorded in the report set; the
// report itself is never materialized on the heap. The engine calls this
// for every store a post-crash load could have read from (Jaaru's
// candidate sets), orders of magnitude more often than races are actually
// new; ObserveRead then commits the store actually read.
//
// Verdicts are memoized on the record (FastTrack's same-epoch rule applied
// to candidate checks): a store found persisted, or whose label is
// suppressed, stays so, because cvpre and lastflush only grow; a store that
// races again for the same guardedness skips the label and report.Add,
// which would only re-add the report already in the set.
func (d *Detector) CandidateRaced(e *Execution, s *StoreRecord, guarded bool) bool {
	if s == nil || s.Seq == 0 || s.Atomic || s.memo&memoClean != 0 {
		return false // initial values and atomic stores cannot tear
	}
	if d.persisted(e, s) {
		s.memo |= memoClean
		return false
	}
	bit := memoRaced
	if guarded {
		bit = memoRacedBenign
	}
	if s.memo&bit != 0 {
		return true
	}
	r := d.race(e, s, guarded)
	if d.cfg.suppressed(r.Field) {
		s.memo |= memoClean // annotated away (§7.5)
		return false
	}
	d.report.Add(r)
	s.memo |= bit
	return true
}

// persisted reports whether the consistent prefix guarantees non-atomic
// store s of execution e persisted completely (Figure 9's race conditions
// 2–4 fail).
func (d *Detector) persisted(e *Execution, s *StoreRecord) bool {
	// Condition 2 (coherence): if the post-crash execution already read an
	// atomic release store on this line ordered after s, the line persisted
	// after s completed.
	if d.arena.RefContains(e.lastflush.At(pmm.LineOf(s.Addr)), s.TID, s.Seq) {
		return true
	}
	if d.cfg.EADR {
		// eADR: commitment is persistence. The store is safe as soon as the
		// consistent prefix contains an operation STRICTLY after it (the
		// observation proves the store completed before the crash); the
		// store's own observation proves nothing — the crash could have
		// interrupted the torn store itself.
		return d.arena.RefGet(e.cvpre, s.TID) > s.Seq
	}
	// Conditions 3–4 (explicit flushes): a recorded flush defeats the race
	// only if it is inside the consistent prefix E+ (CVpre). Baseline mode
	// accepts any flush that happened before the crash.
	for n := s.flushHead; n != 0; n = e.flushArena[n-1].next {
		f := e.flushArena[n-1].ref
		if !d.cfg.Prefix || d.arena.RefContains(e.cvpre, f.TID, f.Seq) {
			return true
		}
	}
	return false
}

// race renders the report for a load of store s of execution e.
func (d *Detector) race(e *Execution, s *StoreRecord, guarded bool) report.Race {
	return report.Race{
		Benchmark: d.cfg.Benchmark,
		Field:     d.label(s.Addr),
		Addr:      uint64(s.Addr),
		StoreSeq:  uint64(s.Seq),
		StoreTID:  int(s.TID),
		ExecID:    e.ID,
		Benign:    guarded,
		Flushed:   s.flushHead != 0,
	}
}

// ObserveRead commits that a later execution actually read store s from
// execution e: it extends the consistent prefix E+ (CVpre ∪= CVs) and, for
// atomic release stores, raises the line's write-back lower bound
// (Load_Atomic in Figure 9). Only the first read of s joins: the joins are
// idempotent.
func (d *Detector) ObserveRead(e *Execution, s *StoreRecord) {
	if s == nil || s.Seq == 0 || s.memo&memoObserved != 0 {
		return
	}
	s.memo |= memoObserved
	if s.Atomic && s.Release {
		lf := e.lastflush.Ptr(pmm.LineOf(s.Addr))
		*lf = d.arena.JoinStamp(*lf, s.CV)
	}
	e.cvpre = d.arena.JoinStamp(e.cvpre, s.CV)
}

func (d *Detector) label(a pmm.Addr) string {
	if d.cfg.Labeler != nil {
		return d.cfg.Labeler(a)
	}
	return fmt.Sprintf("0x%x", uint64(a))
}
