package core

import (
	"slices"
	"testing"

	"yashme/internal/pmm"
	"yashme/internal/report"
	"yashme/internal/tso"
	"yashme/internal/vclock"
)

// rig wires a detector to a TSO machine for a single pre-crash execution.
type rig struct {
	d *Detector
	m *tso.Machine
}

func newRig(prefix bool) *rig {
	d := New(Config{Prefix: prefix, Benchmark: "test"})
	return &rig{d: d, m: tso.NewMachine(d, d.ClockArena())}
}

// crash ends the pre-crash execution and returns it for post-crash checks.
func (r *rig) crash() *Execution {
	e := r.d.Current()
	r.d.EndExecution(r.m.CurSeq())
	return e
}

// checkCandidate runs the race check for one candidate store and returns
// the race report, or nil if the store is persistency-safe.
func (d *Detector) checkCandidate(e *Execution, s *StoreRecord, guarded bool) *report.Race {
	if !d.CandidateRaced(e, s, guarded) {
		return nil
	}
	r := d.race(e, s, guarded)
	return &r
}

// history returns the commit-ordered stores to addr in e.
func (e *Execution) history(addr pmm.Addr) []*StoreRecord {
	var out []*StoreRecord
	for r := e.storeTab.At(addr); r != 0; r = e.ByRef(r).prevSameAddr {
		out = append(out, e.ByRef(r))
	}
	slices.Reverse(out)
	return out
}

// flushesOf returns the flushmap entries recorded for s: the first flush
// per thread that happens-after it.
func (e *Execution) flushesOf(s *StoreRecord) []FlushRef {
	var out []FlushRef
	for n := s.flushHead; n != 0; n = e.flushArena[n-1].next {
		out = append(out, e.flushArena[n-1].ref)
	}
	return out
}

const (
	addrX = pmm.Addr(0x1000) // line 0x40
	addrY = pmm.Addr(0x1008) // same line as X
	addrZ = pmm.Addr(0x2000) // different line
)

func TestRaceWhenStoreNeverFlushed(t *testing.T) {
	r := newRig(true)
	r.m.EnqueueStore(0, addrX, 8, 1, false, false)
	r.m.DrainSB(0)
	e := r.crash()
	s := e.Latest(addrX)
	if s == nil {
		t.Fatal("store not recorded")
	}
	if race := r.d.checkCandidate(e, s, false); race == nil {
		t.Fatal("unflushed non-atomic store must race")
	}
	if r.d.Report().Count() != 1 {
		t.Fatalf("report count = %d", r.d.Report().Count())
	}
}

func TestAtomicStoreNeverRaces(t *testing.T) {
	r := newRig(true)
	r.m.EnqueueStore(0, addrX, 8, 1, true, true)
	r.m.DrainSB(0)
	e := r.crash()
	if race := r.d.checkCandidate(e, e.Latest(addrX), false); race != nil {
		t.Fatal("atomic store reported as persistency race (Def 5.1 cond 1)")
	}
}

func TestInitialValueNeverRaces(t *testing.T) {
	r := newRig(true)
	e := r.crash()
	if race := r.d.checkCandidate(e, nil, false); race != nil {
		t.Fatal("nil store raced")
	}
	seeded := &StoreRecord{Addr: addrX, Seq: 0}
	if race := r.d.checkCandidate(e, seeded, false); race != nil {
		t.Fatal("seq-0 (initial) store raced")
	}
}

// Figure 5(b)/6(a): the store was flushed before the crash, but the
// post-crash execution has not observed anything ordered after the flush, so
// a consistent prefix exists that stops before the flush — prefix mode must
// still report the race; baseline mode must not.
func TestPrefixFindsRaceBeyondWindow(t *testing.T) {
	for _, prefix := range []bool{true, false} {
		r := newRig(prefix)
		r.m.EnqueueStore(0, addrX, 8, 1, false, false)
		r.m.EnqueueCLFlush(0, addrX)
		r.m.DrainSB(0)
		e := r.crash()
		s := e.Latest(addrX)
		if len(e.flushesOf(s)) != 1 {
			t.Fatalf("flushmap entries = %d, want 1", len(e.flushesOf(s)))
		}
		race := r.d.checkCandidate(e, s, false)
		if prefix && race == nil {
			t.Error("prefix mode missed the race outside the crash window")
		}
		if !prefix && race != nil {
			t.Error("baseline mode reported a race although the store was flushed")
		}
		if prefix && race != nil && !race.Flushed {
			t.Error("race should be marked as flushed-pre-crash (prefix-only find)")
		}
	}
}

// Figure 6(b): once the post-crash execution reads a store ordered after the
// clflush, the flush is in every consistent prefix and the race disappears.
func TestPrefixClosedByLaterObservation(t *testing.T) {
	r := newRig(true)
	r.m.EnqueueStore(0, addrX, 8, 1, false, false)
	r.m.EnqueueCLFlush(0, addrX)
	r.m.EnqueueStore(0, addrZ, 8, 2, true, true) // release store after flush
	r.m.DrainSB(0)
	e := r.crash()

	// Post-crash reads the release store to Z first: CVpre now covers the
	// clflush.
	r.d.ObserveRead(e, e.Latest(addrZ))
	if race := r.d.checkCandidate(e, e.Latest(addrX), false); race != nil {
		t.Fatal("race reported although the flush is inside the consistent prefix")
	}
}

// Definition 5.1 condition 2: reading a later atomic release store on the
// same cache line guarantees the earlier store persisted (cache coherence).
func TestCoherenceDefeatsRace(t *testing.T) {
	r := newRig(true)
	r.m.EnqueueStore(0, addrX, 8, 1, false, false) // non-atomic
	r.m.EnqueueStore(0, addrY, 8, 2, true, true)   // release, same line
	r.m.DrainSB(0)
	e := r.crash()

	// Post-crash reads Y (atomic) before X.
	r.d.ObserveRead(e, e.Latest(addrY))
	if race := r.d.checkCandidate(e, e.Latest(addrX), false); race != nil {
		t.Fatal("coherence-protected store reported as race")
	}
}

func TestCoherenceOnOtherLineDoesNotProtect(t *testing.T) {
	r := newRig(true)
	r.m.EnqueueStore(0, addrX, 8, 1, false, false)
	r.m.EnqueueStore(0, addrZ, 8, 2, true, true) // release on a different line
	r.m.DrainSB(0)
	e := r.crash()
	r.d.ObserveRead(e, e.Latest(addrZ))
	// CVpre now covers the store to X... but no flush exists at all, so the
	// race stands regardless of the prefix.
	if race := r.d.checkCandidate(e, e.Latest(addrX), false); race == nil {
		t.Fatal("release store on another line wrongly protected the store")
	}
}

// Order matters for coherence: if the post-crash execution reads the racy
// store BEFORE the release store, the race must be reported (Def 5.1 cond 2:
// "E' reads from s' before it reads from s").
func TestCoherenceOrderSensitivity(t *testing.T) {
	r := newRig(true)
	r.m.EnqueueStore(0, addrX, 8, 1, false, false)
	r.m.EnqueueStore(0, addrY, 8, 2, true, true)
	r.m.DrainSB(0)
	e := r.crash()

	// Check X first (no prior observation of Y): race.
	if race := r.d.checkCandidate(e, e.Latest(addrX), false); race == nil {
		t.Fatal("race missed when racy load precedes the atomic read")
	}
}

// Definition 5.1 condition 4: clwb alone does not persist; clwb+sfence does.
func TestCLWBWithoutFenceStillRaces(t *testing.T) {
	r := newRig(true)
	r.m.EnqueueStore(0, addrX, 8, 1, false, false)
	r.m.EnqueueCLWB(0, addrX)
	r.m.DrainSB(0) // clwb sits in the flush buffer, no fence
	e := r.crash()
	s := e.Latest(addrX)
	if len(e.flushesOf(s)) != 0 {
		t.Fatalf("clwb without fence recorded a flush: %v", e.flushesOf(s))
	}
	if race := r.d.checkCandidate(e, s, false); race == nil {
		t.Fatal("clwb without fence must not defeat the race")
	}
}

func TestCLWBPlusSFencePersists(t *testing.T) {
	r := newRig(false) // baseline: any pre-crash flush defeats the race
	r.m.EnqueueStore(0, addrX, 8, 1, false, false)
	r.m.EnqueueCLWB(0, addrX)
	r.m.EnqueueSFence(0)
	r.m.DrainSB(0)
	e := r.crash()
	s := e.Latest(addrX)
	if len(e.flushesOf(s)) != 1 {
		t.Fatalf("flushmap entries = %d, want 1", len(e.flushesOf(s)))
	}
	if race := r.d.checkCandidate(e, s, false); race != nil {
		t.Fatal("clwb+sfence did not defeat the race in baseline mode")
	}
}

func TestCLWBPlusMFencePersists(t *testing.T) {
	r := newRig(false)
	r.m.EnqueueStore(0, addrX, 8, 1, false, false)
	r.m.EnqueueCLWB(0, addrX)
	r.m.MFence(0)
	e := r.crash()
	if len(e.flushesOf(e.Latest(addrX))) != 1 {
		t.Fatal("mfence did not complete the clwb")
	}
}

// A clflush ordered BEFORE the store (program order) cannot persist it.
func TestFlushBeforeStoreDoesNotCount(t *testing.T) {
	r := newRig(true)
	r.m.EnqueueCLFlush(0, addrX)
	r.m.EnqueueStore(0, addrX, 8, 1, false, false)
	r.m.DrainSB(0)
	e := r.crash()
	s := e.Latest(addrX)
	if len(e.flushesOf(s)) != 0 {
		t.Fatalf("flush before store recorded in flushmap: %v", e.flushesOf(s))
	}
	if race := r.d.checkCandidate(e, s, false); race == nil {
		t.Fatal("store after its line's flush must race")
	}
}

// Cross-thread: a clflush by thread 1 with no happens-before edge from
// thread 0's store does not persist that store; with a release/acquire edge
// it does.
func TestCrossThreadFlushNeedsHappensBefore(t *testing.T) {
	// Without synchronization.
	r := newRig(false)
	r.m.EnqueueStore(0, addrX, 8, 1, false, false)
	r.m.DrainSB(0)
	r.m.EnqueueCLFlush(1, addrX)
	r.m.DrainSB(1)
	e := r.crash()
	if got := len(e.flushesOf(e.Latest(addrX))); got != 0 {
		t.Fatalf("unsynchronized cross-thread flush recorded: %d", got)
	}

	// With release/acquire synchronization.
	r = newRig(false)
	r.m.EnqueueStore(0, addrX, 8, 1, false, false)
	r.m.EnqueueStore(0, addrZ, 8, 1, true, true) // release flag
	r.m.DrainSB(0)
	r.m.Load(1, addrZ, 8, true) // acquire
	r.m.EnqueueCLFlush(1, addrX)
	r.m.DrainSB(1)
	e = r.crash()
	if got := len(e.flushesOf(e.Latest(addrX))); got != 1 {
		t.Fatalf("synchronized cross-thread flush not recorded: %d", got)
	}
}

// flushmap keeps only the first flush per thread ordering chain (Figure 8's
// "no other clflush ordered between").
func TestFlushmapFirstFlushOnly(t *testing.T) {
	r := newRig(true)
	r.m.EnqueueStore(0, addrX, 8, 1, false, false)
	r.m.EnqueueCLFlush(0, addrX)
	r.m.EnqueueCLFlush(0, addrX)
	r.m.DrainSB(0)
	e := r.crash()
	if got := len(e.flushesOf(e.Latest(addrX))); got != 1 {
		t.Fatalf("flushmap entries = %d, want 1 (first flush only)", got)
	}
}

// A flush only covers the latest store to each address; a store committed
// after the flush races.
func TestStoreAfterFlushRaces(t *testing.T) {
	r := newRig(false)
	r.m.EnqueueStore(0, addrX, 8, 1, false, false)
	r.m.EnqueueCLFlush(0, addrX)
	r.m.EnqueueStore(0, addrX, 8, 2, false, false)
	r.m.DrainSB(0)
	e := r.crash()
	s := e.Latest(addrX)
	if s.Val != 2 {
		t.Fatalf("latest store val = %d", s.Val)
	}
	if race := r.d.checkCandidate(e, s, false); race == nil {
		t.Fatal("store after flush must race")
	}
	// The earlier store is persisted and is the persist lower bound.
	if lb := e.PersistLB(addrX); lb == nil || lb.Val != 1 {
		t.Fatalf("persist lower bound = %+v, want store val 1", lb)
	}
}

func TestGuardedLoadReportsBenign(t *testing.T) {
	r := newRig(true)
	r.m.EnqueueStore(0, addrX, 8, 1, false, false)
	r.m.DrainSB(0)
	e := r.crash()
	race := r.d.checkCandidate(e, e.Latest(addrX), true)
	if race == nil || !race.Benign {
		t.Fatalf("guarded race = %+v, want benign", race)
	}
	if r.d.Report().Count() != 0 || r.d.Report().BenignCount() != 1 {
		t.Fatalf("report counts = %d/%d", r.d.Report().Count(), r.d.Report().BenignCount())
	}
}

func TestDedupSameFieldManyScenarios(t *testing.T) {
	r := newRig(true)
	r.m.EnqueueStore(0, addrX, 8, 1, false, false)
	r.m.EnqueueStore(0, addrX, 8, 2, false, false)
	r.m.DrainSB(0)
	e := r.crash()
	for _, s := range e.history(addrX) {
		r.d.checkCandidate(e, s, false)
	}
	if r.d.Report().Count() != 1 {
		t.Fatalf("deduplicated count = %d, want 1", r.d.Report().Count())
	}
	if r.d.Report().RawCount != 2 {
		t.Fatalf("raw count = %d, want 2", r.d.Report().RawCount)
	}
}

// Multi-crash (§6, exec stack): a store in the recovery execution that is
// not flushed races when a second post-crash execution reads it.
func TestExecutionStackMultiCrash(t *testing.T) {
	r := newRig(true)
	// Execution 0: store + flush (safe).
	r.m.EnqueueStore(0, addrX, 8, 1, false, false)
	r.m.EnqueueCLFlush(0, addrX)
	r.m.DrainSB(0)
	e0 := r.crash()

	// Execution 1 (recovery): unflushed store to Z on a fresh machine.
	m1 := tso.NewMachine(r.d, r.d.ClockArena())
	m1.EnqueueStore(0, addrZ, 8, 9, false, false)
	m1.DrainSB(0)
	e1 := r.d.Current()
	r.d.EndExecution(m1.CurSeq())

	// Execution 2 reads Z from execution 1: race in recovery code.
	if race := r.d.checkCandidate(e1, e1.Latest(addrZ), false); race == nil {
		t.Fatal("race in recovery execution missed")
	}
	// And reading X from execution 0 after observing something past its
	// flush is safe.
	r.d.ObserveRead(e0, e0.Latest(addrX))
	if len(r.d.Executions()) != 3 {
		t.Fatalf("execution stack depth = %d, want 3", len(r.d.Executions()))
	}
}

// The §4.2 multithreaded scenario: thread 1 stores z and flushes it; thread
// 2 sets an atomic flag. No crash point in THIS interleaving leaves z
// unflushed with the flag set, but the prefix analysis derives an execution
// where it is: reading only the flag keeps the flush of z outside E+.
func TestMultithreadedPrefixBeyondCrashPoints(t *testing.T) {
	r := newRig(true)
	r.m.EnqueueStore(1, addrZ, 8, 7, false, false) // racy store by thread 1
	r.m.EnqueueCLFlush(1, addrZ)
	r.m.DrainSB(1)
	r.m.EnqueueStore(2, addrX, 8, 1, true, true) // thread 2's flag (other line)
	r.m.DrainSB(2)
	e := r.crash()

	// Post-crash: read flag f (thread 2's store), then read z.
	r.d.ObserveRead(e, e.Latest(addrX))
	race := r.d.checkCandidate(e, e.Latest(addrZ), false)
	if race == nil {
		t.Fatal("prefix analysis missed the multithreaded race (paper §4.2)")
	}

	// Baseline cannot find it: the flush happened pre-crash.
	rb := newRig(false)
	rb.m.EnqueueStore(1, addrZ, 8, 7, false, false)
	rb.m.EnqueueCLFlush(1, addrZ)
	rb.m.DrainSB(1)
	rb.m.EnqueueStore(2, addrX, 8, 1, true, true)
	rb.m.DrainSB(2)
	eb := rb.crash()
	rb.d.ObserveRead(eb, eb.Latest(addrX))
	if race := rb.d.checkCandidate(eb, eb.Latest(addrZ), false); race != nil {
		t.Fatal("baseline mode found a race it should not be able to see")
	}
}

func TestLabelFallbackIsHex(t *testing.T) {
	r := newRig(true)
	r.m.EnqueueStore(0, addrX, 8, 1, false, false)
	r.m.DrainSB(0)
	e := r.crash()
	race := r.d.checkCandidate(e, e.Latest(addrX), false)
	if race.Field != "0x1000" {
		t.Fatalf("fallback label = %q", race.Field)
	}
}

func TestObserveReadIgnoresInitial(t *testing.T) {
	r := newRig(true)
	e := r.crash()
	r.d.ObserveRead(e, nil)
	r.d.ObserveRead(e, &StoreRecord{Seq: 0})
	if r.d.ClockArena().At(e.cvpre).String() != "{}" {
		t.Fatal("initial reads extended CVpre")
	}
}

func TestStoredAddrsAndCrashSeq(t *testing.T) {
	r := newRig(true)
	r.m.EnqueueStore(0, addrX, 8, 1, false, false)
	r.m.EnqueueStore(0, addrZ, 8, 2, false, false)
	r.m.DrainSB(0)
	e := r.crash()
	if got := len(e.AppendStoredAddrs(nil)); got != 2 {
		t.Fatalf("StoredAddrs = %d, want 2", got)
	}
	if e.crashSeq != vclock.Seq(2) {
		t.Fatalf("CrashSeq = %d, want 2", e.crashSeq)
	}
}
