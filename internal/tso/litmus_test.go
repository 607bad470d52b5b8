package tso

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"yashme/internal/pmm"
	"yashme/internal/vclock"
)

// Litmus harness: enumerate every interleaving of per-thread action lists,
// re-running each complete interleaving on a fresh machine, and collect the
// set of observable outcomes. Actions mutate a shared result slice; the
// outcome string is the result tuple at the end of the interleaving.
//
// This validates the simulator against the x86-TSO / Px86sim behaviours of
// the paper's §2 and Table 1 the way hardware memory models are validated:
// with litmus tests.

type litmusEnv struct {
	m   *Machine
	r   []uint64
	rec *flushRecorder
}

type litmusAction func(*litmusEnv)

// flushRecorder notes the global commit order of stores and flush events,
// for ordering assertions.
type flushRecorder struct {
	order []string
}

func (f *flushRecorder) StoreCommitted(rec *CommittedStore) {
	f.order = append(f.order, fmt.Sprintf("W%x=%d", uint64(rec.Addr), rec.Val))
}
func (f *flushRecorder) CLFlushCommitted(_ vclock.TID, addr pmm.Addr, _ vclock.Seq, _ vclock.Stamp) {
	f.order = append(f.order, fmt.Sprintf("F%x", uint64(addr)))
}
func (f *flushRecorder) CLWBBuffered(_ vclock.TID, addr pmm.Addr, _ vclock.Stamp) {
	f.order = append(f.order, fmt.Sprintf("wb%x", uint64(addr)))
}
func (f *flushRecorder) CLWBPersisted(flush FBEntry, _ vclock.TID, _ vclock.Seq, _ vclock.Stamp) {
	f.order = append(f.order, fmt.Sprintf("WB%x", uint64(flush.Addr)))
}
func (f *flushRecorder) FenceCommitted(vclock.TID, vclock.Seq, vclock.Stamp) {
	f.order = append(f.order, "SF")
}

// runLitmus enumerates interleavings and returns the sorted set of distinct
// outcome strings produced by render.
func runLitmus(t *testing.T, threads [][]litmusAction, nresults int, render func(*litmusEnv) string) []string {
	t.Helper()
	outcomes := map[string]bool{}
	var interleave func(seq []int, remaining []int)
	counts := make([]int, len(threads))
	total := 0
	for _, th := range threads {
		total += len(th)
	}
	var run func(seq []int)
	run = func(seq []int) {
		env := &litmusEnv{r: make([]uint64, nresults), rec: &flushRecorder{}}
		env.m = NewMachine(env.rec, nil)
		idx := make([]int, len(threads))
		for _, tid := range seq {
			threads[tid][idx[tid]](env)
			idx[tid]++
		}
		outcomes[render(env)] = true
	}
	interleave = func(seq []int, counts []int) {
		if len(seq) == total {
			run(seq)
			return
		}
		for tid := range threads {
			if counts[tid] < len(threads[tid]) {
				counts[tid]++
				interleave(append(seq, tid), counts)
				counts[tid]--
			}
		}
	}
	interleave(nil, counts)
	var out []string
	for o := range outcomes {
		out = append(out, o)
	}
	sort.Strings(out)
	return out
}

func has(outcomes []string, want string) bool {
	for _, o := range outcomes {
		if o == want {
			return true
		}
	}
	return false
}

const (
	lx = pmm.Addr(0x1000)
	ly = pmm.Addr(0x2000) // different cache line
)

// Classic SB (store buffering): with store buffers, both threads can read 0
// from the other's location — the hallmark TSO weak behaviour. Both-1 and
// the asymmetric outcomes must be reachable too.
func TestLitmusStoreBuffering(t *testing.T) {
	tid0, tid1 := vclock.TID(0), vclock.TID(1)
	threads := [][]litmusAction{
		{
			func(e *litmusEnv) { e.m.EnqueueStore(tid0, lx, 8, 1, false, false) },
			func(e *litmusEnv) { e.r[0], _ = e.m.Load(tid0, ly, 8, false) },
		},
		{
			func(e *litmusEnv) { e.m.EnqueueStore(tid1, ly, 8, 1, false, false) },
			func(e *litmusEnv) { e.r[1], _ = e.m.Load(tid1, lx, 8, false) },
		},
		// Hardware drains store buffers asynchronously: model the drain as
		// independent interleaving pressure, not program-ordered actions.
		{
			func(e *litmusEnv) { e.m.DrainSB(tid0) },
			func(e *litmusEnv) { e.m.DrainSB(tid1) },
		},
	}
	outcomes := runLitmus(t, threads, 2, func(e *litmusEnv) string {
		return fmt.Sprintf("r0=%d r1=%d", e.r[0], e.r[1])
	})
	for _, want := range []string{"r0=0 r1=0", "r0=1 r1=1", "r0=0 r1=1", "r0=1 r1=0"} {
		if !has(outcomes, want) {
			t.Errorf("SB litmus: outcome %q unreachable (got %v)", want, outcomes)
		}
	}
}

// Store-buffer bypassing: a thread always sees its own latest store, so
// reading your own location after writing it can never return the old
// value (the "SB with own-read" shape).
func TestLitmusBypassForbidsStaleOwnRead(t *testing.T) {
	tid0 := vclock.TID(0)
	threads := [][]litmusAction{
		{
			func(e *litmusEnv) { e.m.EnqueueStore(tid0, lx, 8, 1, false, false) },
			func(e *litmusEnv) { e.r[0], _ = e.m.Load(tid0, lx, 8, false) },
			func(e *litmusEnv) { e.m.DrainSB(tid0) },
		},
		{
			func(e *litmusEnv) { e.m.EvictOne(tid0) }, // external eviction pressure
		},
	}
	outcomes := runLitmus(t, threads, 1, func(e *litmusEnv) string {
		return fmt.Sprintf("r0=%d", e.r[0])
	})
	if has(outcomes, "r0=0") {
		t.Errorf("bypass litmus: stale own-read observed (%v)", outcomes)
	}
}

// MP (message passing) with release/acquire: if the reader acquires the
// flag value 1, its clock must cover the data store — the hb edge data
// race detection depends on. Reading flag=1 without the data store in the
// clock must be unreachable.
func TestLitmusMessagePassingClocks(t *testing.T) {
	tid0, tid1 := vclock.TID(0), vclock.TID(1)
	threads := [][]litmusAction{
		{
			func(e *litmusEnv) { e.m.EnqueueStore(tid0, lx, 8, 1, false, false) }, // data
			func(e *litmusEnv) { e.m.EnqueueStore(tid0, ly, 8, 1, true, true) },   // flag (release)
			func(e *litmusEnv) { e.m.DrainSB(tid0) },
		},
		{
			func(e *litmusEnv) {
				flag, _ := e.m.Load(tid1, ly, 8, true) // acquire
				e.r[0] = flag
				if e.m.threadCV(tid1).Contains(tid0, 1) { // covers the data store (σ1)?
					e.r[1] = 1
				}
			},
		},
	}
	outcomes := runLitmus(t, threads, 2, func(e *litmusEnv) string {
		return fmt.Sprintf("flag=%d covered=%d", e.r[0], e.r[1])
	})
	if has(outcomes, "flag=1 covered=0") {
		t.Errorf("MP litmus: acquired flag without data in clock (%v)", outcomes)
	}
	if !has(outcomes, "flag=1 covered=1") || !has(outcomes, "flag=0 covered=0") {
		t.Errorf("MP litmus: expected outcomes missing (%v)", outcomes)
	}
}

// Table 1, Write→clflush row (✓): a clflush never commits before an earlier
// same-thread store — they drain FIFO, so the flush event always follows
// the store event in the global order.
func TestLitmusCLFlushOrderedAfterEarlierStore(t *testing.T) {
	tid0 := vclock.TID(0)
	threads := [][]litmusAction{
		{
			func(e *litmusEnv) { e.m.EnqueueStore(tid0, lx, 8, 1, false, false) },
			func(e *litmusEnv) { e.m.EnqueueCLFlush(tid0, lx) },
			func(e *litmusEnv) { e.m.EvictOne(tid0) },
			func(e *litmusEnv) { e.m.EvictOne(tid0) },
		},
		{
			func(e *litmusEnv) { e.m.EvictOne(tid0) }, // racing eviction pressure
		},
	}
	outcomes := runLitmus(t, threads, 0, func(e *litmusEnv) string {
		order := strings.Join(e.rec.order, " ")
		return order
	})
	for _, o := range outcomes {
		w := strings.Index(o, "W1000=1")
		f := strings.Index(o, "F1000")
		if w >= 0 && f >= 0 && f < w {
			t.Errorf("clflush committed before the earlier store: %q", o)
		}
	}
}

// Table 1, clflushopt/clwb rows (✗ vs CL): a clwb leaves the store buffer
// but persists only at the next same-thread fence — the write-back event
// (WB) must always appear after the fence-triggering sfence enters the
// order... precisely: no WB without a preceding SF is observable.
func TestLitmusCLWBPersistsOnlyAtFence(t *testing.T) {
	tid0 := vclock.TID(0)
	threads := [][]litmusAction{
		{
			func(e *litmusEnv) { e.m.EnqueueStore(tid0, lx, 8, 1, false, false) },
			func(e *litmusEnv) { e.m.EnqueueCLWB(tid0, lx) },
			func(e *litmusEnv) { e.m.DrainSB(tid0) }, // clwb buffered, NOT persistent
			func(e *litmusEnv) {
				if len(e.m.fb[tid0]) == 1 {
					e.r[0] = 1 // write-back pending
				}
			},
			func(e *litmusEnv) { e.m.EnqueueSFence(tid0) },
			func(e *litmusEnv) { e.m.DrainSB(tid0) },
		},
	}
	outcomes := runLitmus(t, threads, 1, func(e *litmusEnv) string {
		order := strings.Join(e.rec.order, " ")
		return fmt.Sprintf("pending=%d order=%s", e.r[0], order)
	})
	for _, o := range outcomes {
		if !strings.Contains(o, "pending=1") {
			t.Errorf("clwb was persistent before the fence: %q", o)
		}
		// The persist event (WB) happens as part of the fence commit: it
		// can only exist in runs that contain the fence, and always after
		// the clwb left the store buffer (wb).
		wb := strings.Index(o, "WB1000")
		buffered := strings.Index(o, "wb1000")
		if wb >= 0 && !strings.Contains(o, "SF") {
			t.Errorf("write-back persisted without any fence: %q", o)
		}
		if wb >= 0 && (buffered < 0 || wb < buffered) {
			t.Errorf("write-back persisted before the clwb left the store buffer: %q", o)
		}
	}
}

// Total store order: once two stores from different threads commit, every
// thread agrees on the final value — no IRIW-style disagreement about the
// last writer.
func TestLitmusTotalStoreOrderAgreement(t *testing.T) {
	tid0, tid1 := vclock.TID(0), vclock.TID(1)
	threads := [][]litmusAction{
		{
			func(e *litmusEnv) { e.m.EnqueueStore(tid0, lx, 8, 1, false, false) },
			func(e *litmusEnv) { e.m.DrainSB(tid0) },
		},
		{
			func(e *litmusEnv) { e.m.EnqueueStore(tid1, lx, 8, 2, false, false) },
			func(e *litmusEnv) { e.m.DrainSB(tid1) },
		},
	}
	outcomes := runLitmus(t, threads, 2, func(e *litmusEnv) string {
		a, _ := e.m.Load(2, lx, 8, false) // two independent observers
		b, _ := e.m.Load(3, lx, 8, false)
		return fmt.Sprintf("a=%d b=%d", a, b)
	})
	for _, o := range outcomes {
		if o != "a=1 b=1" && o != "a=2 b=2" {
			t.Errorf("observers disagree on the final store: %q", o)
		}
	}
}

// mfence semantics (Table 1 mfence row: everything ordered): after MFence
// the thread has no buffered or pending operations, regardless of what the
// other thread interleaved.
func TestLitmusMFenceDrainsEverything(t *testing.T) {
	tid0, tid1 := vclock.TID(0), vclock.TID(1)
	threads := [][]litmusAction{
		{
			func(e *litmusEnv) { e.m.EnqueueStore(tid0, lx, 8, 1, false, false) },
			func(e *litmusEnv) { e.m.EnqueueCLWB(tid0, lx) },
			func(e *litmusEnv) { e.m.MFence(tid0) },
			func(e *litmusEnv) {
				e.r[0] = uint64(e.m.SBLen(tid0))
				e.r[1] = uint64(len(e.m.fb[tid0]))
			},
		},
		{
			func(e *litmusEnv) { e.m.EnqueueStore(tid1, ly, 8, 9, false, false) },
			func(e *litmusEnv) { e.m.EvictOne(tid1) },
		},
	}
	outcomes := runLitmus(t, threads, 2, func(e *litmusEnv) string {
		return fmt.Sprintf("sb=%d fb=%d", e.r[0], e.r[1])
	})
	for _, o := range outcomes {
		if o != "sb=0 fb=0" {
			t.Errorf("mfence left buffered work: %q", o)
		}
	}
}
