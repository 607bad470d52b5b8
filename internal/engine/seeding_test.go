package engine

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"yashme/internal/pmm"
)

// rmwRecovery builds a program whose pre-crash run persists 7 into val, and
// whose recovery CASes val from 7 and increments cnt, which only Setup
// wrote (3). A recovery's machine starts empty, so each RMW must seed its
// address from the persisted image on first touch. seen collects, per
// recovery, the CAS outcome and the values both RMWs read.
func rmwRecovery(seen *[][3]uint64) func() pmm.Program {
	return func() pmm.Program {
		var val, cnt pmm.Addr
		return pmm.Program{
			Name: "rmw-recovery",
			Setup: func(h *pmm.Heap) {
				obj := h.AllocStruct("obj", pmm.Layout{{Name: "val", Size: 8}, {Name: "cnt", Size: 8}})
				val, cnt = obj.F("val"), obj.F("cnt")
				h.Init(cnt, 8, 3)
			},
			Workers: []func(*pmm.Thread){func(t *pmm.Thread) {
				t.Store64(val, 7)
				t.CLFlush(val)
				t.SFence()
			}},
			PostCrash: func(t *pmm.Thread) {
				swapped := uint64(0)
				if t.CAS64(val, 7, 8) {
					swapped = 1
				}
				*seen = append(*seen, [3]uint64{swapped, t.Load64(val), t.FetchAdd(cnt, 8, 1)})
			},
		}
	}
}

// TestRecoveryRMWSeesImage: an RMW in a recovery reads the persisted image,
// both for a store the pre-crash run flushed and for a Setup-time value,
// under both persist policies and on both the default and reference paths.
func TestRecoveryRMWSeesImage(t *testing.T) {
	for _, reference := range []bool{false, true} {
		var seen [][3]uint64
		// Workers: 1 — the program appends to the shared seen slice.
		Run(rmwRecovery(&seen), Options{Mode: ModelCheck, Prefix: true, Workers: 1, Reference: reference})
		persisted := false
		for _, s := range seen {
			swapped, after, cnt := s[0], s[1], s[2]
			if cnt != 3 {
				t.Fatalf("reference=%v: FetchAdd read %d from the Setup-time value 3", reference, cnt)
			}
			if swapped == 1 {
				persisted = true
				if after != 8 {
					t.Fatalf("reference=%v: the CAS swapped but val reads %d, want 8", reference, after)
				}
			} else if after != 0 {
				t.Fatalf("reference=%v: the CAS failed on val = %d, which is neither 0 nor 7", reference, after)
			}
		}
		if !persisted {
			t.Fatalf("reference=%v: no recovery CASed the persisted 7 (outcomes %v)", reference, seen)
		}
	}
}

// carryFunc runs f as a simulated thread on a carrier: the only thread of
// a bare scenario, granted before it starts, whose end event waits unread
// in the event channel.
func carryFunc(f func()) {
	sc := new(scenario)
	sc.sched.begin(1)
	o := &threadOps{sc: sc, resume: make(chan struct{}, 1), fn: func(*pmm.Thread) { f() }}
	o.resume <- struct{}{}
	carry(o)
}

// TestCarriersParkBounded: simulated threads run on carrier goroutines that
// park between threads, and at most maxIdleCarriers stay parked however
// many ran at once.
func TestCarriersParkBounded(t *testing.T) {
	const n = 3 * maxIdleCarriers
	// Carriers parked by earlier tests are taken first.
	before := runtime.NumGoroutine() - len(idleCarriers)
	var wg sync.WaitGroup
	release := make(chan struct{})
	wg.Add(n)
	for i := 0; i < n; i++ {
		carryFunc(func() {
			defer wg.Done()
			<-release
		})
	}
	close(release)
	wg.Wait()
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > before+maxIdleCarriers {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after %d carried functions ended, want at most %d", runtime.NumGoroutine(), n, before+maxIdleCarriers)
		}
		time.Sleep(time.Millisecond)
	}
	if len(idleCarriers) == 0 {
		t.Fatal("no carrier parked")
	}
	// A parked carrier takes the next function. A carrier of an earlier
	// test may still park into the slot it frees, so a few tries are
	// allowed.
	during := make(chan int)
	for try := 0; ; try++ {
		idle := len(idleCarriers)
		carryFunc(func() { during <- len(idleCarriers) })
		got := <-during
		if got == idle-1 {
			break
		}
		if try == 100 {
			t.Fatalf("%d carriers idle while one ran, want %d: the function did not take a parked carrier", got, idle-1)
		}
		time.Sleep(time.Millisecond)
	}
}
