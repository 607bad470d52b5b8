package pmdk

import (
	"testing"

	"yashme/internal/engine"
	"yashme/internal/pmm"
	"yashme/internal/progs/progtest"
)

// The redo log is written with the paper's FIX (atomic release publication)
// and must be completely race-free — harmful and benign alike — across
// every crash point.
func TestRedoLogNoRaces(t *testing.T) {
	res := engine.Run(NewRedoProg(nil), engine.Options{Mode: engine.ModelCheck, Prefix: true})
	if res.Report.Count() != 0 {
		t.Fatalf("redo log raced:\n%s", res.Report)
	}
	if res.Report.BenignCount() != 0 {
		t.Fatalf("redo log produced benign races:\n%s", res.Report)
	}
}

// Across every crash point, recovery never observes a corrupt counter: the
// values are always a consistent prefix of the applied updates.
func TestRedoLogNoCorruptionAtAnyCrashPoint(t *testing.T) {
	var stats Stats
	// Workers: 1 — the driver writes the shared stats.
	engine.Run(NewRedoProg(&stats), engine.Options{Mode: engine.ModelCheck, Prefix: true, Workers: 1})
	if stats.Wrong != 0 {
		t.Fatalf("recovery observed %d corrupt counter states", stats.Wrong)
	}
	if stats.Found == 0 {
		t.Fatal("no scenarios validated")
	}
}

func TestRedoLogFullRunAppliesEverything(t *testing.T) {
	var got uint64
	mk := func() pmm.Program {
		var rl *RedoLog
		var a pmm.Addr
		return pmm.Program{
			Name: "redo-full",
			Setup: func(h *pmm.Heap) {
				NewPool(h)
				rl = NewRedoLog(h)
				a = h.AllocStruct("obj", pmm.Layout{{Name: "a", Size: 8}}).F("a")
			},
			Workers: []func(*pmm.Thread){func(t *pmm.Thread) {
				rl.Stage(t, a, 99)
				rl.Process(t)
			}},
			PostCrash: func(t *pmm.Thread) {
				rl.Recover(t)
				got = t.Load64(a)
			},
		}
	}
	progtest.RunFull(t, mk)
	if got != 99 {
		t.Fatalf("counter = %d, want 99", got)
	}
}

// A log published but not retired before the crash is replayed by recovery.
func TestRedoLogReplayAfterMidProcessCrash(t *testing.T) {
	var observed uint64
	mk := func() pmm.Program {
		var rl *RedoLog
		var a pmm.Addr
		return pmm.Program{
			Name: "redo-replay",
			Setup: func(h *pmm.Heap) {
				NewPool(h)
				rl = NewRedoLog(h)
				a = h.AllocStruct("obj", pmm.Layout{{Name: "a", Size: 8}}).F("a")
			},
			Workers: []func(*pmm.Thread){func(t *pmm.Thread) {
				rl.Stage(t, a, 7)
				// Publish but crash before applying: stage+checksum+publish
				// are the first 3 Persist points; the plan below crashes
				// right after publication.
				rl.Process(t)
			}},
			PostCrash: func(t *pmm.Thread) {
				rl.Recover(t)
				observed = t.Load64(a)
			},
		}
	}
	// Crash before the 4th flush/fence point: after nentries was published
	// (Stage persist, checksum persist, nentries persist = points 1..6 as
	// clwb+sfence pairs; scan a few and require at least one replay run
	// where recovery produced the value WITHOUT the worker's apply).
	sawReplay := false
	for c := 1; c <= 10; c++ {
		observed = 0
		res := engine.RunOne(mk, engine.Options{Prefix: true}, c, engine.PersistMinimal, 1)
		_ = res
		if observed == 7 {
			sawReplay = true
		}
	}
	if !sawReplay {
		t.Fatal("no crash point exercised the redo replay path")
	}
}

func TestRedoLogStageOverflowPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("overflow did not panic")
		}
	}()
	mk := func() pmm.Program {
		var rl *RedoLog
		var a pmm.Addr
		return pmm.Program{
			Name: "redo-overflow",
			Setup: func(h *pmm.Heap) {
				NewPool(h)
				rl = NewRedoLog(h)
				a = h.AllocStruct("obj", pmm.Layout{{Name: "a", Size: 8}}).F("a")
			},
			Workers: []func(*pmm.Thread){func(t *pmm.Thread) {
				for i := 0; i <= RedoCap; i++ {
					rl.Stage(t, a, uint64(i))
				}
			}},
		}
	}
	engine.RunOne(mk, engine.Options{Prefix: true}, 0, engine.PersistLatest, 1)
}
