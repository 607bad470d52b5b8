package core

import (
	"testing"

	"yashme/internal/pmm"
	"yashme/internal/tso"
)

// TestCloneIndependence: a cloned detector and its original may be mutated
// independently. A crash point's copy is cloned for each scenario resumed
// from it while the probe that produced it goes on, so any mutation leaking
// back into the original (or from it) would corrupt every later crash
// scenario. The clone continues the way a resume does: its pre-crash
// execution ends at the source machine's CurSeq and the post-crash run
// goes on a fresh machine.
func TestCloneIndependence(t *testing.T) {
	r := newRig(true)
	r.m.EnqueueStore(0, addrX, 8, 1, false, false)
	r.m.EnqueueStore(0, addrZ, 8, 2, false, false)
	r.m.DrainSB(0)

	nd := r.d.Clone()
	origExec := r.d.Current()
	origStore := origExec.Latest(addrX)
	// Store identity is positional: the same ref resolves to the clone's
	// own copy of the record.
	cloneStore := nd.Current().ByRef(origStore.Ref())
	if cloneStore == nil {
		t.Fatal("ref must resolve in the clone")
	}
	if cloneStore == origStore {
		t.Fatal("the clone reads the original's record instead of its own copy")
	}
	if *cloneStore != *origStore {
		t.Fatalf("cloned record differs: %+v vs %+v", cloneStore, origStore)
	}

	// Resume the clone: crash, race on the unflushed Z and mark it torn.
	ce := nd.Current()
	nd.EndExecution(r.m.CurSeq())
	nm := tso.NewMachine(nd, nd.ClockArena())
	nm.EnqueueStore(0, addrZ, 8, 3, false, false)
	nm.DrainSB(0)
	if race := nd.checkCandidate(ce, ce.Latest(addrZ), false); race == nil {
		t.Fatal("clone: unflushed non-atomic store must race")
	}
	ce.MarkTorn(ce.Latest(addrZ))

	// The original's pre-crash run goes on: flush X.
	r.m.EnqueueCLFlush(0, addrX)
	r.m.DrainSB(0)

	if got := len(origExec.flushesOf(origExec.Latest(addrX))); got != 1 {
		t.Errorf("original store has %d flushes, want 1", got)
	}
	if got := len(ce.flushesOf(ce.Latest(addrX))); got != 0 {
		t.Errorf("clone store gained %d flushes from the original's clflush", got)
	}
	if origExec.Latest(addrZ).torn {
		t.Error("clone's Torn mark leaked into the original record")
	}
	if got := r.d.Report().Count(); got != 0 {
		t.Errorf("original report has %d races after the clone reported one", got)
	}
	if got := len(r.d.Executions()); got != 1 {
		t.Errorf("original has %d executions after the clone crashed, want 1", got)
	}
	if got := origExec.Latest(addrZ).Val; got != 2 {
		t.Errorf("original's Z = %d after the clone's post-crash store, want 2", got)
	}

	// The other direction: race on the original, check the clone's report.
	e := r.d.Current()
	r.d.EndExecution(r.m.CurSeq())
	if race := r.d.checkCandidate(e, e.Latest(addrZ), false); race == nil {
		t.Fatal("original: unflushed non-atomic store must race")
	}
	if got := nd.Report().Count(); got != 1 {
		t.Errorf("clone report has %d races after the original reported another, want 1", got)
	}
}

// TestCloneNoAliasing drives both the template and a clone resumed from it
// through every mutation path the engine exercises around a checkpoint
// resume — on the clone, a post-crash execution's commits and flushes,
// observations of the copied pre-crash execution (lastflush/CVpre joins)
// and Torn marks on its records; on the template, further pre-crash
// commits (arena and line-list growth) and flushes (flush-arena growth and
// chain links), then the same post-crash mutations — and asserts nothing
// leaks either way. Run under -race this also proves the two share no
// writable memory.
func TestCloneNoAliasing(t *testing.T) {
	r := newRig(true)
	r.m.EnqueueStore(0, addrX, 8, 1, false, false)
	r.m.EnqueueStore(0, addrY, 8, 2, true, true) // release on X's line
	r.m.EnqueueStore(0, addrZ, 8, 3, false, false)
	r.m.DrainSB(0)

	nd := r.d.Clone()
	ce := nd.Current()
	nd.EndExecution(r.m.CurSeq())
	nm := tso.NewMachine(nd, nd.ClockArena())
	nm.EnqueueStore(0, addrZ+8, 8, 4, false, false)
	nm.EnqueueCLFlush(0, addrZ) // covers Z+8, on the post-crash execution
	nm.DrainSB(0)
	pe := nd.Current()
	nd.ObserveRead(ce, ce.Latest(addrY)) // lastflush join + cvpre join
	ce.MarkTorn(ce.Latest(addrX))

	oe := r.d.Current()
	if got := len(r.d.Executions()); got != 1 {
		t.Errorf("clone's crash pushed an execution onto the original: %d", got)
	}
	if got := oe.Latest(addrZ + 8); got != nil {
		t.Errorf("clone's commit leaked into the original: %+v", got)
	}
	if r.d.ClockArena().At(oe.cvpre).String() != "{}" {
		t.Errorf("clone's observation extended the original's CVpre: %v", r.d.ClockArena().At(oe.cvpre))
	}
	if r.d.ClockArena().At(oe.lastflush.At(pmm.LineOf(addrY))).String() != "{}" {
		t.Errorf("clone's lastflush join leaked into the original")
	}
	if oe.Latest(addrX).torn {
		t.Error("clone's Torn mark leaked into the original record")
	}

	// And the reverse: grow and flush the original's pre-crash execution,
	// crash it, observe and mark torn; the clone's copy must not move.
	r.m.EnqueueStore(0, addrX+16, 8, 5, false, false) // arena + X's line list
	r.m.EnqueueCLFlush(0, addrX)
	r.m.DrainSB(0)
	r.d.EndExecution(r.m.CurSeq())
	r.d.ObserveRead(oe, oe.Latest(addrZ))
	oe.MarkTorn(oe.Latest(addrZ))
	if got := ce.Latest(addrX + 16); got != nil {
		t.Errorf("original's commit leaked into the clone: %+v", got)
	}
	if got := len(ce.lineAddrs.At(pmm.LineOf(addrX))); got != 2 {
		t.Errorf("clone's line list for X holds %d addresses, want 2", got)
	}
	if got := len(ce.flushesOf(ce.Latest(addrX))); got != 0 {
		t.Errorf("original's flush leaked into the clone: %d entries", got)
	}
	if ce.Latest(addrZ).torn {
		t.Error("original's Torn mark leaked into the clone record")
	}
	if !ce.Latest(addrX).torn {
		t.Error("clone lost its own Torn mark")
	}
	if nd.ClockArena().At(ce.cvpre).Get(0) != 2 {
		t.Errorf("clone CVpre = %v, want its own observation of seq 2 only", nd.ClockArena().At(ce.cvpre))
	}
	if got := len(pe.flushesOf(pe.Latest(addrZ + 8))); got != 1 {
		t.Errorf("clone's post-crash store has %d flushes, want 1", got)
	}
}
