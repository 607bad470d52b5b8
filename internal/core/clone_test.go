package core

import (
	"testing"

	"yashme/internal/pmm"
)

// TestCloneIndependence: a cloned detector and its original may be mutated
// independently. The checkpoint layer resumes several scenarios from
// clones of one crash point's copy, so any mutation leaking back into the
// original (or from it) would corrupt every later crash scenario.
func TestCloneIndependence(t *testing.T) {
	r := newRig(true)
	r.m.EnqueueStore(0, addrX, 8, 1, false, false)
	r.m.EnqueueStore(0, addrZ, 8, 2, false, false)
	r.m.DrainSB(0)

	nd := r.d.Clone()
	origExec := r.d.Current()
	origStore := origExec.Latest(addrX)
	// Store identity is positional, and committed records are immutable, so
	// the clone shares the arena: the same ref resolves to the same record.
	cloneStore := nd.Current().ByRef(origStore.Ref())
	if cloneStore == nil {
		t.Fatal("ref must resolve in the clone")
	}
	if cloneStore.Addr != origStore.Addr || cloneStore.Seq != origStore.Seq {
		t.Fatalf("cloned record differs: %+v vs %+v", cloneStore, origStore)
	}

	// Mutate the clone: flush X's line (appends to the record's flushmap
	// chain), crash, and report a race on the unflushed Z. The machine clone
	// reports to the detector clone, so the two pairs evolve independently.
	nm := r.m.Clone(nd)
	nm.EnqueueCLFlush(0, addrX)
	nm.DrainSB(0)
	ce := nd.Current()
	nd.EndExecution(nm.CurSeq())
	if race := nd.CheckCandidate(ce, ce.Latest(addrZ), false); race == nil {
		t.Fatal("clone: unflushed non-atomic store must race")
	}

	if got := len(origExec.FlushesOf(origStore)); got != 0 {
		t.Errorf("original store gained %d flushes from the clone's clflush", got)
	}
	if got := len(ce.FlushesOf(ce.Latest(addrX))); got != 1 {
		t.Errorf("clone store has %d flushes, want 1", got)
	}
	if got := r.d.Report().Count(); got != 0 {
		t.Errorf("original report has %d races after the clone reported one", got)
	}
	if got := len(r.d.Executions()); got != 1 {
		t.Errorf("original has %d executions after the clone crashed, want 1", got)
	}

	// The other direction: race on the original, check the clone's report.
	e := r.d.Current()
	r.d.EndExecution(r.m.CurSeq())
	if race := r.d.CheckCandidate(e, e.Latest(addrX), false); race == nil {
		t.Fatal("original: unflushed non-atomic store must race")
	}
	if got := nd.Report().Count(); got != 1 {
		t.Errorf("clone report has %d races after the original reported another, want 1", got)
	}
}

// TestCloneNoAliasing drives both the template and a clone resumed from it
// through every mutation path the engine exercises after a checkpoint resume
// — new commits (arena growth), flushes (flush-arena growth and chain
// links), observations (lastflush/CVpre joins), Torn marks — and asserts
// nothing leaks either way. Run under -race this also proves the two share
// no writable memory.
func TestCloneNoAliasing(t *testing.T) {
	r := newRig(true)
	r.m.EnqueueStore(0, addrX, 8, 1, false, false)
	r.m.EnqueueStore(0, addrY, 8, 2, true, true) // release on X's line
	r.m.EnqueueStore(0, addrZ, 8, 3, false, false)
	r.m.DrainSB(0)

	nd := r.d.Clone()
	nm := r.m.Clone(nd)

	// Grow every arena and table on the clone only.
	nm.EnqueueStore(0, addrZ+8, 8, 4, false, false) // same line as Z: lineAddrs append
	nm.EnqueueCLFlush(0, addrZ)                     // flush arena growth
	nm.DrainSB(0)
	ce := nd.Current()
	nd.EndExecution(nm.CurSeq())
	nd.ObserveRead(ce, ce.Latest(addrY)) // lastflush join + cvpre join
	ce.MarkTorn(ce.Latest(addrX))

	oe := r.d.Current()
	if got := oe.Latest(addrZ + 8); got != nil {
		t.Errorf("clone's commit leaked into the original: %+v", got)
	}
	if got := len(oe.FlushesOf(oe.Latest(addrZ))); got != 0 {
		t.Errorf("clone's flush leaked into the original: %d entries", got)
	}
	if r.d.ClockArena().At(oe.cvpre).Max() != 0 {
		t.Errorf("clone's observation extended the original's CVpre: %v", r.d.ClockArena().At(oe.cvpre))
	}
	if r.d.ClockArena().At(oe.lastflush.At(pmm.LineOf(addrY))).Max() != 0 {
		t.Errorf("clone's lastflush join leaked into the original")
	}
	if oe.WasTorn(oe.Latest(addrX)) {
		t.Error("clone's Torn mark leaked into the original record")
	}

	// And the reverse: mutate the original, check the clone.
	r.m.EnqueueCLFlush(0, addrX)
	r.m.DrainSB(0)
	r.d.ObserveRead(oe, oe.Latest(addrZ))
	oe.MarkTorn(oe.Latest(addrZ))
	if got := len(ce.FlushesOf(ce.Latest(addrX))); got != 0 {
		t.Errorf("original's flush leaked into the clone: %d entries", got)
	}
	if ce.WasTorn(ce.Latest(addrZ)) {
		t.Error("original's Torn mark leaked into the clone record")
	}
	if nd.ClockArena().At(ce.cvpre).Get(0) != 2 {
		t.Errorf("clone CVpre = %v, want its own observation of seq 2 only", nd.ClockArena().At(ce.cvpre))
	}
}
