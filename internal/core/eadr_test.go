package core

import (
	"testing"

	"yashme/internal/tso"
)

// newEADRRig wires a detector in eADR mode (§7.5).
func newEADRRig() *rig {
	d := New(Config{Prefix: true, EADR: true, Benchmark: "eadr"})
	return &rig{d: d, m: tso.NewMachine(d, d.ClockArena())}
}

// On eADR the cache is persistent: an unflushed store still races when it
// is the newest thing observed (the crash could have torn the store
// itself)...
func TestEADRLastStoreStillRaces(t *testing.T) {
	r := newEADRRig()
	r.m.EnqueueStore(0, addrX, 8, 1, false, false)
	r.m.DrainSB(0)
	e := r.crash()
	if race := r.d.checkCandidate(e, e.Latest(addrX), false); race == nil {
		t.Fatal("eADR: trailing store must still race (torn mid-store)")
	}
}

// ...but a store is safe as soon as the post-crash execution observed any
// operation ordered after it — no flush needed.
func TestEADRObservationPersists(t *testing.T) {
	r := newEADRRig()
	r.m.EnqueueStore(0, addrX, 8, 1, false, false) // never flushed
	r.m.EnqueueStore(0, addrZ, 8, 2, false, false) // later store, other line
	r.m.DrainSB(0)
	e := r.crash()
	// Post-crash reads Z first: its CV covers the X store.
	r.d.ObserveRead(e, e.Latest(addrZ))
	if race := r.d.checkCandidate(e, e.Latest(addrX), false); race != nil {
		t.Fatal("eADR: store ordered before an observed operation raced")
	}
}

// The same program WITHOUT eADR must report the unflushed X store: the
// paper's containment claim (no races on non-eADR ⇒ no races on eADR, not
// vice versa).
func TestEADRIsStrictlyWeaker(t *testing.T) {
	build := func(eadr bool) int {
		d := New(Config{Prefix: true, EADR: eadr, Benchmark: "cmp"})
		m := tso.NewMachine(d, d.ClockArena())
		m.EnqueueStore(0, addrX, 8, 1, false, false)
		m.EnqueueStore(0, addrZ, 8, 2, false, false)
		m.DrainSB(0)
		e := d.Current()
		d.EndExecution(m.CurSeq())
		d.ObserveRead(e, e.Latest(addrZ))
		d.checkCandidate(e, e.Latest(addrX), false)
		d.checkCandidate(e, e.Latest(addrZ), false)
		return d.Report().Count()
	}
	normal := build(false)
	eadr := build(true)
	if eadr > normal {
		t.Fatalf("eADR found %d races > default mode's %d", eadr, normal)
	}
	if normal != 2 || eadr != 1 {
		t.Fatalf("normal=%d eadr=%d, want 2 and 1", normal, eadr)
	}
}

// Coherence protection (condition 2) applies under eADR too.
func TestEADRCoherenceStillApplies(t *testing.T) {
	r := newEADRRig()
	r.m.EnqueueStore(0, addrX, 8, 1, false, false)
	r.m.EnqueueStore(0, addrY, 8, 2, true, true) // release, same line
	r.m.DrainSB(0)
	e := r.crash()
	r.d.ObserveRead(e, e.Latest(addrY))
	if race := r.d.checkCandidate(e, e.Latest(addrX), false); race != nil {
		t.Fatal("eADR: coherence-protected store raced")
	}
}

// Suppression annotations (§7.5): races on suppressed labels are dropped.
func TestSuppressionAnnotations(t *testing.T) {
	d := New(Config{Prefix: true, Benchmark: "sup",
		Suppress: []string{"0x1000"}}) // the fallback hex label for addrX
	m := tso.NewMachine(d, d.ClockArena())
	m.EnqueueStore(0, addrX, 8, 1, false, false)
	m.EnqueueStore(0, addrZ, 8, 2, false, false)
	m.DrainSB(0)
	e := d.Current()
	d.EndExecution(m.CurSeq())
	if race := d.checkCandidate(e, e.Latest(addrX), false); race != nil {
		t.Fatal("suppressed field reported")
	}
	if race := d.checkCandidate(e, e.Latest(addrZ), false); race == nil {
		t.Fatal("non-suppressed field missed")
	}
	if d.Report().Count() != 1 {
		t.Fatalf("report count = %d, want 1", d.Report().Count())
	}
}

func TestSuppressionNormalizesIndices(t *testing.T) {
	cfg := Config{Suppress: []string{"Pair.key"}}
	if !cfg.suppressed("Pair[3].key") {
		t.Fatal("array element not matched by normalized suppression")
	}
	if cfg.suppressed("Pair.value") {
		t.Fatal("wrong field suppressed")
	}
}
