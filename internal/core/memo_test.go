package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"unsafe"

	"yashme/internal/pmm"
	"yashme/internal/tso"
)

// TestRecordSizesMatchAccounting pins the footprint constants to the
// structs they account for on 64-bit platforms, so a field added to
// StoreRecord (the verdict memo fills its last padding byte) or flushNode
// cannot silently outgrow Stats.SnapshotBytes.
func TestRecordSizesMatchAccounting(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("the accounting constants describe 64-bit layouts")
	}
	if got := unsafe.Sizeof(StoreRecord{}); got != storeRecordBytes {
		t.Errorf("StoreRecord is %d bytes, storeRecordBytes says %d", got, storeRecordBytes)
	}
	if got := unsafe.Sizeof(flushNode{}); got != flushNodeBytes {
		t.Errorf("flushNode is %d bytes, flushNodeBytes says %d", got, flushNodeBytes)
	}
}

// checkBothReports fails unless the detector holds exactly one harmful and
// one benign race.
func checkBothReports(t *testing.T, d *Detector) {
	t.Helper()
	if n, b := d.Report().Count(), d.Report().BenignCount(); n != 1 || b != 1 {
		t.Fatalf("report counts = %d harmful / %d benign, want 1 / 1", n, b)
	}
}

// One store read unguarded and then guarded races both times, and each
// guardedness files its own report: the memo keeps one "reported" bit per
// guardedness, not one per store.
func TestRaceThenBenignRaceOnOneStore(t *testing.T) {
	r := newRig(true)
	r.m.EnqueueStore(0, addrX, 8, 1, false, false)
	r.m.DrainSB(0)
	e := r.crash()
	s := e.Latest(addrX)
	if !r.d.CandidateRaced(e, s, false) || !r.d.CandidateRaced(e, s, true) {
		t.Fatal("an unflushed store must race for both loads")
	}
	checkBothReports(t, r.d)
}

// The reverse order of TestRaceThenBenignRaceOnOneStore.
func TestBenignThenRaceOnOneStore(t *testing.T) {
	r := newRig(true)
	r.m.EnqueueStore(0, addrX, 8, 1, false, false)
	r.m.DrainSB(0)
	e := r.crash()
	s := e.Latest(addrX)
	if !r.d.CandidateRaced(e, s, true) || !r.d.CandidateRaced(e, s, false) {
		t.Fatal("an unflushed store must race for both loads")
	}
	checkBothReports(t, r.d)
}

// A race found before an observation made the store safe must not stick:
// only the "persisted" verdict is sticky.
func TestRacedVerdictIsNotSticky(t *testing.T) {
	r := newRig(true)
	r.m.EnqueueStore(0, addrX, 8, 1, false, false)
	r.m.EnqueueCLFlush(0, addrX)
	r.m.EnqueueStore(0, addrZ, 8, 2, false, false)
	r.m.DrainSB(0)
	e := r.crash()
	x := e.Latest(addrX)
	if !r.d.CandidateRaced(e, x, false) {
		t.Fatal("a flush outside the observed prefix must not defeat the race")
	}
	r.d.ObserveRead(e, e.Latest(addrZ)) // the prefix now holds the flush
	if r.d.CandidateRaced(e, x, false) {
		t.Fatal("a flush inside the observed prefix must defeat the race")
	}
}

// clearMemo drops every verdict the detector memoized on its records.
func clearMemo(d *Detector) {
	for _, e := range d.execs {
		for i := range e.arena {
			e.arena[i].memo = 0
		}
	}
}

// memoOutcome renders what the memo must not change: the deduplicated
// reports and the read-side state of every execution.
func memoOutcome(d *Detector) string {
	var b bytes.Buffer
	fmt.Fprintf(&b, "%v\n%v\n", d.Report().Races(), d.Report().Benign())
	for _, e := range d.execs {
		fmt.Fprintf(&b, "exec %d cvpre %v lastflush", e.ID, d.arena.At(e.cvpre))
		for l := pmm.Line(0); int(l) < e.lastflush.Len(); l++ {
			if ref := e.lastflush.At(l); ref != 0 {
				fmt.Fprintf(&b, " %d=%v", l, d.arena.At(ref))
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// TestMemoMatchesClearedMemo runs random programs over two executions and
// then the same random sequence of post-crash checks and observations on
// two copies of the detector: one memoizes its verdicts, the other has
// every memo bit cleared before each call. Every verdict, the reports and
// the read-side clocks must agree, under the prefix, baseline and eADR
// variants, with one label suppressed.
func TestMemoMatchesClearedMemo(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	skipped := 0
	for iter := 0; iter < 300; iter++ {
		cfg := Config{Benchmark: "memo", Suppress: []string{"0x1008"}}
		switch iter % 3 {
		case 0:
			cfg.Prefix = true
		case 2:
			cfg.EADR = true
		}
		d := New(cfg)
		for exec := 0; exec < 2; exec++ {
			m := tso.NewMachine(d, d.ClockArena())
			m.SpawnThreads(2)
			for i, n := 0, 8+rng.Intn(40); i < n; i++ {
				applyRewindOp(m, byte(rng.Intn(256)), uint64(rng.Int63()))
			}
			d.EndExecution(m.CurSeq())
		}
		memo, cleared := d.Clone(), d.Clone()
		for call := 0; call < 200; call++ {
			x := rng.Intn(2)
			n := len(d.execs[x].arena)
			if n == 0 {
				continue
			}
			ref, op := StoreRef(1+rng.Intn(n)), rng.Intn(3)
			apply := func(d *Detector) bool {
				e := d.execs[x]
				if op == 2 {
					d.ObserveRead(e, e.ByRef(ref))
					return false
				}
				return d.CandidateRaced(e, e.ByRef(ref), op == 1)
			}
			clearMemo(cleared)
			if got, want := apply(memo), apply(cleared); got != want {
				t.Fatalf("iter %d call %d: exec %d store %d op %d: memoized verdict %v, cleared %v", iter, call, x, ref, op, got, want)
			}
		}
		if got, want := memoOutcome(memo), memoOutcome(cleared); got != want {
			t.Fatalf("iter %d: memoized detector diverged:\n%s\nvs cleared:\n%s", iter, got, want)
		}
		if memo.Report().RawCount > cleared.Report().RawCount {
			t.Fatalf("iter %d: memo added %d reports, more than the %d without it", iter, memo.Report().RawCount, cleared.Report().RawCount)
		}
		skipped += cleared.Report().RawCount - memo.Report().RawCount
		for _, x := range []*Detector{d, memo, cleared} {
			x.Report().Release()
			x.Retire()
		}
	}
	if skipped == 0 {
		t.Fatal("the memo never skipped a repeated report")
	}
}

// denseStoredAddrs is the stored-address walk over every storeTab slot that
// the line walk replaced.
func denseStoredAddrs(e *Execution) []pmm.Addr {
	var out []pmm.Addr
	for a, n := pmm.Addr(0), pmm.Addr(e.storeTab.Len()); a < n; a++ {
		if e.storeTab.At(a) != 0 {
			out = append(out, a)
		}
	}
	return out
}

// TestStoredAddrsMatchDenseScan: the per-line walk (AppendStoredAddrs)
// returns what a scan of every storeTab slot returns — ascending, with
// stores arriving out of order within a line and across lines — after
// every operation of random programs and after rewinding each to a random
// journal mark.
func TestStoredAddrsMatchDenseScan(t *testing.T) {
	r := newRig(true)
	for _, a := range []pmm.Addr{0x1010, 0x1000, 0x2008, 0x1008, 0x2000, 0x1040} {
		r.m.EnqueueStore(0, a, 8, 1, false, false)
	}
	r.m.DrainSB(0)
	want := []pmm.Addr{0x1000, 0x1008, 0x1010, 0x1040, 0x2000, 0x2008}
	if got := r.d.Current().AppendStoredAddrs(nil); !slices.Equal(got, want) {
		t.Fatalf("StoredAddrs = %#x, want %#x", got, want)
	}

	rng := rand.New(rand.NewSource(2))
	for iter := 0; iter < 200; iter++ {
		d := New(Config{Prefix: true, Benchmark: "walk"})
		m := tso.NewMachine(d, d.ClockArena())
		m.SpawnThreads(2)
		j := &Journal{}
		d.AttachUndo(j)
		n := 1 + rng.Intn(maxRewindOps)
		marks := []int{0}
		for i := 0; i < n; i++ {
			applyRewindOp(m, byte(rng.Intn(256)), uint64(i+1))
			marks = append(marks, j.Mark())
			e := d.Current()
			if got, want := e.AppendStoredAddrs(nil), denseStoredAddrs(e); !slices.Equal(got, want) {
				t.Fatalf("iter %d op %d: line walk %#x, dense scan %#x", iter, i, got, want)
			}
		}
		d.Rewind(j, marks[rng.Intn(len(marks))])
		e := d.Current()
		if got, want := e.AppendStoredAddrs(nil), denseStoredAddrs(e); !slices.Equal(got, want) {
			t.Fatalf("iter %d after rewind: line walk %#x, dense scan %#x", iter, got, want)
		}
		d.Retire()
	}
}
