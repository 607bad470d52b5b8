package trace

import (
	"encoding/json"
	"strings"
	"testing"

	"yashme/internal/pmm"
	"yashme/internal/tso"
	"yashme/internal/vclock"
)

// render prints the whole log, one event a line.
func render(r *Recorder) string {
	var b strings.Builder
	for _, e := range r.events {
		b.WriteString(e.render(r.Labeler))
		b.WriteByte('\n')
	}
	return b.String()
}

func TestRecorderForwardsAndRecords(t *testing.T) {
	r := NewRecorder(nil, nil)
	m := tso.NewMachine(r, nil)
	m.EnqueueStore(0, 0x100, 8, 42, false, false)
	m.EnqueueCLFlush(0, 0x100)
	m.EnqueueCLWB(0, 0x140)
	m.EnqueueSFence(0)
	m.DrainSB(0)

	kinds := map[Kind]int{}
	for _, e := range r.events {
		kinds[e.Kind]++
	}
	if kinds[KStore] != 1 || kinds[KCLFlush] != 1 || kinds[KCLWBBuffered] != 1 ||
		kinds[KCLWBPersisted] != 1 || kinds[KFence] != 1 {
		t.Fatalf("event kinds = %v", kinds)
	}
}

func TestRecorderUsesLabeler(t *testing.T) {
	h := pmm.NewHeap()
	s := h.AllocStruct("obj", pmm.Layout{{Name: "x", Size: 8}})
	r := NewRecorder(nil, h.LabelFor)
	m := tso.NewMachine(r, nil)
	m.EnqueueStore(0, s.F("x"), 8, 7, false, false)
	m.DrainSB(0)
	out := render(r)
	if !strings.Contains(out, "obj.x") {
		t.Fatalf("render missing field label:\n%s", out)
	}
}

func TestCrashAndObserveEvents(t *testing.T) {
	r := NewRecorder(nil, nil)
	r.SetExec(0)
	m := tso.NewMachine(r, nil)
	m.EnqueueStore(0, 0x100, 8, 1, false, false)
	m.DrainSB(0)
	r.Crash(m.CurSeq())
	r.SetExec(1)
	r.Observe(0, 0x100, 1, 0, 1, false)

	out := render(r)
	if !strings.Contains(out, "CRASH") {
		t.Fatalf("missing crash marker:\n%s", out)
	}
	if !strings.Contains(out, "read 0x100 -> 0x1 (from e0 σ1)") {
		t.Fatalf("missing observation:\n%s", out)
	}
}

func TestWitnessSelectsLineEvents(t *testing.T) {
	r := NewRecorder(nil, nil)
	m := tso.NewMachine(r, nil)
	m.EnqueueStore(0, 0x100, 8, 1, false, false)  // same line as racing store
	m.EnqueueStore(0, 0x108, 8, 2, false, false)  // the racing store (σ2)
	m.EnqueueStore(0, 0x4000, 8, 3, false, false) // unrelated line
	m.EnqueueCLFlush(0, 0x100)
	m.DrainSB(0)
	r.Crash(m.CurSeq())
	r.SetExec(1)
	r.Observe(0, 0x108, 2, 0, 2, false)

	w := r.Witness(0, 2, 0x108)
	if !strings.Contains(w, "* ") {
		t.Fatalf("racing store not marked:\n%s", w)
	}
	if strings.Contains(w, "0x4000") {
		t.Fatalf("unrelated line leaked into witness:\n%s", w)
	}
	if !strings.Contains(w, "clflush") || !strings.Contains(w, "CRASH") || !strings.Contains(w, "> ") {
		t.Fatalf("witness missing flush/crash/observation:\n%s", w)
	}
}

func TestGuardedObservationMarked(t *testing.T) {
	r := NewRecorder(nil, nil)
	r.Observe(0, 0x100, 5, 0, 1, true)
	if !strings.Contains(render(r), "checksum-guarded") {
		t.Fatal("guarded observation not marked")
	}
}

func TestKindStrings(t *testing.T) {
	for k, want := range map[Kind]string{
		KStore: "store", KCLFlush: "clflush", KCLWBBuffered: "clwb",
		KCLWBPersisted: "clwb-persisted", KFence: "fence", KCrash: "CRASH", KLoad: "read",
	} {
		if k.String() != want {
			t.Errorf("Kind(%d).String() = %q, want %q", int(k), k.String(), want)
		}
	}
	if Kind(99).String() == "" {
		t.Error("unknown kind renders empty")
	}
}

func TestAtomicReleaseRendering(t *testing.T) {
	r := NewRecorder(nil, nil)
	m := tso.NewMachine(r, nil)
	m.EnqueueStore(0, 0x100, 8, 1, true, true)
	m.DrainSB(0)
	if !strings.Contains(render(r), "atomic-release") {
		t.Fatalf("release store not annotated:\n%s", render(r))
	}
}

func TestRecorderForwardsToInner(t *testing.T) {
	var got int
	inner := countingListener{&got}
	r := NewRecorder(inner, nil)
	m := tso.NewMachine(r, nil)
	m.EnqueueStore(0, 0x100, 8, 1, false, false)
	m.DrainSB(0)
	if got != 1 {
		t.Fatalf("inner listener saw %d stores, want 1", got)
	}
}

type countingListener struct{ stores *int }

func (c countingListener) StoreCommitted(*tso.CommittedStore)                              { *c.stores++ }
func (c countingListener) CLFlushCommitted(vclock.TID, pmm.Addr, vclock.Seq, vclock.Stamp) {}
func (c countingListener) CLWBBuffered(vclock.TID, pmm.Addr, vclock.Stamp)                 {}
func (c countingListener) CLWBPersisted(tso.FBEntry, vclock.TID, vclock.Seq, vclock.Stamp) {}
func (c countingListener) FenceCommitted(vclock.TID, vclock.Seq, vclock.Stamp)             {}

func TestJSONExport(t *testing.T) {
	r := NewRecorder(nil, nil)
	m := tso.NewMachine(r, nil)
	m.EnqueueStore(0, 0x100, 8, 42, true, true)
	m.EnqueueCLFlush(0, 0x100)
	m.DrainSB(0)
	r.Crash(m.CurSeq())
	r.SetExec(1)
	r.Observe(0, 0x100, 42, 0, 1, false)

	data, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	var events []map[string]interface{}
	if err := json.Unmarshal(data, &events); err != nil {
		t.Fatal(err)
	}
	if len(events) != 4 {
		t.Fatalf("exported %d events, want 4", len(events))
	}
	if events[0]["kind"] != "store" || events[0]["atomic"] != true {
		t.Fatalf("first event = %v", events[0])
	}
	if events[3]["kind"] != "read" || events[3]["from"] != "e0/σ1" {
		t.Fatalf("load event = %v", events[3])
	}
}

// Truncating to a Len taken earlier leaves exactly the log recorded up to
// then, and a Clone copies the log without its listener or labeler.
func TestTruncateRewindsToLen(t *testing.T) {
	r := NewRecorder(nil, nil)
	m := tso.NewMachine(r, nil)
	m.EnqueueStore(0, 0x100, 8, 1, false, false)
	m.EnqueueCLFlush(0, 0x100)
	m.DrainSB(0)
	n, want := r.Len(), render(r)
	m.EnqueueStore(0, 0x108, 8, 2, false, false)
	m.EnqueueSFence(0)
	m.DrainSB(0)
	if r.Len() == n {
		t.Fatal("no events recorded after the mark")
	}
	r.Truncate(n)
	if got := render(r); got != want {
		t.Fatalf("truncated log:\n%s\nwant:\n%s", got, want)
	}
	c := r.Clone()
	if c.Inner != nil || c.Labeler != nil || c.Len() != n {
		t.Fatalf("clone: inner %v, labeler set %v, %d events (want %d)", c.Inner, c.Labeler != nil, c.Len(), n)
	}
	c.Labeler = r.Labeler
	if got := render(c); got != want {
		t.Fatalf("cloned log:\n%s\nwant:\n%s", got, want)
	}
}
