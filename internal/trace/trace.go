// Package trace records simulated executions as event logs and builds the
// race witnesses Yashme reports: "the pre-crash execution prefix E+
// combined with the post-crash execution E'" (paper §5.1). The recorder
// sits between the TSO machine and the detector (it implements
// tso.Listener and forwards every event), so the log is exactly the global
// commit order the detector reasoned about.
package trace

import (
	"encoding/json"
	"fmt"
	"strings"

	"yashme/internal/pmm"
	"yashme/internal/tso"
	"yashme/internal/vclock"
)

// Kind classifies a trace event.
type Kind int

// Event kinds, in the vocabulary of the paper's algorithm.
const (
	KStore Kind = iota
	KCLFlush
	KCLWBBuffered
	KCLWBPersisted
	KFence
	KCrash
	KLoad // post-crash observation of a pre-crash store
)

func (k Kind) String() string {
	switch k {
	case KStore:
		return "store"
	case KCLFlush:
		return "clflush"
	case KCLWBBuffered:
		return "clwb"
	case KCLWBPersisted:
		return "clwb-persisted"
	case KFence:
		return "fence"
	case KCrash:
		return "CRASH"
	case KLoad:
		return "read"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Event is one entry of the commit-order log.
type Event struct {
	Exec    int // execution index in the crash stack
	Seq     vclock.Seq
	TID     vclock.TID
	Kind    Kind
	Addr    pmm.Addr
	Size    int
	Val     uint64
	Atomic  bool
	Release bool
	// FromExec/FromSeq identify the store a KLoad observed.
	FromExec int
	FromSeq  vclock.Seq
	// Guarded marks checksum-validation loads.
	Guarded bool
}

// render prints one event with the labeler applied.
func (e Event) render(label func(pmm.Addr) string) string {
	switch e.Kind {
	case KStore:
		attr := ""
		if e.Atomic {
			attr = " atomic"
			if e.Release {
				attr = " atomic-release"
			}
		}
		return fmt.Sprintf("e%d σ%-4d t%d store%s %s = %#x", e.Exec, e.Seq, e.TID, attr, label(e.Addr), e.Val)
	case KCLFlush:
		return fmt.Sprintf("e%d σ%-4d t%d clflush line(%s)", e.Exec, e.Seq, e.TID, label(e.Addr))
	case KCLWBBuffered:
		return fmt.Sprintf("e%d --    t%d clwb line(%s) [buffered]", e.Exec, e.TID, label(e.Addr))
	case KCLWBPersisted:
		return fmt.Sprintf("e%d σ%-4d t%d clwb line(%s) persisted by fence", e.Exec, e.Seq, e.TID, label(e.Addr))
	case KFence:
		return fmt.Sprintf("e%d σ%-4d t%d fence", e.Exec, e.Seq, e.TID)
	case KCrash:
		return fmt.Sprintf("e%d ===== CRASH at σ%d =====", e.Exec, e.Seq)
	case KLoad:
		g := ""
		if e.Guarded {
			g = " [checksum-guarded]"
		}
		return fmt.Sprintf("e%d       t%d read %s -> %#x (from e%d σ%d)%s",
			e.Exec, e.TID, label(e.Addr), e.Val, e.FromExec, e.FromSeq, g)
	}
	return fmt.Sprintf("e%d ? %v", e.Exec, e.Kind)
}

// Recorder captures the event log. It implements tso.Listener and forwards
// every event to Inner (the detector), so installing it is transparent.
type Recorder struct {
	Inner   tso.Listener
	Labeler func(pmm.Addr) string

	events []Event
	exec   int
}

// NewRecorder wraps inner. labeler may be nil (hex addresses).
func NewRecorder(inner tso.Listener, labeler func(pmm.Addr) string) *Recorder {
	if inner == nil {
		inner = tso.NopListener{}
	}
	if labeler == nil {
		labeler = func(a pmm.Addr) string { return fmt.Sprintf("0x%x", uint64(a)) }
	}
	return &Recorder{Inner: inner, Labeler: labeler}
}

// Clone returns a recorder with a copy of the event log and the current
// execution index, and no listener or labeler until its owner sets Inner
// and Labeler. The engine's checkpoint layer clones a probe's log,
// truncated to a crash point, into the point's snapshot, and wires each
// resumed scenario's copy to that scenario's own stack and heap.
func (r *Recorder) Clone() *Recorder {
	return &Recorder{events: append([]Event(nil), r.events...), exec: r.exec}
}

// Len returns the number of events recorded so far: the mark Truncate
// rewinds the log to.
func (r *Recorder) Len() int { return len(r.events) }

// Truncate drops every event after the first n. Before a crash the log is
// append-only, so truncating to the Len taken at a crash point leaves
// exactly the log a run that crashed there would hold.
func (r *Recorder) Truncate(n int) { r.events = r.events[:n] }

// SetExec switches the execution index for subsequent events.
func (r *Recorder) SetExec(i int) { r.exec = i }

// StoreCommitted implements tso.Listener.
func (r *Recorder) StoreCommitted(rec *tso.CommittedStore) {
	r.events = append(r.events, Event{
		Exec: r.exec, Seq: rec.Seq, TID: rec.TID, Kind: KStore,
		Addr: rec.Addr, Size: rec.Size, Val: rec.Val,
		Atomic: rec.Atomic, Release: rec.Release,
	})
	r.Inner.StoreCommitted(rec)
}

// CLFlushCommitted implements tso.Listener.
func (r *Recorder) CLFlushCommitted(tid vclock.TID, addr pmm.Addr, seq vclock.Seq, cv vclock.Stamp) {
	r.events = append(r.events, Event{Exec: r.exec, Seq: seq, TID: tid, Kind: KCLFlush, Addr: addr})
	r.Inner.CLFlushCommitted(tid, addr, seq, cv)
}

// CLWBBuffered implements tso.Listener.
func (r *Recorder) CLWBBuffered(tid vclock.TID, addr pmm.Addr, cv vclock.Stamp) {
	r.events = append(r.events, Event{Exec: r.exec, TID: tid, Kind: KCLWBBuffered, Addr: addr})
	r.Inner.CLWBBuffered(tid, addr, cv)
}

// CLWBPersisted implements tso.Listener.
func (r *Recorder) CLWBPersisted(flush tso.FBEntry, fenceTID vclock.TID, fenceSeq vclock.Seq, fenceCV vclock.Stamp) {
	r.events = append(r.events, Event{Exec: r.exec, Seq: fenceSeq, TID: flush.TID, Kind: KCLWBPersisted, Addr: flush.Addr})
	r.Inner.CLWBPersisted(flush, fenceTID, fenceSeq, fenceCV)
}

// FenceCommitted implements tso.Listener.
func (r *Recorder) FenceCommitted(tid vclock.TID, seq vclock.Seq, cv vclock.Stamp) {
	r.events = append(r.events, Event{Exec: r.exec, Seq: seq, TID: tid, Kind: KFence})
	r.Inner.FenceCommitted(tid, seq, cv)
}

var _ tso.Listener = (*Recorder)(nil)

// Crash records the crash ending the current execution.
func (r *Recorder) Crash(seq vclock.Seq) {
	r.events = append(r.events, Event{Exec: r.exec, Seq: seq, Kind: KCrash})
}

// Observe records a post-crash load reading a pre-crash store.
func (r *Recorder) Observe(tid vclock.TID, addr pmm.Addr, val uint64, fromExec int, fromSeq vclock.Seq, guarded bool) {
	r.events = append(r.events, Event{
		Exec: r.exec, TID: tid, Kind: KLoad, Addr: addr, Val: val,
		FromExec: fromExec, FromSeq: fromSeq, Guarded: guarded,
	})
}

// Witness builds the race witness for a racing store: every pre-crash event
// touching the store's cache line in the store's execution (the relevant
// slice of the derivable prefix E+), the crash, and the post-crash
// observations of the store (E'). This matches §5.1: the report is the
// race-revealing pre-crash prefix combined with the post-crash execution.
func (r *Recorder) Witness(storeExec int, storeSeq vclock.Seq, addr pmm.Addr) string {
	line := pmm.LineOf(addr)
	var b strings.Builder
	fmt.Fprintf(&b, "witness for racing store σ%d on %s:\n", storeSeq, r.Labeler(addr))
	for _, e := range r.events {
		switch e.Kind {
		case KStore, KCLFlush, KCLWBBuffered, KCLWBPersisted:
			if e.Exec == storeExec && pmm.LineOf(e.Addr) == line {
				mark := "  "
				if e.Kind == KStore && e.Seq == storeSeq {
					mark = "* " // the racing store
				}
				b.WriteString(mark + e.render(r.Labeler) + "\n")
			}
		case KCrash:
			if e.Exec == storeExec {
				b.WriteString("  " + e.render(r.Labeler) + "\n")
			}
		case KLoad:
			if e.FromExec == storeExec && e.FromSeq == storeSeq {
				b.WriteString("> " + e.render(r.Labeler) + "\n")
			}
		}
	}
	return b.String()
}

// jsonEvent is the export shape of one event.
type jsonEvent struct {
	Exec    int    `json:"exec"`
	Seq     uint64 `json:"seq,omitempty"`
	TID     int    `json:"tid"`
	Kind    string `json:"kind"`
	Addr    string `json:"addr,omitempty"`
	Size    int    `json:"size,omitempty"`
	Val     uint64 `json:"val,omitempty"`
	Atomic  bool   `json:"atomic,omitempty"`
	Release bool   `json:"release,omitempty"`
	From    string `json:"from,omitempty"`
	Guarded bool   `json:"guarded,omitempty"`
}

// MarshalJSON exports the event log as a JSON array for external tooling
// (trace viewers, diffing runs).
func (r *Recorder) MarshalJSON() ([]byte, error) {
	out := make([]jsonEvent, 0, len(r.events))
	for _, e := range r.events {
		je := jsonEvent{
			Exec: e.Exec, Seq: uint64(e.Seq), TID: int(e.TID), Kind: e.Kind.String(),
			Size: e.Size, Val: e.Val, Atomic: e.Atomic, Release: e.Release, Guarded: e.Guarded,
		}
		if e.Kind != KFence && e.Kind != KCrash {
			je.Addr = r.Labeler(e.Addr)
		}
		if e.Kind == KLoad {
			je.From = fmt.Sprintf("e%d/σ%d", e.FromExec, e.FromSeq)
		}
		out = append(out, je)
	}
	return json.Marshal(out)
}
