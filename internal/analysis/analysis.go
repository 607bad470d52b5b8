// Package analysis is the engine's analysis stack: one simulated
// execution, the Yashme detector and, when selected, the XFDetector-style
// cross-failure detector the paper compares against (§1, §8).
//
// Stack is what a scenario owns: the Yashme core model (internal/core) —
// always present, because the engine's image derivation and candidate
// provenance are functions of its execution state — plus an optional
// *xfd.Detector, both fed by one tso.Listener. The selection is a list of
// names checked against a fixed set ("yashme", "xfd"); its order decides
// which report is primary.
//
// The default stack ("yashme" alone) is exactly the old shape: the
// listener IS the core detector, no fan-out, no extra copies, no extra
// signature bytes — byte-identical results and allocation counts. A
// further analysis, such as a missing-flush advisor in the style of Guo et
// al.'s fence-insertion work, would be one more field beside xfd.
package analysis

import (
	"fmt"
	"slices"

	"yashme/internal/core"
	"yashme/internal/pmm"
	"yashme/internal/report"
	"yashme/internal/tso"
	"yashme/internal/vclock"
	"yashme/internal/xfd"
)

// The selectable pass names.
const (
	// Yashme is the flagship pass, the core detector.
	Yashme = "yashme"
	// XFD is the cross-failure baseline (internal/xfd).
	XFD = "xfd"
)

// known is every selectable pass name, sorted, as error messages list it.
var known = []string{XFD, Yashme}

// Check validates a pass selection: every name is a known pass and none is
// selected twice. The engine and the job service both reject a selection
// through it, so the two fail with the same message.
func Check(names []string) error {
	for i, name := range names {
		if !slices.Contains(known, name) {
			return fmt.Errorf("unknown pass %q (have %v)", name, known)
		}
		if slices.Contains(names[:i], name) {
			return fmt.Errorf("pass %q selected twice", name)
		}
	}
	return nil
}

// Stack is one scenario's analysis stack. The Yashme core model is always
// constructed, but its report and race checks only count when "yashme" is
// among the selected names. The xfd detector, when selected, observes the
// same event stream through a fan-out listener and classifies post-crash
// reads through CrashRead.
//
// A scenario may hold its Stack by value and Rebuild it in place; a Stack
// must not be copied once its listener is wired (the fan-out lives inside
// it).
type Stack struct {
	names    []string // selection order, as validated by NewStack
	model    *core.Detector
	yashme   bool          // "yashme" selected: the model doubles as the flagship pass
	xfd      *xfd.Detector // nil unless "xfd" is selected
	listener tso.Listener
	fan      fanout
}

// NewStack validates names (Check) and builds the stack over a core model
// configured by cfg. nil or empty names selects the default, {"yashme"}.
func NewStack(names []string, cfg core.Config) (*Stack, error) {
	if len(names) == 0 {
		names = []string{Yashme}
	}
	if err := Check(names); err != nil {
		return nil, fmt.Errorf("analysis: %w", err)
	}
	var x *xfd.Detector
	if slices.Contains(names, XFD) {
		x = xfd.New(cfg.Benchmark, cfg.Labeler)
	}
	s := new(Stack)
	s.Rebuild(append([]string(nil), names...), core.New(cfg), x)
	return s, nil
}

// Rebuild reassembles s in place around already-built components — the
// checkpoint layer's resume path, where the model and the xfd detector are
// a snapshot's copies or clones of them, or a probe's own handed over.
// names must be the Names of the stack the snapshot was captured from: a
// validated selection that no one mutates, so the rebuilt stack shares it
// instead of copying it. x is nil unless names selects "xfd". It allocates
// nothing.
func (s *Stack) Rebuild(names []string, model *core.Detector, x *xfd.Detector) {
	*s = Stack{names: names, model: model, yashme: slices.Contains(names, Yashme), xfd: x}
	if x == nil {
		s.listener = model
		return
	}
	s.fan = fanout{model: model, xfd: x}
	s.listener = &s.fan
}

// Model returns the always-present Yashme core detector. The engine uses it
// for image derivation and candidate provenance even when "yashme" is not
// selected (its report is simply never surfaced then).
func (s *Stack) Model() *core.Detector { return s.model }

// XFD returns the cross-failure detector, nil unless "xfd" is selected.
func (s *Stack) XFD() *xfd.Detector { return s.xfd }

// Names returns the validated selection order. Shared, read-only.
func (s *Stack) Names() []string { return s.names }

// YashmeSelected reports whether the flagship pass is part of the stack.
func (s *Stack) YashmeSelected() bool { return s.yashme }

// Listener returns the tso.Listener the machine should publish events to:
// the model itself for a yashme-only stack, the fan-out otherwise.
func (s *Stack) Listener() tso.Listener { return s.listener }

// SeedPersisted marks a Setup-time initial write durable in the xfd
// detector (the model derives this itself from the image).
func (s *Stack) SeedPersisted(addr pmm.Addr) {
	if s.xfd != nil {
		s.xfd.SeedPersisted(addr)
	}
}

// CrashRead classifies a post-crash load with the xfd detector. (The
// model's candidate-based checks run separately, against the image's
// provenance — see engine.resolvePostCrashLoad — because they need the
// candidate store set, not just the address.)
func (s *Stack) CrashRead(addr pmm.Addr, guarded bool) {
	if s.xfd != nil {
		s.xfd.CrashRead(addr, guarded)
	}
}

// Reports returns each selected pass's report set in selection order.
func (s *Stack) Reports() []*report.Set {
	out := make([]*report.Set, 0, len(s.names))
	for _, name := range s.names {
		if name == Yashme {
			out = append(out, s.model.Report())
		} else {
			out = append(out, s.xfd.Report())
		}
	}
	return out
}

// PrimaryReport is the first selected pass's report — what engine.Result
// surfaces as Result.Report.
func (s *Stack) PrimaryReport() *report.Set { return s.Reports()[0] }

// AttachUndo arms the xfd detector's undo journal (xfd.Detector.AttachUndo).
// The model's journal belongs to the engine's position log, which attaches
// it itself (core.Detector.AttachUndo).
func (s *Stack) AttachUndo() {
	if s.xfd != nil {
		s.xfd.AttachUndo()
	}
}

// Retire retires the xfd detector (xfd.Detector.Retire). The model is
// retired by its owner (core.Detector.Retire).
func (s *Stack) Retire() {
	if s.xfd != nil {
		s.xfd.Retire()
	}
}

// Mark returns the xfd journal's current position, 0 without xfd.
func (s *Stack) Mark() int {
	if s.xfd == nil {
		return 0
	}
	return s.xfd.Mark()
}

// Rewind rewinds the xfd detector to a mark Mark returned.
func (s *Stack) Rewind(mark int) {
	if s.xfd != nil {
		s.xfd.Rewind(mark)
	}
}

// SetLabeler rebinds every pass's labeler to a resumed scenario's heap.
func (s *Stack) SetLabeler(l func(pmm.Addr) string) {
	s.model.SetLabeler(l)
	if s.xfd != nil {
		s.xfd.SetLabeler(l)
	}
}

// AppendXFDSignature appends the xfd detector's state signature to the
// crash-image memoization buffer. A yashme-only stack appends nothing —
// the default signature bytes are unchanged.
func (s *Stack) AppendXFDSignature(buf []byte) []byte {
	if s.xfd != nil {
		buf = s.xfd.AppendStateSignature(buf)
	}
	return buf
}

// fanout publishes each machine event to the model first (preserving the
// historical event order the Yashme detector saw), then to the xfd
// detector.
type fanout struct {
	model *core.Detector
	xfd   *xfd.Detector
}

var _ tso.Listener = (*fanout)(nil)

func (f *fanout) StoreCommitted(rec *tso.CommittedStore) {
	f.model.StoreCommitted(rec)
	f.xfd.StoreCommitted(rec)
}

func (f *fanout) CLFlushCommitted(tid vclock.TID, addr pmm.Addr, seq vclock.Seq, cv vclock.Stamp) {
	f.model.CLFlushCommitted(tid, addr, seq, cv)
	f.xfd.CLFlushCommitted(tid, addr, seq, cv)
}

func (f *fanout) CLWBBuffered(tid vclock.TID, addr pmm.Addr, cv vclock.Stamp) {
	f.model.CLWBBuffered(tid, addr, cv)
	f.xfd.CLWBBuffered(tid, addr, cv)
}

func (f *fanout) CLWBPersisted(flush tso.FBEntry, fenceTID vclock.TID, fenceSeq vclock.Seq, fenceCV vclock.Stamp) {
	f.model.CLWBPersisted(flush, fenceTID, fenceSeq, fenceCV)
	f.xfd.CLWBPersisted(flush, fenceTID, fenceSeq, fenceCV)
}

func (f *fanout) FenceCommitted(tid vclock.TID, seq vclock.Seq, cv vclock.Stamp) {
	f.model.FenceCommitted(tid, seq, cv)
	f.xfd.FenceCommitted(tid, seq, cv)
}
