// Package analysis defines the engine's pluggable analysis-pass
// architecture: one simulated execution, N detectors.
//
// Historically the engine hard-wired the Yashme detector (internal/core):
// the scenario owned a *core.Detector, wired it into the TSO machine as the
// tso.Listener, and called its crash-time checks directly. Every other
// analysis — the XFDetector-style cross-failure detector the paper compares
// against (§1, §8), or a future missing-flush advisor in the style of
// Guo et al.'s fence-insertion work — had to bring its own runner, outside
// the workers / checkpoint / memoization machinery.
//
// This package turns the detector slot into a stack:
//
//   - Pass is the interface an analysis implements: the tso.Listener event
//     hooks (so it observes the same commit-order event stream the Yashme
//     detector reasons about), crash-time read checking, and the
//     undo/Clone/signature/footprint support that lets passes ride the
//     engine's checkpoints and crash-image memoization;
//   - Register/NewStack is the registry the engine constructs passes
//     through ("yashme" is built in; other passes self-register from init
//     functions, linked via yashme/internal/analysis/all);
//   - Stack is what a scenario owns: the Yashme core model — always
//     present, because the engine's image derivation and candidate
//     provenance are functions of its execution state — plus the selected
//     extra passes, fanned out behind one tso.Listener.
//
// The default stack ("yashme" alone) collapses to exactly the old shape:
// the listener IS the core detector, no fan-out, no extra clones, no extra
// signature bytes — byte-identical results and allocation counts.
package analysis

import (
	"fmt"
	"sort"
	"sync"

	"yashme/internal/core"
	"yashme/internal/pmm"
	"yashme/internal/report"
	"yashme/internal/tso"
	"yashme/internal/vclock"
)

// Yashme is the name of the built-in flagship pass (the core detector).
const Yashme = "yashme"

// Config is what a pass factory gets to build one scenario's pass instance.
// It mirrors core.Config: passes that don't care about a knob ignore it.
type Config struct {
	// Prefix enables prefix-based detection-window expansion (Yashme §4.2).
	Prefix bool
	// EADR adapts detection to eADR platforms (§7.5).
	EADR bool
	// Benchmark names the program under test in reports.
	Benchmark string
	// Labeler renders an address as a field label for reports; may be nil.
	Labeler func(pmm.Addr) string
	// Suppress lists normalized field labels whose races are annotated away.
	Suppress []string
	// OwnedClocks disables the core detector's clock interning (the
	// engine's reference configuration); see core.Config.OwnedClocks.
	OwnedClocks bool
}

// Pass is one analysis riding the engine's simulation. Beyond the
// tso.Listener event hooks, a pass must support the engine's scenario
// lifecycle: executions end at crashes (EndExecution), post-crash reads are
// classified (CrashRead), a probe's pre-crash run is rewound to each crash
// point it puts a scenario at (AttachUndo, Mark, Rewind: the core
// detector's undo contract), and — because scenarios resume from shared
// read-only snapshots — the pass must be cloneable and able to serialize
// its decision-relevant state into the crash-image memoization signature.
type Pass interface {
	tso.Listener

	// Name is the registry name the pass was selected under.
	Name() string
	// Report returns the pass's accumulated race reports.
	Report() *report.Set
	// SeedPersisted marks a Setup-time initial write as durable before the
	// first execution starts (initial values are persisted by definition).
	SeedPersisted(addr pmm.Addr)
	// EndExecution tells the pass the current execution crashed at crashSeq
	// and a post-crash execution begins.
	EndExecution(crashSeq vclock.Seq)
	// CrashRead classifies a post-crash load of addr (guarded marks
	// checksum-validation reads); a non-nil race was added to Report.
	CrashRead(addr pmm.Addr, guarded bool) *report.Race
	// AttachUndo empties the pass's own undo journal and arms it: every
	// state mutation from now on is recorded until the next Rewind. The
	// engine arms it for a probe's pre-crash run only, so a pass journals
	// what its pre-crash event hooks change; post-crash state (CrashRead's
	// report) is never journaled.
	AttachUndo()
	// Mark returns the journal's current position.
	Mark() int
	// Rewind undoes the journaled mutations back to mark, newest first,
	// truncates the journal there and disarms it. Afterwards the pass is
	// equivalent to a Clone taken when the journal stood at mark, and a
	// later Rewind to an earlier mark still works: a probe walks its crash
	// points backwards, rewinding its passes to each.
	Rewind(mark int)
	// Retire hands the pass's reusable memory, its undo journal, back to a
	// pool once the scenario or probe owning the pass is dead (never for a
	// pass it handed over). The pass must not be used again.
	Retire()
	// Clone returns an independent deep copy with no journal attached. A
	// model-check probe clones its rewound passes into each crash point's
	// snapshot, and a resume clones the snapshot's again unless it is the
	// snapshot's last.
	Clone() Pass
	// SetLabeler rebinds the report labeler to a resumed scenario's own
	// heap.
	SetLabeler(func(pmm.Addr) string)
	// AppendStateSignature serializes every byte of state the pass's future
	// verdicts depend on, deterministically, for crash-image memoization:
	// two points with equal signatures must be indistinguishable to the
	// pass. (The engine only memoizes when the whole stack agrees.)
	AppendStateSignature(buf []byte) []byte
	// FootprintBytes estimates the retained size of one clone, for
	// Stats.SnapshotBytes accounting.
	FootprintBytes() int64
}

// Factory builds a fresh pass instance for one scenario.
type Factory func(cfg Config) Pass

var (
	regMu    sync.Mutex
	registry = map[string]Factory{}
)

// Register adds a pass factory under name. Pass packages call it from init
// (link them via yashme/internal/analysis/all); a duplicate or reserved
// name panics — the registry is the single source of truth.
func Register(name string, f Factory) {
	if name == "" || f == nil {
		panic("analysis: Register with empty name or nil factory")
	}
	if name == Yashme {
		panic("analysis: " + Yashme + " is built in")
	}
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := registry[name]; dup {
		panic(fmt.Sprintf("analysis: duplicate Register(%q)", name))
	}
	registry[name] = f
}

// Names returns every selectable pass name ("yashme" plus the registered
// passes), sorted.
func Names() []string {
	regMu.Lock()
	defer regMu.Unlock()
	out := make([]string, 0, len(registry)+1)
	out = append(out, Yashme)
	for n := range registry {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Stack is one scenario's analysis stack. The Yashme core model is always
// constructed — the engine's persisted-image derivation and candidate
// provenance are functions of core.Execution state regardless of which
// passes are selected — but its report and race checks only count when
// "yashme" is among the selected names. Extra passes observe the same event
// stream through a fan-out listener and classify post-crash reads through
// CrashRead.
//
// A scenario may hold its Stack by value and Rebuild it in place; a Stack
// must not be copied once its listener is wired (the fan-out lives inside
// it).
type Stack struct {
	names    []string // selection order, as validated by NewStack
	model    *core.Detector
	yashme   bool   // "yashme" selected: the model doubles as the flagship pass
	extras   []Pass // non-model passes, selection order
	listener tso.Listener
	fan      fanout
}

// NewStack validates names against the registry and builds the stack.
// nil or empty names selects the default, {"yashme"}.
func NewStack(names []string, cfg Config) (*Stack, error) {
	if len(names) == 0 {
		names = []string{Yashme}
	}
	s := &Stack{
		names: append([]string(nil), names...),
		model: core.New(core.Config{
			Prefix:      cfg.Prefix,
			EADR:        cfg.EADR,
			Benchmark:   cfg.Benchmark,
			Labeler:     cfg.Labeler,
			Suppress:    cfg.Suppress,
			OwnedClocks: cfg.OwnedClocks,
		}),
	}
	seen := make(map[string]bool, len(names))
	for _, name := range names {
		if seen[name] {
			return nil, fmt.Errorf("analysis: pass %q selected twice", name)
		}
		seen[name] = true
		if name == Yashme {
			s.yashme = true
			continue
		}
		regMu.Lock()
		f, ok := registry[name]
		regMu.Unlock()
		if !ok {
			return nil, fmt.Errorf("analysis: unknown pass %q (have %v)", name, Names())
		}
		s.extras = append(s.extras, f(cfg))
	}
	s.wireListener()
	return s, nil
}

// Rebuild reassembles s in place around already-built components — the
// checkpoint layer's resume path, where the model and the extras are a
// snapshot's copies or clones of them, or a probe's own handed over. names
// must be the Names of the stack the snapshot was captured from: a
// validated selection that no one mutates, so the rebuilt stack shares it
// instead of copying it. It allocates nothing.
func (s *Stack) Rebuild(names []string, model *core.Detector, extras []Pass) {
	*s = Stack{names: names, model: model, extras: extras}
	for _, name := range names {
		if name == Yashme {
			s.yashme = true
		}
	}
	s.wireListener()
}

// wireListener picks the event path: the bare model when no extras are
// selected (the historical zero-overhead shape), the fan-out otherwise.
func (s *Stack) wireListener() {
	if len(s.extras) == 0 {
		s.listener = s.model
		return
	}
	s.fan = fanout{model: s.model, extras: s.extras}
	s.listener = &s.fan
}

// Model returns the always-present Yashme core detector. The engine uses it
// for image derivation and candidate provenance even when "yashme" is not
// selected (its report is simply never surfaced then).
func (s *Stack) Model() *core.Detector { return s.model }

// Extras returns the non-model passes in selection order. Shared, read-only.
func (s *Stack) Extras() []Pass { return s.extras }

// Names returns the validated selection order. Shared, read-only.
func (s *Stack) Names() []string { return s.names }

// YashmeSelected reports whether the flagship pass is part of the stack.
func (s *Stack) YashmeSelected() bool { return s.yashme }

// Listener returns the tso.Listener the machine should publish events to:
// the model itself for a yashme-only stack, the fan-out otherwise.
func (s *Stack) Listener() tso.Listener { return s.listener }

// SeedPersisted marks a Setup-time initial write durable in every pass that
// tracks persistence state (the model derives this itself from the image).
func (s *Stack) SeedPersisted(addr pmm.Addr) {
	for _, p := range s.extras {
		p.SeedPersisted(addr)
	}
}

// EndExecution forwards the crash boundary to the model and every extra.
func (s *Stack) EndExecution(crashSeq vclock.Seq) {
	s.model.EndExecution(crashSeq)
	for _, p := range s.extras {
		p.EndExecution(crashSeq)
	}
}

// CrashRead classifies a post-crash load with every extra pass. (The model's
// candidate-based checks run separately, against the image's provenance —
// see engine.resolvePostCrashLoad — because they need the candidate store
// set, not just the address.)
func (s *Stack) CrashRead(addr pmm.Addr, guarded bool) {
	for _, p := range s.extras {
		p.CrashRead(addr, guarded)
	}
}

// Reports returns each selected pass's report set in selection order.
func (s *Stack) Reports() []*report.Set {
	out := make([]*report.Set, 0, len(s.names))
	ei := 0
	for _, name := range s.names {
		if name == Yashme {
			out = append(out, s.model.Report())
			continue
		}
		out = append(out, s.extras[ei].Report())
		ei++
	}
	return out
}

// PrimaryReport is the first selected pass's report — what engine.Result
// surfaces as Result.Report.
func (s *Stack) PrimaryReport() *report.Set { return s.Reports()[0] }

// AttachUndo arms every extra pass's undo journal (Pass.AttachUndo). The
// model's journal belongs to the engine's position log, which attaches it
// itself (core.Detector.AttachUndo).
func (s *Stack) AttachUndo() {
	for _, p := range s.extras {
		p.AttachUndo()
	}
}

// Retire retires every extra pass (Pass.Retire). The model is retired by
// its owner (core.Detector.Retire).
func (s *Stack) Retire() {
	for _, p := range s.extras {
		p.Retire()
	}
}

// AppendMarks appends every extra pass's journal mark, in selection order,
// to dst: nothing for a yashme-only stack.
func (s *Stack) AppendMarks(dst []int) []int {
	for _, p := range s.extras {
		dst = append(dst, p.Mark())
	}
	return dst
}

// Rewind rewinds extra pass i to marks[i], marks as AppendMarks returned
// them.
func (s *Stack) Rewind(marks []int) {
	for i, p := range s.extras {
		p.Rewind(marks[i])
	}
}

// CloneExtras deep-copies the extra passes (snapshot capture and resume).
// Returns nil for a yashme-only stack.
func CloneExtras(extras []Pass) []Pass {
	if len(extras) == 0 {
		return nil
	}
	out := make([]Pass, len(extras))
	for i, p := range extras {
		out[i] = p.Clone()
	}
	return out
}

// SetLabeler rebinds every pass's labeler to a resumed scenario's heap.
func (s *Stack) SetLabeler(l func(pmm.Addr) string) {
	s.model.SetLabeler(l)
	for _, p := range s.extras {
		p.SetLabeler(l)
	}
}

// AppendExtrasSignature appends every extra pass's state signature, in
// selection order, to the crash-image memoization buffer. A yashme-only
// stack appends nothing — the default signature bytes are unchanged.
func (s *Stack) AppendExtrasSignature(buf []byte) []byte {
	for _, p := range s.extras {
		buf = p.AppendStateSignature(buf)
	}
	return buf
}

// ExtrasFootprintBytes sums the extras' estimated clone sizes.
func ExtrasFootprintBytes(extras []Pass) int64 {
	var n int64
	for _, p := range extras {
		n += p.FootprintBytes()
	}
	return n
}

// fanout publishes each machine event to the model first (preserving the
// historical event order the Yashme detector saw), then to every extra pass
// in selection order.
type fanout struct {
	model  *core.Detector
	extras []Pass
}

var _ tso.Listener = (*fanout)(nil)

func (f *fanout) StoreCommitted(rec *tso.CommittedStore) {
	f.model.StoreCommitted(rec)
	for _, p := range f.extras {
		p.StoreCommitted(rec)
	}
}

func (f *fanout) CLFlushCommitted(tid vclock.TID, addr pmm.Addr, seq vclock.Seq, cv vclock.Stamp) {
	f.model.CLFlushCommitted(tid, addr, seq, cv)
	for _, p := range f.extras {
		p.CLFlushCommitted(tid, addr, seq, cv)
	}
}

func (f *fanout) CLWBBuffered(tid vclock.TID, addr pmm.Addr, cv vclock.Stamp) {
	f.model.CLWBBuffered(tid, addr, cv)
	for _, p := range f.extras {
		p.CLWBBuffered(tid, addr, cv)
	}
}

func (f *fanout) CLWBPersisted(flush tso.FBEntry, fenceTID vclock.TID, fenceSeq vclock.Seq, fenceCV vclock.Stamp) {
	f.model.CLWBPersisted(flush, fenceTID, fenceSeq, fenceCV)
	for _, p := range f.extras {
		p.CLWBPersisted(flush, fenceTID, fenceSeq, fenceCV)
	}
}

func (f *fanout) FenceCommitted(tid vclock.TID, seq vclock.Seq, cv vclock.Stamp) {
	f.model.FenceCommitted(tid, seq, cv)
	for _, p := range f.extras {
		p.FenceCommitted(tid, seq, cv)
	}
}
