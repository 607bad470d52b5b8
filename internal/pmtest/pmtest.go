// Package pmtest implements a PMTest-style rule checker (Liu et al.,
// ASPLOS '19), the annotation-driven baseline of the paper's related work
// (§8): "PMTest lets developers annotate a program with checking rules to
// infer the persistency status of writes and ordering constraints between
// writes."
//
// Two rules are supported, mirroring the original's isPersist and
// isOrderedBefore:
//
//   - AssertPersisted(addr): every store to addr so far must be durably
//     persisted at this program point;
//   - AssertOrderedBefore(a, b): the latest store to a must be guaranteed
//     to persist no later than the latest store to b (a was persisted
//     before b was even written, or both sit on one cache line with a's
//     store committed first — the coherence argument CCEH relies on).
//
// Like PMTest (and unlike Yashme), the checker validates the rules the
// developer wrote against the current execution only: it finds
// missing-flush and misordering bugs, but has no concept of a non-atomic
// store being torn — annotate-and-check "fundamentally cannot detect
// persistency races" (§1).
package pmtest

import (
	"fmt"

	"yashme/internal/pmm"
	"yashme/internal/tso"
	"yashme/internal/vclock"
)

// Violation is one failed rule.
type Violation struct {
	Rule string
	Line string // the rule's textual description
}

func (v Violation) String() string { return v.Rule + ": " + v.Line }

// state tracks one address's persistence, like xfd but with commit order
// retained for ordering rules.
type state struct {
	seq       vclock.Seq
	persisted bool
	// persistSeq is the commit order position at which persistence was
	// guaranteed (flush completion), 0 if not persisted.
	persistSeq vclock.Seq
}

// Checker validates PMTest-style rules against a TSO event stream. It
// implements tso.Listener.
type Checker struct {
	labeler    func(pmm.Addr) string
	stores     map[pmm.Addr]*state
	pendingWB  map[vclock.TID][]pmm.Addr
	violations []Violation
}

// New returns an empty checker. labeler may be nil.
func New(labeler func(pmm.Addr) string) *Checker {
	if labeler == nil {
		labeler = func(a pmm.Addr) string { return fmt.Sprintf("0x%x", uint64(a)) }
	}
	return &Checker{
		labeler:   labeler,
		stores:    make(map[pmm.Addr]*state),
		pendingWB: make(map[vclock.TID][]pmm.Addr),
	}
}

// Violations returns the failed rules in detection order.
func (c *Checker) Violations() []Violation { return c.violations }

// StoreCommitted implements tso.Listener.
func (c *Checker) StoreCommitted(rec *tso.CommittedStore) {
	c.stores[rec.Addr] = &state{seq: rec.Seq}
}

// CLFlushCommitted implements tso.Listener.
func (c *Checker) CLFlushCommitted(_ vclock.TID, addr pmm.Addr, seq vclock.Seq, _ vclock.Stamp) {
	c.persistLine(addr, seq)
}

// CLWBBuffered implements tso.Listener.
func (c *Checker) CLWBBuffered(tid vclock.TID, addr pmm.Addr, _ vclock.Stamp) {
	c.pendingWB[tid] = append(c.pendingWB[tid], addr)
}

// CLWBPersisted implements tso.Listener.
func (c *Checker) CLWBPersisted(flush tso.FBEntry, _ vclock.TID, fenceSeq vclock.Seq, _ vclock.Stamp) {
	c.persistLine(flush.Addr, fenceSeq)
}

// FenceCommitted implements tso.Listener.
func (c *Checker) FenceCommitted(tid vclock.TID, seq vclock.Seq, _ vclock.Stamp) {
	for _, a := range c.pendingWB[tid] {
		c.persistLine(a, seq)
	}
	c.pendingWB[tid] = nil
}

func (c *Checker) persistLine(addr pmm.Addr, at vclock.Seq) {
	line := pmm.LineOf(addr)
	for a, s := range c.stores {
		if pmm.LineOf(a) == line && !s.persisted {
			s.persisted = true
			s.persistSeq = at
		}
	}
}

var _ tso.Listener = (*Checker)(nil)

// AssertPersisted checks the isPersist rule at the current point.
func (c *Checker) AssertPersisted(addr pmm.Addr) bool {
	s, ok := c.stores[addr]
	if !ok {
		return true // never written: vacuously persisted
	}
	if s.persisted {
		return true
	}
	c.violations = append(c.violations, Violation{
		Rule: "isPersist",
		Line: fmt.Sprintf("store to %s (σ%d) is not persisted", c.labeler(addr), s.seq),
	})
	return false
}

// AssertOrderedBefore checks the isOrderedBefore rule: the latest store to
// a must be guaranteed durable no later than the latest store to b.
func (c *Checker) AssertOrderedBefore(a, b pmm.Addr) bool {
	sa, okA := c.stores[a]
	sb, okB := c.stores[b]
	if !okA || !okB {
		return true
	}
	// Same cache line + a committed first: coherence orders persistence.
	if pmm.SameLine(a, b) && sa.seq < sb.seq {
		return true
	}
	// Otherwise a must have been persisted before b was written.
	if sa.persisted && sa.persistSeq < sb.seq {
		return true
	}
	c.violations = append(c.violations, Violation{
		Rule: "isOrderedBefore",
		Line: fmt.Sprintf("%s (σ%d) not guaranteed to persist before %s (σ%d)",
			c.labeler(a), sa.seq, c.labeler(b), sb.seq),
	})
	return false
}

// --- harness ---

// Annotated is a workload with embedded rule checks: the function receives
// the thread and the checker and calls Assert* at the points the developer
// annotated.
type Annotated func(t *pmm.Thread, c *Checker)

// Check runs an annotated single-threaded workload to completion and
// returns the rule violations. PMTest checks the given execution; there is
// no crash exploration at all — the rules themselves encode what should
// have been ordered or persisted.
func Check(setup func(h *pmm.Heap), body Annotated) []Violation {
	heap := pmm.NewHeap()
	if setup != nil {
		setup(heap)
	}
	checker := New(heap.LabelFor)
	ops := &seqOps{m: tso.NewMachine(checker, nil)}
	for _, w := range heap.InitWrites() {
		ops.m.SeedMemory(w.Addr, w.Size, w.Val)
	}
	body(pmm.NewThread(ops, heap), checker)
	return checker.Violations()
}

// seqOps executes thread operations directly (sequential, eager commit).
type seqOps struct {
	m       *tso.Machine
	guarded bool
}

var _ pmm.Ops = (*seqOps)(nil)

func (o *seqOps) TID() int { return 0 }
func (o *seqOps) Store(a pmm.Addr, size int, v uint64, atomic, release bool) {
	o.m.EnqueueStore(0, a, size, v, atomic, release)
	o.m.DrainSB(0)
}
func (o *seqOps) Load(a pmm.Addr, size int, atomic, acquire bool) uint64 {
	v, _ := o.m.Load(0, a, size, acquire)
	return v
}
func (o *seqOps) RMW(a pmm.Addr, size int, f func(uint64) (uint64, bool)) (uint64, bool) {
	return o.m.RMW(0, a, size, f)
}
func (o *seqOps) CLFlush(a pmm.Addr) {
	o.m.EnqueueCLFlush(0, a)
	o.m.DrainSB(0)
}
func (o *seqOps) CLWB(a pmm.Addr) {
	o.m.EnqueueCLWB(0, a)
	o.m.DrainSB(0)
}
func (o *seqOps) SFence() {
	o.m.EnqueueSFence(0)
	o.m.DrainSB(0)
}
func (o *seqOps) MFence()                 { o.m.MFence(0) }
func (o *seqOps) Yield()                  {}
func (o *seqOps) SetChecksumGuard(b bool) { o.guarded = b }
