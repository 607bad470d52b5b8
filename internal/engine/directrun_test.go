package engine_test

// Property tests for the solo-thread direct-run lease (runner.go
// schedState): running a thread inline without the scheduler handshake must
// be observationally invisible. The reference configuration pays the
// handshake on every operation, so every Result field except the cost
// counters is byte-identical between the default and the reference run,
// across random programs, a real benchmark and every worker count. The
// suite runs under -race in CI, which proves the lease protocol itself is
// data-race free: the leased thread touches scenario state the scheduler
// normally owns.

import (
	"fmt"
	"testing"

	"yashme/internal/engine"
	"yashme/internal/fuzzprog"
	"yashme/internal/pmm"
	"yashme/internal/progs/cceh"
)

// TestDirectRunMatchesHandoff: for random programs and a real benchmark,
// the default run matches the all-handshake reference run at every worker
// count. The lease must actually fire: every case has solo phases
// (single-threaded recovery at minimum), so DirectOps must be positive by
// default. (The subtests keep their checkpoint-on suffix: the default side
// runs with checkpoints on.)
func TestDirectRunMatchesHandoff(t *testing.T) {
	for _, workers := range []int{1, 4} {
		workers := workers
		t.Run(fmt.Sprintf("workers-%d/checkpoint-on", workers), func(t *testing.T) {
			t.Parallel()
			opts := engine.Options{Mode: engine.ModelCheck, Prefix: true, Workers: workers}
			for seed := int64(1); seed <= 8; seed++ {
				mk, _ := fuzzprog.Generate(fuzzprog.Default(), seed)
				name := fmt.Sprintf("fuzz seed %d", seed)
				if def, _ := runReference(t, name, mk, opts); def.Stats.DirectOps == 0 {
					t.Fatalf("%s: lease never fired (DirectOps = 0)", name)
				}
			}
			benchOpts := opts
			benchOpts.MaxCrashPoints = 30
			if def, _ := runReference(t, "cceh", cceh.New(3, nil), benchOpts); def.Stats.DirectOps == 0 {
				t.Fatal("cceh: lease never fired (DirectOps = 0)")
			}
		})
	}
}

// spawnProg is a workload whose sole worker starts a sibling mid-execution
// (pmm.Thread.Go): the scheduler grants the solo lease, then must revoke it
// the moment the second thread becomes runnable.
func spawnProg() pmm.Program {
	var a, b pmm.Addr
	return pmm.Program{
		Name: "spawn",
		Setup: func(h *pmm.Heap) {
			obj := h.AllocStruct("obj", pmm.Layout{{Name: "a", Size: 8}, {Name: "b", Size: 8}})
			a, b = obj.F("a"), obj.F("b")
			h.Init(a, 8, 0)
			h.Init(b, 8, 0)
		},
		Workers: []func(*pmm.Thread){func(t *pmm.Thread) {
			t.Store64(a, 0x1111111111111111)
			t.Go(func(c *pmm.Thread) {
				c.Store64(b, 0x2222222222222222)
				c.CLFlush(b)
			})
			t.Store64(a, 0x3333333333333333)
			t.CLFlush(a)
		}},
		PostCrash: func(t *pmm.Thread) {
			t.Load64(a)
			t.Load64(b)
		},
	}
}

// TestDirectRunLeaseRevocation: a spawn mid-lease revokes it. By default
// the run must count both DirectOps (the solo phases before the spawn and
// during recovery) and Handoffs (the two-thread phase after it), and still
// match the all-handshake reference run exactly.
func TestDirectRunLeaseRevocation(t *testing.T) {
	opts := engine.Options{Mode: engine.ModelCheck, Prefix: true, Workers: 1}
	def, _ := runReference(t, "spawn", spawnProg, opts)
	if def.Stats.DirectOps == 0 {
		t.Error("lease never fired before the spawn (DirectOps = 0)")
	}
	if def.Stats.Handoffs == 0 {
		t.Error("lease was not revoked at the spawn (Handoffs = 0)")
	}
}
