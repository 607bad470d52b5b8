package tso

import "testing"

// TestRetiredMachineReusesChunks: a machine starts over at its first
// record chunk once recycled, so a warm machine mints records without
// allocating.
func TestRetiredMachineReusesChunks(t *testing.T) {
	m := NewMachine(nil, nil)
	m.EnqueueStore(0, 0x1000, 8, 1, false, false)
	m.DrainSB(0)
	first, _ := m.VolatileValue(0x1000)
	m.recycle()
	if m.newRecord() != first {
		t.Fatal("a recycled machine did not reuse its first record chunk")
	}
}
