// Package addridx interns persistent-memory addresses as dense table slots.
//
// The simulated heap (internal/pmm) allocates line-aligned objects densely
// from CacheLineSize upward, so the live Addr space is a compact integer
// range: the identity map IS the interning function. Tables here exploit
// that — per-address and per-line state lives in slices indexed directly by
// the address (or line number), growing on demand to the highest address
// touched. Lookups are a bounds check plus an indexed load, and a copy
// (CopyFrom) is a single flat copy, which is what makes the detector and
// checkpoint layers' snapshot clones cheap.
//
// The dense layout relies on the heap staying small (kilobytes, per
// pmm.Heap's working sets); maxSlots guards against a corrupt address
// exploding a table.
package addridx

import (
	"fmt"

	"yashme/internal/pmm"
)

// maxSlots bounds table growth: the simulated heaps are a few kilobytes, so
// an index this large is a corrupt address, not an allocation.
const maxSlots = 1 << 24

// Table is a dense table of per-address state, indexed directly by Addr.
// The zero value is an empty table ready for use. A slot outside the grown
// range reads as T's zero value.
type Table[T any] struct {
	slots []T
}

// grow extends the table so slot i is addressable. Growth is geometric so a
// rising high-water mark costs amortized O(1) reallocations; the spare
// capacity is zeroed by make and only ever exposed through this function, so
// re-slicing into it is safe.
func growSlots[T any](slots []T, i int) []T {
	if i < 0 || i >= maxSlots {
		panic(fmt.Sprintf("addridx: slot %d out of range [0, %d)", i, maxSlots))
	}
	if i < len(slots) {
		return slots
	}
	if i < cap(slots) {
		return slots[:i+1]
	}
	newCap := 2 * cap(slots)
	if newCap < i+1 {
		newCap = i + 1
	}
	if newCap > maxSlots {
		newCap = maxSlots
	}
	n := make([]T, i+1, newCap)
	copy(n, slots)
	return n
}

// At returns the state for a, or T's zero value if never set.
func (t *Table[T]) At(a pmm.Addr) T {
	if int(a) >= len(t.slots) {
		var zero T
		return zero
	}
	return t.slots[a]
}

// Set stores v as the state for a, growing the table as needed.
func (t *Table[T]) Set(a pmm.Addr, v T) {
	t.slots = growSlots(t.slots, int(a))
	t.slots[a] = v
}

// Peek returns a pointer to the slot for a without growing the table, or nil
// if the table has never grown that far. Unlike At it does not copy the slot
// value, so it is the read path for large T. The pointer is invalidated by
// the next growth.
func (t *Table[T]) Peek(a pmm.Addr) *T {
	if int(a) >= len(t.slots) {
		return nil
	}
	return &t.slots[a]
}

// Reserve pre-allocates capacity for addresses [0, n) so subsequent growth
// up to n reslices into zeroed spare capacity instead of reallocating.
// Callers that know the address-space bound up front (a machine seeding an
// image, a journal replay, an image rebuild) skip the geometric-growth
// churn — roughly half the bytes a grow-from-empty fill allocates.
func (t *Table[T]) Reserve(n int) {
	if n <= cap(t.slots) || n > maxSlots {
		return
	}
	s := make([]T, len(t.slots), n)
	copy(s, t.slots)
	t.slots = s
}

// CopyFrom makes t an independent flat copy of src, reusing t's backing
// array when it is large enough: a recycled table absorbs a copy without
// allocating. Slots past the copy that t had grown are cleared, keeping
// spare capacity zero. Slot values are copied shallowly: reference-typed
// state must be immutable or copied by the caller.
func (t *Table[T]) CopyFrom(src *Table[T]) {
	n := len(src.slots)
	if n > cap(t.slots) {
		t.slots = make([]T, n)
	} else if n < len(t.slots) {
		clear(t.slots[n:])
	}
	t.slots = t.slots[:n]
	copy(t.slots, src.slots)
}

// Len returns one past the highest slot ever grown to.
func (t *Table[T]) Len() int { return len(t.slots) }

// Truncate shrinks the grown range to [0, n), zeroing the slots it drops so
// spare capacity keeps reading as the zero value; n >= Len is a no-op. It
// is the inverse of growth for a caller undoing Sets (the detector's
// Rewind).
func (t *Table[T]) Truncate(n int) { t.slots = truncateSlots(t.slots, n) }

// truncateSlots zeroes slots[n:] and reslices to n.
func truncateSlots[T any](slots []T, n int) []T {
	if n >= len(slots) {
		return slots
	}
	clear(slots[n:])
	return slots[:n]
}

// Reset empties the table for reuse, keeping the backing array. Growth
// re-exposes spare capacity, which must read as the zero value; spare
// capacity is never written (see growSlots), so clearing the grown range
// [0, Len) restores that invariant and the length drops to zero. A memset
// of the used range is far cheaper than the allocation a fresh table of the
// same bound would pay.
func (t *Table[T]) Reset() { t.slots = resetSlots(t.slots) }

// resetSlots zeroes the grown range of slots and truncates it to empty.
func resetSlots[T any](slots []T) []T {
	clear(slots)
	return slots[:0]
}

// LineTable is a dense table of per-cache-line state indexed by Line (which
// pmm already numbers densely: Line = Addr / CacheLineSize). The zero value
// is an empty table ready for use.
type LineTable[T any] struct {
	slots []T
}

// At returns the state for l, or T's zero value if never set.
func (t *LineTable[T]) At(l pmm.Line) T {
	if int(l) >= len(t.slots) {
		var zero T
		return zero
	}
	return t.slots[l]
}

// Ptr returns a pointer to the slot for l, growing the table as needed. The
// pointer is invalidated by the next growth.
func (t *LineTable[T]) Ptr(l pmm.Line) *T {
	t.slots = growSlots(t.slots, int(l))
	return &t.slots[l]
}

// CopyFrom makes t a flat copy of src on t's backing array when it is
// large enough; see Table.CopyFrom. Slot values are copied shallowly.
func (t *LineTable[T]) CopyFrom(src *LineTable[T]) {
	n := len(src.slots)
	if n > cap(t.slots) {
		t.slots = make([]T, n)
	} else if n < len(t.slots) {
		clear(t.slots[n:])
	}
	t.slots = t.slots[:n]
	copy(t.slots, src.slots)
}

// Len returns one past the highest slot ever grown to.
func (t *LineTable[T]) Len() int { return len(t.slots) }

// Truncate shrinks the grown range to [0, n); see Table.Truncate.
func (t *LineTable[T]) Truncate(n int) { t.slots = truncateSlots(t.slots, n) }

// Reset empties the table for reuse, keeping the backing array; see
// Table.Reset. Reference-typed slot values are dropped, not recycled.
func (t *LineTable[T]) Reset() { t.slots = resetSlots(t.slots) }
