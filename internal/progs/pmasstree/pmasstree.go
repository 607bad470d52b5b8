// Package pmasstree reproduces P-Masstree from the RECIPE suite with the
// three persistency races Yashme reports for it (paper Table 3, bugs
// 17–19):
//
//	#17  root_       in masstree  class (masstree.h)
//	#18  permutation in leafnode  class (masstree.h)
//	#19  next        in leafnode  class (masstree.h)
//
// Masstree leaves store keys in arbitrary slots and encode the sorted order
// plus the live count in a single 64-bit "permutation" word, updated with a
// plain store after the slot is written (the insert's commit point). Leaf
// splits link the new leaf through the plain `next` pointer and may replace
// the plain `root_` pointer — all three are classic update-in-place
// non-atomic stores that recovery reads back.
package pmasstree

import (
	"fmt"

	"yashme/internal/pmm"
)

// LeafWidth is the (downsized) number of key slots per leaf.
const LeafWidth = 4

// ExpectedRaces are the fields the paper reports for P-Masstree.
var ExpectedRaces = []string{
	"leafnode.next",
	"leafnode.permutation",
	"masstree.root_",
}

// permutation encoding: low 8 bits = count, then 4 bits per rank giving the
// slot index in sorted order (like Masstree's permuter).
func permCount(p uint64) int          { return int(p & 0xFF) }
func permSlot(p uint64, rank int) int { return int((p >> (8 + 4*uint(rank))) & 0xF) }
func permInsert(p uint64, rank, slot, count int) uint64 {
	// Shift ranks >= rank up by one nibble and insert slot at rank.
	head := p & ((uint64(1) << (8 + 4*uint(rank))) - 1) & ^uint64(0xFF)
	tail := (p &^ 0xFF) &^ ((uint64(1) << (8 + 4*uint(rank))) - 1)
	return (tail << 4) | head | (uint64(slot) << (8 + 4*uint(rank))) | uint64(count+1)
}

// freeSlot returns a physical slot not referenced by the permutation, or -1.
// Masstree only ever writes into free slots: a slot becomes visible to
// readers solely through the subsequent permutation commit, which is what
// keeps the key/value stores themselves persistency-safe.
func freeSlot(p uint64) int {
	used := 0
	for r := 0; r < permCount(p); r++ {
		used |= 1 << permSlot(p, r)
	}
	for i := 0; i < LeafWidth; i++ {
		if used&(1<<i) == 0 {
			return i
		}
	}
	return -1
}

type leaf struct {
	s pmm.Struct
}

// A leaf's layout is the permutation and next words, then a (key, val)
// pair per slot; the accessors address each field by that position.
const (
	fPermutation = iota
	fNext
	leafHeader
)

func (l leaf) permutation() pmm.Addr { return l.s.Nth(fPermutation) }
func (l leaf) next() pmm.Addr        { return l.s.Nth(fNext) }
func (l leaf) key(i int) pmm.Addr    { return l.s.Nth(leafHeader + 2*i) }
func (l leaf) val(i int) pmm.Addr    { return l.s.Nth(leafHeader + 2*i + 1) }

// keyNames and valNames are the slot field names, keyNames[i] = "key<i>",
// built once.
var keyNames, valNames = slotNames("key"), slotNames("val")

func slotNames(prefix string) []string {
	names := make([]string, LeafWidth)
	for i := range names {
		names[i] = fmt.Sprintf("%s%d", prefix, i)
	}
	return names
}

var leafLayout = func() pmm.Layout {
	l := pmm.Layout{
		{Name: "permutation", Size: 8},
		{Name: "next", Size: 8},
	}
	for i := 0; i < LeafWidth; i++ {
		l = append(l, pmm.FieldDef{Name: keyNames[i], Size: 8})
		l = append(l, pmm.FieldDef{Name: valNames[i], Size: 8})
	}
	return l
}()

// Tree is a P-Masstree instance: a linked list of B+-style leaves reached
// from the root_ pointer (single layer of the trie, which is where all
// three reported bugs live). Leaf pointers read from persistent memory
// resolve through the thread's heap (leafAt).
type Tree struct {
	mt pmm.Struct // "masstree" {root_}
}

// NewTree allocates the masstree struct and an empty root leaf.
func NewTree(h *pmm.Heap) *Tree {
	tr := &Tree{mt: h.AllocStruct("masstree", pmm.Layout{{Name: "root_", Size: 8}})}
	l := h.AllocStruct("leafnode", leafLayout)
	h.Init(tr.mt.F("root_"), 8, uint64(l.Base()))
	return tr
}

// leafAt resolves a leaf pointer loaded from persistent memory through the
// thread's heap, mirroring how recovery code casts a mapped PM offset back
// to a leafnode pointer. ok is false for the null pointer and anything
// that is not a leaf.
func leafAt(t *pmm.Thread, addr uint64) (leaf, bool) {
	if addr == 0 {
		return leaf{}, false
	}
	s, ok := t.Heap().StructAt(pmm.Addr(addr))
	return leaf{s: s}, ok && s.Label() == "leafnode"
}

// newLeafRuntime allocates a leaf during execution; construction-time
// stores are flushed before publication.
func newLeafRuntime(t *pmm.Thread) leaf {
	l := leaf{s: t.Heap().AllocStruct("leafnode", leafLayout)}
	t.Store64(l.permutation(), 0)
	t.Store64(l.next(), 0)
	t.FlushRange(l.s.Base(), l.s.Size())
	t.SFence()
	return l
}

// findLeaf walks the leaf chain to the leaf that should hold key.
func (tr *Tree) findLeaf(t *pmm.Thread, key uint64) (leaf, bool) {
	// Bug #17's observing load: the plain root_ read.
	l, ok := leafAt(t, t.Load64(tr.mt.F("root_")))
	for ok {
		nextAddr := t.Load64(l.next()) // bug #19's observing load
		next, found := leafAt(t, nextAddr)
		if !found {
			return l, true
		}
		// Keys migrate right on split; go right while the next leaf's
		// smallest key is <= key.
		np := t.Load64(next.permutation())
		if permCount(np) == 0 || t.Load64(next.key(permSlot(np, 0))) > key {
			return l, true
		}
		l = next
	}
	return leaf{}, false
}

// Insert writes the key/value into a free slot, then commits it with a
// plain permutation store (bug #18), splitting full leaves (bugs #17/#19).
func (tr *Tree) Insert(t *pmm.Thread, key, value uint64) {
	l, _ := tr.findLeaf(t, key)
	p := t.Load64(l.permutation())
	cnt := permCount(p)
	if cnt >= LeafWidth {
		l = tr.split(t, l, key)
		p = t.Load64(l.permutation())
		cnt = permCount(p)
	}
	slot := freeSlot(p)
	t.Store64(l.key(slot), key)
	t.Store64(l.val(slot), value)
	t.FlushRange(l.key(slot), 16)
	t.SFence()
	// Rank of the new key in sorted order.
	rank := 0
	for ; rank < cnt; rank++ {
		if t.Load64(l.key(permSlot(p, rank))) > key {
			break
		}
	}
	// Bug #18: the plain permutation store is the commit point.
	t.Store64(l.permutation(), permInsert(p, rank, slot, cnt))
	t.CLFlush(l.permutation())
	t.SFence()
}

// split moves the upper half of l into a new right sibling and links it in.
func (tr *Tree) split(t *pmm.Thread, l leaf, key uint64) leaf {
	right := newLeafRuntime(t)
	p := t.Load64(l.permutation())
	half := LeafWidth / 2
	var rp uint64
	for rank := half; rank < permCount(p); rank++ {
		slot := permSlot(p, rank)
		dst := rank - half
		t.Store64(right.key(dst), t.Load64(l.key(slot)))
		t.Store64(right.val(dst), t.Load64(l.val(slot)))
		rp = permInsert(rp, dst, dst, dst)
	}
	t.Store64(right.permutation(), rp)
	t.Store64(right.next(), t.Load64(l.next()))
	t.FlushRange(right.s.Base(), right.s.Size())
	t.SFence()

	// Bug #19: plain next-pointer publication in the already-reachable leaf.
	t.Store64(l.next(), uint64(right.s.Base()))
	t.CLFlush(l.next())
	// Shrink the left leaf: keep the low half of the permutation.
	var lp uint64
	for rank := 0; rank < half; rank++ {
		slot := permSlot(p, rank)
		lp = permInsert(lp, rank, slot, rank)
	}
	t.Store64(l.permutation(), lp)
	t.CLFlush(l.permutation())
	t.SFence()

	// Bug #17: if the split leaf was the root, replace root_ with a plain
	// store (the original swings root_ to a new interior node; the race is
	// on the root_ store itself, which our flat layer preserves).
	if t.Load64(tr.mt.F("root_")) == uint64(l.s.Base()) {
		firstKey := t.Load64(l.key(permSlot(lp, 0)))
		_ = firstKey
		t.Store64(tr.mt.F("root_"), uint64(l.s.Base())) // re-anchor (leftmost leaf stays the entry)
		t.CLFlush(tr.mt.F("root_"))
		t.SFence()
	}

	// Continue the insert in whichever leaf now covers key.
	rFirst := t.Load64(right.key(permSlot(rp, 0)))
	if key >= rFirst {
		return right
	}
	return l
}

// Get looks a key up by walking the leaf chain and the permutation.
func (tr *Tree) Get(t *pmm.Thread, key uint64) (uint64, bool) {
	l, ok := tr.findLeaf(t, key)
	if !ok {
		return 0, false
	}
	p := t.Load64(l.permutation())
	cnt := permCount(p)
	if cnt > LeafWidth {
		cnt = LeafWidth // defensive clamp against torn permutation words
	}
	for rank := 0; rank < cnt; rank++ {
		slot := permSlot(p, rank)
		if t.Load64(l.key(slot)) == key {
			return t.Load64(l.val(slot)), true
		}
	}
	return 0, false
}

// Stats captures what recovery observed.
type Stats struct {
	Found   int
	Missing int
	Wrong   int
}

// ValueFor is the deterministic value the driver inserts for a key.
func ValueFor(key uint64) uint64 { return key<<8 | 0x5A }

// New returns the benchmark driver: insert keys in an order that exercises
// splits and permutation reshuffles; recovery looks every key up.
func New(numKeys int, stats *Stats) func() pmm.Program {
	return func() pmm.Program {
		var tr *Tree
		return pmm.Program{
			Name:  "P-Masstree",
			Setup: func(h *pmm.Heap) { tr = NewTree(h) },
			Workers: []func(*pmm.Thread){func(t *pmm.Thread) {
				for k := uint64(numKeys); k >= 1; k-- {
					tr.Insert(t, k, ValueFor(k))
				}
			}},
			PostCrash: func(t *pmm.Thread) {
				for k := uint64(1); k <= uint64(numKeys); k++ {
					v, ok := tr.Get(t, k)
					if stats == nil {
						continue
					}
					switch {
					case !ok:
						stats.Missing++
					case v != ValueFor(k):
						stats.Wrong++
					default:
						stats.Found++
					}
				}
			},
		}
	}
}
