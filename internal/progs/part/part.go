// Package part reproduces P-ART, the persistent Adaptive Radix Tree from
// the RECIPE suite, with the seven persistency races Yashme reports for it
// (paper Table 3, bugs 9–15):
//
//	#9   compactCount        in N class (N.h)
//	#10  count               in N class (N.h)
//	#11  deletitionListCount in DeletionList class (Epoche.h)
//	#12  headDeletionList    in DeletionList class (Epoche.h)
//	#13  nodesCount          in LabelDelete struct (Epoche.h)
//	#14  added               in DeletionList class (Epoche.h)
//	#15  thresholdCounter    in DeletionList class (Epoche.h)
//
// The tree is a two-level radix over the low 16 bits of the key: each level
// is an adaptive node (N4, grown to N16 on overflow) holding compact
// (key-byte, child) slots. P-ART stores its children and key bytes through
// std::atomic (it is a lock-free design), but the node occupancy counters
// compactCount/count are plain uint16 fields updated in place — torn counts
// let recovery scan uninitialized slots. The Epoche-based memory
// reclamation (DeletionList, LabelDelete) belongs to an allocator that
// RECIPE's authors acknowledge is not crash consistent at all: none of its
// fields are flushed (bugs 11–15; the authors declined to fix those because
// the allocator needs replacing wholesale, §7.4). Note "deletitionList" is
// the original source's spelling.
package part

import (
	"fmt"

	"yashme/internal/pmm"
)

// Node capacities of the two reproduced node types.
const (
	N4Cap  = 4
	N16Cap = 16
)

// EmptyKey marks an unused slot's key byte.
const EmptyKey = uint64(0xFF)

// ExpectedRaces are the fields the paper reports for P-ART.
var ExpectedRaces = []string{
	"DeletionList.added",
	"DeletionList.deletitionListCount",
	"DeletionList.headDeletionList",
	"DeletionList.thresholdCounter",
	"LabelDelete.nodesCount",
	"N.compactCount",
	"N.count",
}

// node is one radix node (N4 or N16): compact slots of (key byte, child).
// A child is either another node or a leaf, resolved through the heap.
type node struct {
	s   pmm.Struct
	cap int
}

func (n node) base() uint64 { return uint64(n.s.Base()) }

// A node's layout is nodeHeader header fields, then cap key bytes, then cap
// child pointers; the accessors address each field by that position.
const (
	fCompactCount = iota
	fCount
	nodeHeader = 3
)

func (n node) compactCount() pmm.Addr { return n.s.Nth(fCompactCount) }
func (n node) count() pmm.Addr        { return n.s.Nth(fCount) }

func (n node) key(i int) pmm.Addr   { return n.s.Nth(nodeHeader + i) }
func (n node) child(i int) pmm.Addr { return n.s.Nth(nodeHeader + n.cap + i) }

// keyNames and childNames are the slot field names, keyNames[i] = "key<i>",
// built once for the largest node.
var keyNames, childNames = slotNames("key", N16Cap), slotNames("child", N16Cap)

func slotNames(prefix string, n int) []string {
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("%s%d", prefix, i)
	}
	return names
}

// nodeLayouts holds the layout of each node capacity, built once.
var nodeLayouts = map[int]pmm.Layout{N4Cap: nodeLayout(N4Cap), N16Cap: nodeLayout(N16Cap)}

func nodeLayout(cap int) pmm.Layout {
	l := pmm.Layout{
		{Name: "compactCount", Size: 2},
		{Name: "count", Size: 2},
		{Name: "nodeType", Size: 2},
	}
	for i := 0; i < cap; i++ {
		l = append(l, pmm.FieldDef{Name: keyNames[i], Size: 1})
	}
	for i := 0; i < cap; i++ {
		l = append(l, pmm.FieldDef{Name: childNames[i], Size: 8})
	}
	return l
}

var leafLayout = pmm.Layout{{Name: "value", Size: 8}}

// Tree is a two-level P-ART instance plus the Epoche deletion list. Child,
// leaf and label pointers read from persistent memory resolve through the
// thread's heap (nodeAt, leafAt, labelAt). root is the one Go-side handle
// the tree updates: a root growth replaces it, and recovery reads the root
// Setup allocated, so a driver that recovers never grows the root (the
// drivers fill two level-0 subtrees of an N4 root).
type Tree struct {
	root node
	// Epoche reclamation state.
	dl pmm.Struct // "DeletionList"
}

// Depth is the number of radix levels (key bytes consumed).
const Depth = 2

// byteAt extracts the radix byte for a level (most significant first).
func byteAt(key uint64, level int) uint8 {
	shift := uint(8 * (Depth - 1 - level))
	return uint8(key >> shift)
}

// NewTree allocates an empty tree with an N4 root and the deletion list.
func NewTree(h *pmm.Heap) *Tree {
	tr := &Tree{root: allocNodeInit(h, N4Cap)}
	tr.dl = h.AllocStruct("DeletionList", pmm.Layout{
		{Name: "deletitionListCount", Size: 8},
		{Name: "headDeletionList", Size: 8},
		{Name: "added", Size: 1},
		{Name: "thresholdCounter", Size: 8},
	})
	return tr
}

func allocNodeInit(h *pmm.Heap, cap int) node {
	n := node{s: h.AllocStruct("N", nodeLayouts[cap]), cap: cap}
	for i := 0; i < cap; i++ {
		h.Init(n.key(i), 1, EmptyKey)
	}
	return n
}

// allocNodeRuntime allocates a node during execution with its slots
// initialized and flushed before publication (persistency-safe).
func allocNodeRuntime(t *pmm.Thread, cap int) node {
	n := node{s: t.Heap().AllocStruct("N", nodeLayouts[cap]), cap: cap}
	for i := 0; i < cap; i++ {
		t.StoreAtomic(n.key(i), 1, EmptyKey)
	}
	t.FlushRange(n.s.Base(), n.s.Size())
	t.SFence()
	return n
}

// allocLeaf allocates and persists a leaf before publication.
func allocLeaf(t *pmm.Thread, value uint64) uint64 {
	l := t.Heap().AllocStruct("leaf", leafLayout)
	t.StoreAtomic(l.F("value"), 8, value)
	t.Persist(l.Base(), l.Size())
	return uint64(l.Base())
}

// structAt resolves a pointer read from persistent memory to the struct
// labelled label allocated there, through the thread's heap — as recovery
// code, which runs in a fresh process, casts a persisted pointer.
func structAt(t *pmm.Thread, addr uint64, label string) (pmm.Struct, bool) {
	st, ok := t.Heap().StructAt(pmm.Addr(addr))
	return st, ok && st.Label() == label
}

// nodeAt resolves a child pointer to a node handle. A node's capacity is
// encoded in its field count: 3 header fields plus a key byte and a child
// per slot.
func nodeAt(t *pmm.Thread, addr uint64) (node, bool) {
	st, ok := structAt(t, addr, "N")
	if !ok {
		return node{}, false
	}
	return node{s: st, cap: (st.FieldCount() - 3) / 2}, true
}

// leafAt resolves a leaf pointer.
func leafAt(t *pmm.Thread, addr uint64) (pmm.Struct, bool) { return structAt(t, addr, "leaf") }

// labelAt resolves a LabelDelete pointer.
func labelAt(t *pmm.Thread, addr uint64) (pmm.Struct, bool) {
	return structAt(t, addr, "LabelDelete")
}

// findSlot scans a node's compact slots for a key byte.
func (tr *Tree) findSlot(t *pmm.Thread, n node, kb uint8) int {
	cc := t.Load16(n.compactCount())
	limit := int(cc)
	if limit > n.cap {
		limit = n.cap // defensive clamp against torn counts
	}
	for i := 0; i < limit; i++ {
		if t.LoadAcquire(n.key(i), 1) == uint64(kb) {
			return i
		}
	}
	return -1
}

func (tr *Tree) childAt(t *pmm.Thread, n node, slot int) uint64 {
	return t.LoadAcquire(n.child(slot), 8)
}

// setChild publishes a child pointer atomically and persists it.
func (tr *Tree) setChild(t *pmm.Thread, n node, slot int, child uint64) {
	f := n.child(slot)
	t.StoreAtomic(f, 8, child)
	t.Persist(f, 8)
}

// addSlot claims the next compact slot for a key byte — bugs #9/#10: the
// occupancy counters are plain stores.
func (tr *Tree) addSlot(t *pmm.Thread, n node, kb uint8, child uint64) bool {
	cc := t.Load16(n.compactCount())
	if int(cc) >= n.cap {
		return false
	}
	slot := int(cc)
	t.StoreAtomic(n.key(slot), 1, uint64(kb))
	t.StoreAtomic(n.child(slot), 8, child)
	// Bug #9: plain compactCount update commits the slot allocation.
	t.Store16(n.compactCount(), cc+1)
	// Bug #10: plain count update.
	t.Store16(n.count(), t.Load16(n.count())+1)
	t.FlushRange(n.s.Base(), n.s.Size())
	t.SFence()
	return true
}

// grow copies an overflowing node into a fresh N16 (construction-time
// stores, flushed before the swap) and retires the old node through the
// Epoche deletion list. Returns the replacement.
func (tr *Tree) grow(t *pmm.Thread, old node) node {
	big := allocNodeRuntime(t, N16Cap)
	cc := t.Load16(old.compactCount())
	live := uint16(0)
	for i := 0; i < int(cc) && i < old.cap; i++ {
		k := t.LoadAcquire(old.key(i), 1)
		if k == EmptyKey {
			continue
		}
		t.StoreAtomic(big.key(int(live)), 1, k)
		t.StoreAtomic(big.child(int(live)), 8,
			t.LoadAcquire(old.child(i), 8))
		live++
	}
	t.StoreAtomic(big.compactCount(), 2, uint64(live))
	t.StoreAtomic(big.count(), 2, uint64(live))
	t.FlushRange(big.s.Base(), big.s.Size())
	t.SFence()
	tr.retire(t, old)
	return big
}

// retire adds a node to the Epoche deletion list — bugs #11–#15: every
// store below is plain and never flushed (the allocator is not crash
// consistent).
func (tr *Tree) retire(t *pmm.Thread, n node) {
	ld := t.Heap().AllocStruct("LabelDelete", pmm.Layout{
		{Name: "nodesCount", Size: 8},
		{Name: "node0", Size: 8},
	})
	// Bug #13: plain nodesCount in the label.
	t.Store64(ld.F("nodesCount"), 1)
	t.Store64(ld.F("node0"), n.base())
	// Bug #12: plain headDeletionList publication.
	t.Store64(tr.dl.F("headDeletionList"), uint64(ld.Base()))
	// Bug #11: plain deletitionListCount.
	t.Store64(tr.dl.F("deletitionListCount"), t.Load64(tr.dl.F("deletitionListCount"))+1)
	// Bug #14: plain byte-size 'added' flag (store inventing makes even
	// byte-size fields unsafe, §7.2).
	t.Store8(tr.dl.F("added"), 1)
	// Bug #15: plain thresholdCounter.
	t.Store64(tr.dl.F("thresholdCounter"), t.Load64(tr.dl.F("thresholdCounter"))+1)
}

// Insert maps key (low Depth bytes) to a value, descending the radix levels
// and growing nodes as needed.
func (tr *Tree) Insert(t *pmm.Thread, key uint64, value uint64) {
	tr.insertAt(t, tr.root, node{}, -1, 0, key, value)
}

// insertAt inserts below n (reached from parent at parentSlot; the root has
// parentSlot -1 and no parent).
func (tr *Tree) insertAt(t *pmm.Thread, n node, parent node, parentSlot int, level int, key, value uint64) {
	kb := byteAt(key, level)
	slot := tr.findSlot(t, n, kb)
	if level == Depth-1 {
		// Leaf level: install or replace the value leaf.
		if slot >= 0 {
			leafAddr := tr.childAt(t, n, slot)
			if l, ok := leafAt(t, leafAddr); ok {
				t.StoreAtomic(l.F("value"), 8, value)
				t.Persist(l.F("value"), 8)
				return
			}
		}
		leaf := allocLeaf(t, value)
		if slot >= 0 {
			tr.setChild(t, n, slot, leaf)
			return
		}
		if !tr.addSlot(t, n, kb, leaf) {
			n = tr.replaceGrown(t, n, parent, parentSlot)
			tr.addSlot(t, n, kb, leaf)
		}
		return
	}
	// Interior level: descend, creating the child node if needed.
	if slot >= 0 {
		childAddr := tr.childAt(t, n, slot)
		if child, ok := nodeAt(t, childAddr); ok {
			tr.insertAt(t, child, n, slot, level+1, key, value)
			return
		}
	}
	child := allocNodeRuntime(t, N4Cap)
	if !tr.addSlot(t, n, kb, child.base()) {
		n = tr.replaceGrown(t, n, parent, parentSlot)
		tr.addSlot(t, n, kb, child.base())
	}
	slot = tr.findSlot(t, n, kb)
	tr.insertAt(t, child, n, slot, level+1, key, value)
}

// replaceGrown grows a full node and republishes it in its parent (or as
// the root).
func (tr *Tree) replaceGrown(t *pmm.Thread, n, parent node, parentSlot int) node {
	big := tr.grow(t, n)
	if parentSlot < 0 {
		tr.root = big
	} else {
		tr.setChild(t, parent, parentSlot, big.base())
	}
	return big
}

// Lookup returns the value for a key. The compactCount/count reads are the
// race-observing loads for bugs #9/#10.
func (tr *Tree) Lookup(t *pmm.Thread, key uint64) (uint64, bool) {
	n := tr.root
	for level := 0; level < Depth; level++ {
		_ = t.Load16(n.count())
		slot := tr.findSlot(t, n, byteAt(key, level))
		if slot < 0 {
			return 0, false
		}
		child := tr.childAt(t, n, slot)
		if level == Depth-1 {
			l, ok := leafAt(t, child)
			if !ok {
				return 0, false
			}
			return t.LoadAcquire(l.F("value"), 8), true
		}
		next, ok := nodeAt(t, child)
		if !ok {
			return 0, false
		}
		n = next
	}
	return 0, false
}

// RecoverEpoche is the post-crash reclamation check: it reads every
// DeletionList field and walks to the head label — the race-observing loads
// for bugs #11–#15.
func (tr *Tree) RecoverEpoche(t *pmm.Thread) {
	_ = t.Load64(tr.dl.F("deletitionListCount"))
	_ = t.Load8(tr.dl.F("added"))
	_ = t.Load64(tr.dl.F("thresholdCounter"))
	head := t.Load64(tr.dl.F("headDeletionList"))
	if ld, ok := labelAt(t, head); ok {
		_ = t.Load64(ld.F("nodesCount"))
	}
}

// Stats captures what recovery observed.
type Stats struct {
	Found   int
	Missing int
	Wrong   int
}

// ValueFor is the deterministic value the driver inserts for a key.
func ValueFor(key uint64) uint64 { return key*100 + 7 }

// DriverKeys returns the key set a driver with n primary keys uses: n keys
// in one level-0 subtree plus n/2 in a second subtree, so both radix levels
// and N4→N16 growth (hence the deletion list) are exercised.
func DriverKeys(n int) []uint64 {
	var keys []uint64
	for k := 1; k <= n; k++ {
		keys = append(keys, uint64(k))
	}
	for k := 1; k <= n/2; k++ {
		keys = append(keys, 0x100+uint64(k))
	}
	return keys
}

// New returns the benchmark driver: insert keys across two level-0
// subtrees (growing the first leaf-level N4 into an N16 and retiring it
// through the deletion list), then have recovery look all keys up and run
// the Epoche check.
func New(numKeys int, stats *Stats) func() pmm.Program {
	keys := DriverKeys(numKeys)
	return func() pmm.Program {
		var tr *Tree
		return pmm.Program{
			Name:  "P-ART",
			Setup: func(h *pmm.Heap) { tr = NewTree(h) },
			Workers: []func(*pmm.Thread){func(t *pmm.Thread) {
				for _, k := range keys {
					tr.Insert(t, k, ValueFor(k))
				}
			}},
			PostCrash: func(t *pmm.Thread) {
				tr.RecoverEpoche(t)
				for _, k := range keys {
					v, ok := tr.Lookup(t, k)
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
