// Package fastfair reproduces the FAST_FAIR persistent B+-tree (Hwang et
// al., FAST '18) with the six persistency races Yashme reports for it
// (paper Table 3, bugs 3–8):
//
//	#3  last_index     in header (btree.h)
//	#4  switch_counter in header (btree.h)
//	#5  key            in entry  (btree.h)
//	#6  ptr            in entry  (btree.h)
//	#7  root           in btree  (btree.h)
//	#8  sibling_ptr    in header (btree.h)
//
// FAST_FAIR performs Failure-Atomic ShifTs: inserts shift entries with
// plain stores and per-cache-line flushes, bump switch_counter around
// shifts, update last_index, and link split siblings through sibling_ptr —
// all with NON-ATOMIC stores, relying on 8-byte store atomicity that the C++
// standard does not actually guarantee. Fields written once at node
// construction (level, leftmost_ptr) are flushed before the node is
// published and are therefore persistency-safe: reading the publishing
// pointer pulls their flushes into every consistent prefix.
package fastfair

import (
	"yashme/internal/pmm"
)

// Cardinality is the (downsized) number of entries per node; small so that
// modest drivers exercise splits and sibling links.
const Cardinality = 4

// ExpectedRaces are the fields the paper reports for FAST_FAIR.
var ExpectedRaces = []string{
	"btree.root",
	"entry.key",
	"entry.ptr",
	"header.last_index",
	"header.sibling_ptr",
	"header.switch_counter",
}

// NullPtr marks an absent node pointer.
const NullPtr = uint64(0)

type node struct {
	hdr     pmm.Struct
	entries pmm.Array
}

func (n node) base() uint64 { return uint64(n.hdr.Base()) }

// Tree is a FAST_FAIR B+-tree instance on the simulated persistent heap.
// Node pointers stored in persistent memory are heap addresses, resolved
// through the thread's heap like a fixed PM mapping (nodeAt); the Tree
// holds only the btree root struct Setup allocated.
type Tree struct {
	btree pmm.Struct // {root}
}

var headerLayout = pmm.Layout{
	{Name: "last_index", Size: 8},
	{Name: "switch_counter", Size: 8},
	{Name: "sibling_ptr", Size: 8},
	{Name: "leftmost_ptr", Size: 8},
	{Name: "level", Size: 8},
}

var entryLayout = pmm.Layout{{Name: "key", Size: 8}, {Name: "ptr", Size: 8}}

// NewTree allocates the btree struct and an empty root leaf. Initial values
// are Setup-time writes (fully persisted).
func NewTree(h *pmm.Heap) *Tree {
	tr := &Tree{btree: h.AllocStruct("btree", pmm.Layout{{Name: "root", Size: 8}})}
	root := newNodeInit(h, 0, NullPtr)
	h.Init(tr.btree.F("root"), 8, root.base())
	// last_index starts at -1 in FAST_FAIR; we keep a count-style encoding
	// with 0 = empty, i.e. last_index holds count.
	return tr
}

// newNodeInit allocates a node during Setup (initial, persisted state).
func newNodeInit(h *pmm.Heap, level uint64, leftmost uint64) node {
	n := node{
		hdr:     h.AllocStruct("header", headerLayout),
		entries: h.AllocArray("entry", entryLayout, Cardinality+1),
	}
	h.Init(n.hdr.F("level"), 8, level)
	h.Init(n.hdr.F("leftmost_ptr"), 8, leftmost)
	return n
}

// newNodeRuntime allocates and initializes a node during execution: the
// construction-time stores are flushed before the node is published, so
// they are persistency-safe by the prefix argument above.
func newNodeRuntime(t *pmm.Thread, level uint64, leftmost uint64) node {
	h := t.Heap()
	n := node{
		hdr:     h.AllocStruct("header", headerLayout),
		entries: h.AllocArray("entry", entryLayout, Cardinality+1),
	}
	t.Store64(n.hdr.F("level"), level)
	t.Store64(n.hdr.F("leftmost_ptr"), leftmost)
	t.Store64(n.hdr.F("last_index"), 0)
	t.Store64(n.hdr.F("switch_counter"), 0)
	t.Store64(n.hdr.F("sibling_ptr"), NullPtr)
	t.FlushRange(n.hdr.Base(), n.hdr.Size())
	t.SFence()
	return n
}

// nodeAt resolves a node pointer loaded from persistent memory through the
// thread's heap, before and after a crash alike: a node is a "header"
// struct allocation immediately followed by its "entry" array allocation,
// mirroring how a real recovery procedure casts a mapped PM offset back to
// node*. ok is false for the null pointer and for anything else that is
// not a node.
func nodeAt(t *pmm.Thread, addr uint64) (n node, ok bool) {
	if addr == NullPtr {
		return node{}, false
	}
	h := t.Heap()
	if n.hdr, ok = h.StructAt(pmm.Addr(addr)); !ok || n.hdr.Label() != "header" {
		return node{}, false
	}
	entBase, ok := h.NextAllocBase(pmm.Addr(addr))
	if !ok {
		return node{}, false
	}
	if n.entries, ok = h.ArrayAt(entBase); !ok || n.entries.Label() != "entry" {
		return node{}, false
	}
	return n, true
}

// count reads last_index (entry count) — a race-observing load post-crash.
func (n node) count(t *pmm.Thread) int { return int(t.Load64(n.hdr.F("last_index"))) }

// Insert adds a key/value pair, splitting full nodes bottom-up and growing
// a new root when the old root splits.
func (tr *Tree) Insert(t *pmm.Thread, key, val uint64) {
	rootAddr := t.Load64(tr.btree.F("root"))
	promoted, sepKey, sibAddr := tr.insertRec(t, rootAddr, key, val)
	if !promoted {
		return
	}
	// Bug #7: growing the tree stores a new root pointer non-atomically.
	oldRoot, _ := nodeAt(t, rootAddr)
	level := t.Load64(oldRoot.hdr.F("level"))
	newRoot := newNodeRuntime(t, level+1, rootAddr)
	e := newRoot.entries.At(0)
	t.Store64(e.F("key"), sepKey)
	t.Store64(e.F("ptr"), sibAddr)
	t.Store64(newRoot.hdr.F("last_index"), 1)
	t.FlushRange(newRoot.hdr.Base(), newRoot.hdr.Size())
	t.CLFlush(e.Base())
	t.SFence()
	t.Store64(tr.btree.F("root"), newRoot.base())
	t.CLFlush(tr.btree.F("root"))
	t.SFence()
}

// insertRec inserts into the subtree rooted at nAddr. If the subtree root
// split, it returns the separator key and new sibling for the caller to
// install.
func (tr *Tree) insertRec(t *pmm.Thread, nAddr, key, val uint64) (promoted bool, sepKey, sibAddr uint64) {
	n, _ := nodeAt(t, nAddr)
	if t.Load64(n.hdr.F("level")) > 0 {
		child := tr.childFor(t, n, key)
		p, sk, sa := tr.insertRec(t, child, key, val)
		if !p {
			return false, 0, 0
		}
		key, val = sk, sa // install the separator in this node
	}
	if n.count(t) < Cardinality {
		tr.insertEntry(t, n, key, val)
		return false, 0, 0
	}
	sepKey, sibAddr = tr.split(t, n)
	if key < sepKey {
		tr.insertEntry(t, n, key, val)
	} else {
		sib, _ := nodeAt(t, sibAddr)
		tr.insertEntry(t, sib, key, val)
	}
	return true, sepKey, sibAddr
}

// childFor scans an inner node for the child covering key.
func (tr *Tree) childFor(t *pmm.Thread, n node, key uint64) uint64 {
	cnt := n.count(t)
	child := t.Load64(n.hdr.F("leftmost_ptr"))
	for i := 0; i < cnt; i++ {
		e := n.entries.At(i)
		if key < t.Load64(e.F("key")) {
			break
		}
		child = t.Load64(e.F("ptr"))
	}
	return child
}

// insertEntry is FAST_FAIR's insert_key on a non-full node: bump
// switch_counter, shift larger entries right with store+flush per entry,
// write the new entry, update last_index, and flush the header — every
// store non-atomic.
func (tr *Tree) insertEntry(t *pmm.Thread, n node, key, val uint64) {
	cnt := n.count(t)
	// Bug #4: non-atomic switch_counter update marks the shift in flight.
	sc := t.Load64(n.hdr.F("switch_counter"))
	t.Store64(n.hdr.F("switch_counter"), sc+1)

	// FAST shift: move entries one position right until the slot for key.
	i := cnt - 1
	for ; i >= 0; i-- {
		e := n.entries.At(i)
		k := t.Load64(e.F("key"))
		if k <= key {
			break
		}
		dst := n.entries.At(i + 1)
		// Bugs #5/#6: non-atomic entry key/ptr stores.
		t.Store64(dst.F("key"), k)
		t.Store64(dst.F("ptr"), t.Load64(e.F("ptr")))
		t.CLFlush(dst.Base())
	}
	slot := n.entries.At(i + 1)
	t.Store64(slot.F("key"), key)
	t.Store64(slot.F("ptr"), val)
	t.CLFlush(slot.Base())

	// Bug #3: non-atomic last_index update commits the insert.
	t.Store64(n.hdr.F("last_index"), uint64(cnt+1))
	t.Store64(n.hdr.F("switch_counter"), sc+2)
	t.CLFlush(n.hdr.F("last_index"))
	t.SFence()
}

// split moves the upper half of n into a fresh sibling and links it through
// sibling_ptr. It returns the separator key (the sibling's first key) and
// the sibling's address for the caller to install in the parent.
func (tr *Tree) split(t *pmm.Thread, n node) (sepKey, sibAddr uint64) {
	level := t.Load64(n.hdr.F("level"))
	sib := newNodeRuntime(t, level, NullPtr)
	half := Cardinality / 2

	// Move upper half into the sibling (construction-time: flushed before
	// publication below).
	for i := half; i < Cardinality; i++ {
		src, dst := n.entries.At(i), sib.entries.At(i-half)
		t.Store64(dst.F("key"), t.Load64(src.F("key")))
		t.Store64(dst.F("ptr"), t.Load64(src.F("ptr")))
		t.CLFlush(dst.Base())
	}
	t.Store64(sib.hdr.F("last_index"), uint64(Cardinality-half))
	sepKey = t.Load64(n.entries.At(half).F("key"))
	// Chain the old sibling link before publishing.
	t.Store64(sib.hdr.F("sibling_ptr"), t.Load64(n.hdr.F("sibling_ptr")))
	t.FlushRange(sib.hdr.Base(), sib.hdr.Size())
	t.SFence()

	// Bug #8: publication — non-atomic sibling_ptr store in the OLD node,
	// mutated after the node was already reachable.
	t.Store64(n.hdr.F("sibling_ptr"), sib.base())
	t.CLFlush(n.hdr.F("sibling_ptr"))
	// Shrink the old node.
	t.Store64(n.hdr.F("last_index"), uint64(half))
	t.CLFlush(n.hdr.F("last_index"))
	t.SFence()
	return sepKey, sib.base()
}

// Search returns the value for key. It performs FAST_FAIR's linear_search:
// read switch_counter (shift detection), scan keys/ptrs, and consult
// sibling_ptr for keys that migrated right during a split.
func (tr *Tree) Search(t *pmm.Thread, key uint64) (uint64, bool) {
	n, ok := nodeAt(t, t.Load64(tr.btree.F("root")))
	if !ok {
		return 0, false
	}
	for t.Load64(n.hdr.F("level")) > 0 {
		if n, ok = nodeAt(t, tr.childFor(t, n, key)); !ok {
			return 0, false
		}
	}
	for ok {
		_ = t.Load64(n.hdr.F("switch_counter")) // shift-in-flight check
		cnt := n.count(t)
		if cnt > Cardinality+1 {
			cnt = Cardinality + 1 // defensive clamp against torn counts
		}
		for i := 0; i < cnt; i++ {
			e := n.entries.At(i)
			if t.Load64(e.F("key")) == key {
				return t.Load64(e.F("ptr")), true
			}
		}
		n, ok = nodeAt(t, t.Load64(n.hdr.F("sibling_ptr"))) // follow the split chain
	}
	return 0, false
}

// Delete removes key from its leaf by shifting entries left (FAIR shift).
func (tr *Tree) Delete(t *pmm.Thread, key uint64) bool {
	leaf, _ := nodeAt(t, t.Load64(tr.btree.F("root")))
	for t.Load64(leaf.hdr.F("level")) > 0 {
		leaf, _ = nodeAt(t, tr.childFor(t, leaf, key))
	}
	cnt := leaf.count(t)
	pos := -1
	for i := 0; i < cnt; i++ {
		if t.Load64(leaf.entries.At(i).F("key")) == key {
			pos = i
			break
		}
	}
	if pos < 0 {
		return false
	}
	sc := t.Load64(leaf.hdr.F("switch_counter"))
	t.Store64(leaf.hdr.F("switch_counter"), sc+1)
	for i := pos; i < cnt-1; i++ {
		src, dst := leaf.entries.At(i+1), leaf.entries.At(i)
		t.Store64(dst.F("key"), t.Load64(src.F("key")))
		t.Store64(dst.F("ptr"), t.Load64(src.F("ptr")))
		t.CLFlush(dst.Base())
	}
	t.Store64(leaf.hdr.F("last_index"), uint64(cnt-1))
	t.Store64(leaf.hdr.F("switch_counter"), sc+2)
	t.CLFlush(leaf.hdr.F("last_index"))
	t.SFence()
	return true
}

// Stats captures what the post-crash recovery observed.
type Stats struct {
	Found   int
	Missing int
	Wrong   int
}

// ValueFor is the deterministic value the driver inserts for a key.
func ValueFor(key uint64) uint64 { return key<<16 | 0xF }

// New returns the benchmark driver: insert numKeys keys in DESCENDING order
// (every insert shifts the existing entries — the FAST half of FAST_FAIR —
// and splits trigger along the way), delete one, and have recovery search
// every key.
func New(numKeys int, stats *Stats) func() pmm.Program {
	return func() pmm.Program {
		var tr *Tree
		return pmm.Program{
			Name:  "Fast_Fair",
			Setup: func(h *pmm.Heap) { tr = NewTree(h) },
			Workers: []func(*pmm.Thread){func(t *pmm.Thread) {
				for k := uint64(numKeys); k >= 1; k-- {
					tr.Insert(t, k, ValueFor(k))
				}
				if numKeys > 2 {
					tr.Delete(t, 2)
				}
			}},
			PostCrash: func(t *pmm.Thread) {
				for k := uint64(1); k <= uint64(numKeys); k++ {
					v, ok := tr.Search(t, k)
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
