package pmdk

import (
	"yashme/internal/pmm"
)

// This file implements the five PMDK example data structures the paper's
// evaluation drives (§7.1): BTree, CTree, RBTree, Hashmap-atomic and
// Hashmap-TX. All persistent mutations of reachable state go through the
// undo-log transaction (tx.Set) or an atomic publication; freshly allocated
// nodes are initialized with plain stores and persisted BEFORE they are
// linked in, which keeps their fields persistency-safe (the link read pulls
// the construction flush into every consistent prefix). The only harmful
// race these structures expose is therefore the pool's ulog entry pointer —
// exactly the paper's Table 4 row and the per-structure "1" entries in
// Table 5.

// --- BTree (order-4, tx-logged) ---

// BTreeOrder is the number of keys per node in the mini BTree.
const BTreeOrder = 4

var btreeNodeLayout = func() pmm.Layout {
	l := pmm.Layout{{Name: "n", Size: 8}, {Name: "leaf", Size: 8}}
	for i := 0; i < BTreeOrder; i++ {
		l = append(l,
			pmm.FieldDef{Name: bKey(i), Size: 8},
			pmm.FieldDef{Name: bVal(i), Size: 8})
	}
	for i := 0; i <= BTreeOrder; i++ {
		l = append(l, pmm.FieldDef{Name: bChild(i), Size: 8})
	}
	return l
}()

func bKey(i int) string   { return "key" + string(rune('0'+i)) }
func bVal(i int) string   { return "val" + string(rune('0'+i)) }
func bChild(i int) string { return "child" + string(rune('0'+i)) }

// BTree is the PMDK btree example: a single-root order-4 tree where every
// reachable mutation is transaction-logged.
type BTree struct {
	pool *Pool
	meta pmm.Struct // "btree_meta" {root}
}

// NewBTree allocates the tree metadata and an empty leaf root during Setup.
func NewBTree(h *pmm.Heap, p *Pool) *BTree {
	bt := &BTree{pool: p, meta: h.AllocStruct("btree_meta", pmm.Layout{{Name: "root", Size: 8}})}
	root := h.AllocStruct("btree_node", btreeNodeLayout)
	h.Init(root.F("leaf"), 8, 1)
	h.Init(bt.meta.F("root"), 8, uint64(root.Base()))
	return bt
}

// newNode allocates and persists a fresh node (unreachable until linked).
func (bt *BTree) newNode(t *pmm.Thread, leaf bool) pmm.Struct {
	n := t.Heap().AllocStruct("btree_node", btreeNodeLayout)
	var lv uint64
	if leaf {
		lv = 1
	}
	t.Store64(n.F("leaf"), lv)
	t.Store64(n.F("n"), 0)
	t.Persist(n.Base(), n.Size())
	return n
}

// Insert adds a key/value pair. For simplicity the mini BTree splits only
// leaves hanging off a one-level root, which is all the small drivers need.
func (bt *BTree) Insert(t *pmm.Thread, key, val uint64) {
	rootAddr := t.Load64(bt.meta.F("root"))
	root, _ := nodeAt(t, rootAddr)
	if t.Load64(root.F("leaf")) == 1 {
		if int(t.Load64(root.F("n"))) < BTreeOrder {
			bt.leafInsert(t, root, key, val)
			return
		}
		bt.splitRoot(t, root, key, val)
		return
	}
	// One-level interior root: route to the child, splitting it if full.
	pos, child := bt.routeChild(t, root, key)
	if int(t.Load64(child.F("n"))) >= BTreeOrder {
		bt.splitChild(t, root, child, pos)
		pos, child = bt.routeChild(t, root, key)
	}
	bt.leafInsert(t, child, key, val)
}

func (bt *BTree) routeChild(t *pmm.Thread, root pmm.Struct, key uint64) (int, pmm.Struct) {
	n := int(t.Load64(root.F("n")))
	idx := 0
	for ; idx < n; idx++ {
		if key <= t.Load64(root.F(bKey(idx))) {
			break
		}
	}
	childAddr := t.Load64(root.F(bChild(idx)))
	c, _ := nodeAt(t, childAddr)
	return idx, c
}

// splitChild splits the full leaf at child position pos, moving its upper
// half into a fresh sibling and tx-logging the interior-node shift.
func (bt *BTree) splitChild(t *pmm.Thread, root, child pmm.Struct, pos int) {
	half := BTreeOrder / 2
	sib := bt.newNode(t, true)
	for i := half; i < BTreeOrder; i++ {
		t.Store64(sib.F(bKey(i-half)), t.Load64(child.F(bKey(i))))
		t.Store64(sib.F(bVal(i-half)), t.Load64(child.F(bVal(i))))
	}
	t.Store64(sib.F("n"), uint64(BTreeOrder-half))
	t.Persist(sib.Base(), sib.Size())
	sep := t.Load64(child.F(bKey(half - 1)))

	tx := bt.pool.TxBegin(t)
	n := int(t.Load64(root.F("n")))
	// Shift interior keys/children right of pos up by one.
	for i := n - 1; i >= pos; i-- {
		tx.Set(root.F(bKey(i+1)), t.Load64(root.F(bKey(i))))
		tx.Set(root.F(bChild(i+2)), t.Load64(root.F(bChild(i+1))))
	}
	tx.Set(root.F(bKey(pos)), sep)
	tx.Set(root.F(bChild(pos+1)), uint64(sib.Base()))
	tx.Set(root.F("n"), uint64(n+1))
	tx.Set(child.F("n"), uint64(half))
	tx.Commit()
}

// leafInsert shifts larger keys right and installs the pair, all tx-logged.
func (bt *BTree) leafInsert(t *pmm.Thread, leaf pmm.Struct, key, val uint64) {
	tx := bt.pool.TxBegin(t)
	n := int(t.Load64(leaf.F("n")))
	i := n - 1
	for ; i >= 0; i-- {
		k := t.Load64(leaf.F(bKey(i)))
		if k <= key {
			break
		}
		tx.Set(leaf.F(bKey(i+1)), k)
		tx.Set(leaf.F(bVal(i+1)), t.Load64(leaf.F(bVal(i))))
	}
	tx.Set(leaf.F(bKey(i+1)), key)
	tx.Set(leaf.F(bVal(i+1)), val)
	tx.Set(leaf.F("n"), uint64(n+1))
	tx.Commit()
}

// splitRoot turns a full leaf root into an interior root with two leaves.
func (bt *BTree) splitRoot(t *pmm.Thread, old pmm.Struct, key, val uint64) {
	left := bt.newNode(t, true)
	right := bt.newNode(t, true)
	half := BTreeOrder / 2
	// Copy halves into the fresh (unreachable) leaves with plain stores.
	for i := 0; i < half; i++ {
		t.Store64(left.F(bKey(i)), t.Load64(old.F(bKey(i))))
		t.Store64(left.F(bVal(i)), t.Load64(old.F(bVal(i))))
	}
	for i := half; i < BTreeOrder; i++ {
		t.Store64(right.F(bKey(i-half)), t.Load64(old.F(bKey(i))))
		t.Store64(right.F(bVal(i-half)), t.Load64(old.F(bVal(i))))
	}
	t.Store64(left.F("n"), uint64(half))
	t.Store64(right.F("n"), uint64(BTreeOrder-half))
	t.Persist(left.Base(), left.Size())
	t.Persist(right.Base(), right.Size())

	sep := t.Load64(old.F(bKey(half - 1)))
	interior := bt.newNode(t, false)
	t.Store64(interior.F("n"), 1)
	t.Store64(interior.F(bKey(0)), sep)
	t.Store64(interior.F(bChild(0)), uint64(left.Base()))
	t.Store64(interior.F(bChild(1)), uint64(right.Base()))
	t.Persist(interior.Base(), interior.Size())

	tx := bt.pool.TxBegin(t)
	tx.Set(bt.meta.F("root"), uint64(interior.Base()))
	tx.Commit()

	if key <= sep {
		bt.leafInsert(t, left, key, val)
	} else {
		bt.leafInsert(t, right, key, val)
	}
}

// Get looks a key up.
func (bt *BTree) Get(t *pmm.Thread, key uint64) (uint64, bool) {
	rootAddr := t.Load64(bt.meta.F("root"))
	n, ok := nodeAt(t, rootAddr)
	if !ok {
		return 0, false
	}
	for t.Load64(n.F("leaf")) == 0 {
		_, n = bt.routeChild(t, n, key)
	}
	cnt := int(t.Load64(n.F("n")))
	if cnt > BTreeOrder {
		cnt = BTreeOrder
	}
	for i := 0; i < cnt; i++ {
		if t.Load64(n.F(bKey(i))) == key {
			return t.Load64(n.F(bVal(i))), true
		}
	}
	return 0, false
}

// --- CTree (crit-bit-style binary tree, tx-logged) ---

var ctreeNodeLayout = pmm.Layout{
	{Name: "key", Size: 8}, {Name: "value", Size: 8},
	{Name: "left", Size: 8}, {Name: "right", Size: 8},
}

// CTree is the PMDK ctree example: a binary tree keyed by comparison, with
// tx-logged link updates.
type CTree struct {
	pool *Pool
	meta pmm.Struct // "ctree_meta" {root}
}

// NewCTree allocates the tree metadata during Setup.
func NewCTree(h *pmm.Heap, p *Pool) *CTree {
	return &CTree{pool: p, meta: h.AllocStruct("ctree_meta", pmm.Layout{{Name: "root", Size: 8}})}
}

func (ct *CTree) newNode(t *pmm.Thread, key, val uint64) uint64 {
	n := t.Heap().AllocStruct("ctree_node", ctreeNodeLayout)
	t.Store64(n.F("key"), key)
	t.Store64(n.F("value"), val)
	t.Persist(n.Base(), n.Size())
	return uint64(n.Base())
}

// Insert adds or updates a key.
func (ct *CTree) Insert(t *pmm.Thread, key, val uint64) {
	cur := t.Load64(ct.meta.F("root"))
	if cur == 0 {
		addr := ct.newNode(t, key, val)
		tx := ct.pool.TxBegin(t)
		tx.Set(ct.meta.F("root"), addr)
		tx.Commit()
		return
	}
	for {
		n, _ := nodeAt(t, cur)
		k := t.Load64(n.F("key"))
		if k == key {
			tx := ct.pool.TxBegin(t)
			tx.Set(n.F("value"), val)
			tx.Commit()
			return
		}
		side := "left"
		if key > k {
			side = "right"
		}
		next := t.Load64(n.F(side))
		if next == 0 {
			addr := ct.newNode(t, key, val)
			tx := ct.pool.TxBegin(t)
			tx.Set(n.F(side), addr)
			tx.Commit()
			return
		}
		cur = next
	}
}

// Get looks a key up.
func (ct *CTree) Get(t *pmm.Thread, key uint64) (uint64, bool) {
	cur := t.Load64(ct.meta.F("root"))
	for cur != 0 {
		n, ok := nodeAt(t, cur)
		if !ok {
			return 0, false
		}
		k := t.Load64(n.F("key"))
		if k == key {
			return t.Load64(n.F("value")), true
		}
		if key < k {
			cur = t.Load64(n.F("left"))
		} else {
			cur = t.Load64(n.F("right"))
		}
	}
	return 0, false
}

// --- RBTree (red-black-flavoured BST, tx-logged) ---

const (
	colorRed   = 0
	colorBlack = 1
)

var rbNodeLayout = pmm.Layout{
	{Name: "key", Size: 8}, {Name: "value", Size: 8},
	{Name: "left", Size: 8}, {Name: "right", Size: 8},
	{Name: "parent", Size: 8}, {Name: "color", Size: 8},
}

// RBTree is the PMDK rbtree example, reproduced as a BST with tx-logged
// color maintenance (full rotation rebalancing is omitted; the persistence
// protocol — which is what races — is the same).
type RBTree struct {
	pool *Pool
	meta pmm.Struct // "rbtree_meta" {root}
}

// NewRBTree allocates the tree metadata during Setup.
func NewRBTree(h *pmm.Heap, p *Pool) *RBTree {
	return &RBTree{pool: p, meta: h.AllocStruct("rbtree_meta", pmm.Layout{{Name: "root", Size: 8}})}
}

func (rb *RBTree) newNode(t *pmm.Thread, key, val, parent uint64) uint64 {
	n := t.Heap().AllocStruct("rbtree_node", rbNodeLayout)
	t.Store64(n.F("key"), key)
	t.Store64(n.F("value"), val)
	t.Store64(n.F("parent"), parent)
	t.Store64(n.F("color"), colorRed)
	t.Persist(n.Base(), n.Size())
	return uint64(n.Base())
}

// Insert adds or updates a key, then recolors the insertion path.
func (rb *RBTree) Insert(t *pmm.Thread, key, val uint64) {
	cur := t.Load64(rb.meta.F("root"))
	if cur == 0 {
		addr := rb.newNode(t, key, val, 0)
		tx := rb.pool.TxBegin(t)
		tx.Set(rb.meta.F("root"), addr)
		n, _ := nodeAt(t, addr)
		tx.Set(n.F("color"), colorBlack) // root is black
		tx.Commit()
		return
	}
	for {
		n, _ := nodeAt(t, cur)
		k := t.Load64(n.F("key"))
		if k == key {
			tx := rb.pool.TxBegin(t)
			tx.Set(n.F("value"), val)
			tx.Commit()
			return
		}
		side := "left"
		if key > k {
			side = "right"
		}
		next := t.Load64(n.F(side))
		if next == 0 {
			addr := rb.newNode(t, key, val, cur)
			tx := rb.pool.TxBegin(t)
			tx.Set(n.F(side), addr)
			// Recolor: if the parent was red, blacken it (flattened
			// fix-up; the logged multi-word update is what matters).
			if t.Load64(n.F("color")) == colorRed {
				tx.Set(n.F("color"), colorBlack)
			}
			tx.Commit()
			return
		}
		cur = next
	}
}

// Get looks a key up.
func (rb *RBTree) Get(t *pmm.Thread, key uint64) (uint64, bool) {
	cur := t.Load64(rb.meta.F("root"))
	for cur != 0 {
		n, ok := nodeAt(t, cur)
		if !ok {
			return 0, false
		}
		k := t.Load64(n.F("key"))
		if k == key {
			return t.Load64(n.F("value")), true
		}
		if key < k {
			cur = t.Load64(n.F("left"))
		} else {
			cur = t.Load64(n.F("right"))
		}
	}
	return 0, false
}

// --- Hashmap-TX (chained buckets, tx-logged) ---

// HashBuckets is the bucket count of both hashmap variants.
const HashBuckets = 8

var hashEntryLayout = pmm.Layout{
	{Name: "key", Size: 8}, {Name: "value", Size: 8}, {Name: "next", Size: 8},
}

// HashmapTX is the PMDK hashmap_tx example: chained buckets where the
// bucket-head publication is tx-logged.
type HashmapTX struct {
	pool    *Pool
	buckets pmm.Array // "hashmap_tx_bucket" {head}
}

// NewHashmapTX allocates the bucket array during Setup.
func NewHashmapTX(h *pmm.Heap, p *Pool) *HashmapTX {
	return &HashmapTX{
		pool:    p,
		buckets: h.AllocArray("hashmap_tx_bucket", pmm.Layout{{Name: "head", Size: 8}}, HashBuckets),
	}
}

func hashBucket(key uint64) int { return int((key * 0x9E3779B97F4A7C15) % HashBuckets) }

// Put inserts or updates a key.
func (hm *HashmapTX) Put(t *pmm.Thread, key, val uint64) {
	b := hm.buckets.At(hashBucket(key))
	cur := t.Load64(b.F("head"))
	for addr := cur; addr != 0; {
		n, _ := nodeAt(t, addr)
		if t.Load64(n.F("key")) == key {
			tx := hm.pool.TxBegin(t)
			tx.Set(n.F("value"), val)
			tx.Commit()
			return
		}
		addr = t.Load64(n.F("next"))
	}
	n := t.Heap().AllocStruct("hashmap_tx_entry", hashEntryLayout)
	t.Store64(n.F("key"), key)
	t.Store64(n.F("value"), val)
	t.Store64(n.F("next"), cur)
	t.Persist(n.Base(), n.Size())
	addr := uint64(n.Base())
	tx := hm.pool.TxBegin(t)
	tx.Set(b.F("head"), addr)
	tx.Commit()
}

// Get looks a key up.
func (hm *HashmapTX) Get(t *pmm.Thread, key uint64) (uint64, bool) {
	b := hm.buckets.At(hashBucket(key))
	for addr := t.Load64(b.F("head")); addr != 0; {
		n, ok := nodeAt(t, addr)
		if !ok {
			return 0, false
		}
		if t.Load64(n.F("key")) == key {
			return t.Load64(n.F("value")), true
		}
		addr = t.Load64(n.F("next"))
	}
	return 0, false
}

// --- Hashmap-atomic (atomic publication + logged element count) ---

// HashmapAtomic is the PMDK hashmap_atomic example: entries are persisted
// and then published with a single atomic release store; the persistent
// element counter, however, goes through the pool's internal log — which is
// how this "atomic" structure still exposes the ulog race (Table 5's
// hashmap-atomic row).
type HashmapAtomic struct {
	pool    *Pool
	buckets pmm.Array  // "hashmap_atomic_bucket" {head}
	count   pmm.Struct // "hashmap_atomic_meta" {count}
}

// NewHashmapAtomic allocates the bucket array and counter during Setup.
func NewHashmapAtomic(h *pmm.Heap, p *Pool) *HashmapAtomic {
	return &HashmapAtomic{
		pool:    p,
		buckets: h.AllocArray("hashmap_atomic_bucket", pmm.Layout{{Name: "head", Size: 8}}, HashBuckets),
		count:   h.AllocStruct("hashmap_atomic_meta", pmm.Layout{{Name: "count", Size: 8}}),
	}
}

// Put inserts or updates a key.
func (hm *HashmapAtomic) Put(t *pmm.Thread, key, val uint64) {
	b := hm.buckets.At(hashBucket(key))
	cur := t.LoadAcquire64(b.F("head"))
	for addr := cur; addr != 0; {
		n, _ := nodeAt(t, addr)
		if t.Load64(n.F("key")) == key {
			t.StoreRelease64(n.F("value"), val)
			t.Persist(n.F("value"), 8)
			return
		}
		addr = t.Load64(n.F("next"))
	}
	n := t.Heap().AllocStruct("hashmap_atomic_entry", hashEntryLayout)
	t.Store64(n.F("key"), key)
	t.Store64(n.F("value"), val)
	t.Store64(n.F("next"), cur)
	t.Persist(n.Base(), n.Size())
	addr := uint64(n.Base())
	// Atomic publication: release store + persist.
	t.StoreRelease64(b.F("head"), addr)
	t.Persist(b.F("head"), 8)
	// The element counter update uses the pool's internal log.
	tx := hm.pool.TxBegin(t)
	tx.Set(hm.count.F("count"), t.Load64(hm.count.F("count"))+1)
	tx.Commit()
}

// Get looks a key up (acquire-loading the published head).
func (hm *HashmapAtomic) Get(t *pmm.Thread, key uint64) (uint64, bool) {
	b := hm.buckets.At(hashBucket(key))
	for addr := t.LoadAcquire64(b.F("head")); addr != 0; {
		n, ok := nodeAt(t, addr)
		if !ok {
			return 0, false
		}
		if t.Load64(n.F("key")) == key {
			return t.Load64(n.F("value")), true
		}
		addr = t.Load64(n.F("next"))
	}
	return 0, false
}
