// Package pmdk is a miniature reproduction of the parts of Intel's
// Persistent Memory Development Kit that Yashme exercised (paper §7,
// Table 4): a pool with an undo log (libpmemobj's ulog), the transactional
// API the example data structures use, and checksum validation of log
// contents.
//
// Table 4 bug #1 is here: the pointer to the current ulog entry (ulog.c:561)
// is advanced with a plain 64-bit store. Recovery reads that pointer before
// any checksum can vouch for it — a harmful persistency race. The log
// entries themselves and the log checksum are also written with plain
// stores, but recovery only consumes them inside the checksum validation
// procedure, so Yashme classifies those races as benign (§7.5).
//
// The five example data structures the paper drives PMDK with (BTree,
// CTree, RBTree, Hashmap-atomic, Hashmap-TX) live in structures.go, and
// their benchmark drivers in drivers.go.
package pmdk

import (
	"fmt"

	"yashme/internal/pmm"
)

// ULogCap is the undo-log capacity in entries.
const ULogCap = 64

// LayoutVersion is the pool-format version stamped into the header.
const LayoutVersion = 1

// poolHdrMagic identifies a yashme-pmdk pool (pmemobj's POOL_HDR_SIG).
const poolHdrMagic = uint64(0x504D454D4F424A31) // "PMEMOBJ1"

// Pool is a miniature libpmemobj pool: a versioned header, an undo log and
// a bump allocator over the simulated persistent heap. It holds only the
// handles Setup allocated; code that runs on a thread reaches the heap
// through the thread (Thread.Heap), and Setup-time constructors take it.
type Pool struct {
	// hdr: {magic, version} — written at creation, validated at open.
	hdr pmm.Struct
	// ulog header: {entry_ptr, checksum}. entry_ptr is the Table 4 bug.
	ulog pmm.Struct
	// entries: the undo-log records {offset, value, size8}.
	entries pmm.Array
}

// NewPool allocates the pool metadata during Setup. The header is part of
// the initial (fully persisted) image, exactly like pmemobj_create writes
// and syncs it before any transaction runs.
func NewPool(h *pmm.Heap) *Pool {
	p := &Pool{
		hdr: h.AllocStruct("pool_hdr", pmm.Layout{
			{Name: "magic", Size: 8},
			{Name: "version", Size: 8},
		}),
		ulog: h.AllocStruct("ulog", pmm.Layout{
			{Name: "entry_ptr", Size: 8},
			{Name: "checksum", Size: 8},
		}),
		entries: h.AllocArray("ulog_entry", pmm.Layout{
			{Name: "offset", Size: 8},
			{Name: "value", Size: 8},
			{Name: "size8", Size: 8},
		}, ULogCap),
	}
	h.Init(p.hdr.F("magic"), 8, poolHdrMagic)
	h.Init(p.hdr.F("version"), 8, LayoutVersion)
	return p
}

// ValidateHeader is the pool-open sanity check: magic and layout version
// must match. Header fields are creation-time initial values (never
// rewritten), so these reads can never race.
func (p *Pool) ValidateHeader(t *pmm.Thread) error {
	if got := t.Load64(p.hdr.F("magic")); got != poolHdrMagic {
		return fmt.Errorf("pmdk: bad pool magic %#x", got)
	}
	if got := t.Load64(p.hdr.F("version")); got != LayoutVersion {
		return fmt.Errorf("pmdk: unsupported layout version %d", got)
	}
	return nil
}

// nodeAt resolves a persistent pointer loaded from the pool back to the
// struct allocated there, the way recovery code casts a pointer read from
// PM. It goes through the thread's heap (pmm.Heap.StructAt), never a
// Go-side registry filled by pre-crash code: a scenario resumed from a
// checkpoint recovers with a program whose pre-crash closures never ran.
func nodeAt(t *pmm.Thread, addr uint64) (pmm.Struct, bool) {
	return t.Heap().StructAt(pmm.Addr(addr))
}

// Tx is an in-flight undo-log transaction. PMDK transactions snapshot
// ranges before modifying them; on an unclean shutdown the recovery path
// rolls the snapshots back.
type Tx struct {
	pool *Pool
	t    *pmm.Thread
	n    int
}

// TxBegin opens a transaction. The mini-pool supports one transaction at a
// time (the paper's drivers are sequential too).
func (p *Pool) TxBegin(t *pmm.Thread) *Tx {
	return &Tx{pool: p, t: t}
}

// Add snapshots the 8-byte word at addr into the undo log before the caller
// modifies it. The entry is persisted first; then the entry pointer —
// Table 4 bug #1 — is advanced with a PLAIN store (ulog.c:561) and
// persisted.
func (tx *Tx) Add(addr pmm.Addr) {
	if tx.n >= ULogCap {
		panic("pmdk: undo log full")
	}
	t := tx.t
	e := tx.pool.entries.At(tx.n)
	old := t.Load64(addr)
	// Benign races (checksum-guarded consumers): plain entry stores.
	t.Store64(e.F("offset"), uint64(addr))
	t.Store64(e.F("value"), old)
	t.Store64(e.F("size8"), 8)
	t.Persist(e.Base(), e.Size())
	// Benign race: plain checksum store, validated before use.
	t.Store64(tx.pool.ulog.F("checksum"), tx.pool.computeChecksum(t, tx.n+1))
	t.Persist(tx.pool.ulog.F("checksum"), 8)
	// BUG (Table 4 #1): plain store to the ulog entry pointer.
	t.Store64(tx.pool.ulog.F("entry_ptr"), uint64(tx.n+1))
	t.Persist(tx.pool.ulog.F("entry_ptr"), 8)
	tx.n++
}

// Set logs the destination and stores the new value in place (PMDK's
// TX_SET idiom), persisting the data.
func (tx *Tx) Set(addr pmm.Addr, val uint64) {
	tx.Add(addr)
	tx.t.Store64(addr, val)
	tx.t.Persist(addr, 8)
}

// Commit persists all transaction data and invalidates the log by clearing
// the entry pointer. After the clear is persisted, recovery treats the pool
// as clean.
func (tx *Tx) Commit() {
	t := tx.t
	t.Store64(tx.pool.ulog.F("entry_ptr"), 0)
	t.Persist(tx.pool.ulog.F("entry_ptr"), 8)
	tx.n = 0
}

// computeChecksum folds the first n log entries into a checksum word using
// loads issued through the thread (so the reads are simulated too).
func (p *Pool) computeChecksum(t *pmm.Thread, n int) uint64 {
	sum := uint64(0xCBF29CE484222325)
	for i := 0; i < n; i++ {
		e := p.entries.At(i)
		sum = (sum ^ t.Load64(e.F("offset"))) * 0x100000001B3
		sum = (sum ^ t.Load64(e.F("value"))) * 0x100000001B3
	}
	return sum
}

// Recover is the post-crash pool-open path. It first reads the undo-log
// entry pointer — the race-observing load for Table 4 bug #1, performed
// BEFORE any checksum can vouch for it — then validates the log under the
// checksum guard and rolls back uncommitted snapshots if the log is intact.
func (p *Pool) Recover(t *pmm.Thread) (rolledBack int, valid bool) {
	if err := p.ValidateHeader(t); err != nil {
		return 0, false
	}
	// Harmful race: entry_ptr read with no guard (pmemobj must read it to
	// find the log before it can validate anything).
	n := t.Load64(p.ulog.F("entry_ptr"))
	if n == 0 || n > ULogCap {
		return 0, true // clean shutdown (or garbage pointer: nothing to do)
	}
	valid = false
	t.ChecksumGuard(func() {
		stored := t.Load64(p.ulog.F("checksum"))
		valid = stored == p.computeChecksum(t, int(n))
		// Sanity-scan the rest of the log region, as pmemobj does when it
		// validates a ulog block: these reads can observe the in-flight
		// entry a crash interrupted — benign races, caught right here.
		for i := int(n); i < ULogCap; i++ {
			e := p.entries.At(i)
			_ = t.Load64(e.F("offset"))
			_ = t.Load64(e.F("value"))
		}
	})
	if !valid {
		return 0, false // corrupt log: discard (data loss, but no bad reads)
	}
	// Roll back newest-first.
	for i := int(n) - 1; i >= 0; i-- {
		e := p.entries.At(i)
		var off, val uint64
		t.ChecksumGuard(func() {
			off = t.Load64(e.F("offset"))
			val = t.Load64(e.F("value"))
		})
		t.Store64(pmm.Addr(off), val)
		t.Persist(pmm.Addr(off), 8)
		rolledBack++
	}
	t.Store64(p.ulog.F("entry_ptr"), 0)
	t.Persist(p.ulog.F("entry_ptr"), 8)
	return rolledBack, true
}

// RecoverGuarded is the Redis-style open path: Redis validates everything
// it reads from persistent memory against checksums before use, so even the
// entry-pointer read happens under the guard (its races are benign; paper
// Table 5 reports zero harmful races for Redis).
func (p *Pool) RecoverGuarded(t *pmm.Thread) (rolledBack int, valid bool) {
	var n uint64
	t.ChecksumGuard(func() {
		n = t.Load64(p.ulog.F("entry_ptr"))
	})
	if n == 0 || n > ULogCap {
		return 0, true
	}
	valid = false
	t.ChecksumGuard(func() {
		stored := t.Load64(p.ulog.F("checksum"))
		valid = stored == p.computeChecksum(t, int(n))
		// Same whole-region sanity scan as Recover, still under the guard:
		// the reads can observe the in-flight entry a crash interrupted.
		for i := int(n); i < ULogCap; i++ {
			e := p.entries.At(i)
			_ = t.Load64(e.F("offset"))
			_ = t.Load64(e.F("value"))
		}
	})
	if !valid {
		return 0, false
	}
	for i := int(n) - 1; i >= 0; i-- {
		e := p.entries.At(i)
		var off, val uint64
		t.ChecksumGuard(func() {
			off = t.Load64(e.F("offset"))
			val = t.Load64(e.F("value"))
		})
		if off == 0 {
			continue
		}
		t.Store64(pmm.Addr(off), val)
		t.Persist(pmm.Addr(off), 8)
		rolledBack++
	}
	t.Store64(p.ulog.F("entry_ptr"), 0)
	t.Persist(p.ulog.F("entry_ptr"), 8)
	return rolledBack, true
}

// ExpectedHarmful is the deduplicated harmful race the paper reports for
// PMDK (Table 4 #1).
var ExpectedHarmful = []string{"ulog.entry_ptr"}

// ExpectedBenign are the checksum-guarded benign races in the PMDK pool
// (§7.5): the log entries and the checksum word itself.
var ExpectedBenign = []string{
	"ulog.checksum",
	"ulog_entry.offset",
	"ulog_entry.value",
}
