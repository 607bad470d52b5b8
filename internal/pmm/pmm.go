// Package pmm defines the persistent-memory program model.
//
// Yashme instruments LLVM IR so that compiled C/C++ persistent-memory
// programs report their loads, stores, cache-line flushes and fences to a
// simulator. This Go reproduction replaces that front end: workloads are Go
// functions that issue the same events against a simulated persistent heap.
// Package pmm holds everything a workload needs — addresses, cache-line
// geometry, a heap of named objects, and the Thread handle exposing the
// Px86 operation surface — while the simulation itself lives in
// internal/engine and the race detector in internal/core.
package pmm

import (
	"fmt"
	"hash/maphash"
	"sort"
)

// Addr is a byte address in the simulated persistent memory.
type Addr uint64

// CacheLineSize is the simulated cache-line size in bytes, matching x86.
const CacheLineSize = 64

// Line identifies a cache line.
type Line uint64

// LineOf returns the cache line containing a.
func LineOf(a Addr) Line { return Line(a / CacheLineSize) }

// SameLine reports whether two addresses fall on the same cache line.
func SameLine(a, b Addr) bool { return LineOf(a) == LineOf(b) }

// FieldDef declares one field of a persistent struct layout.
type FieldDef struct {
	Name string
	Size int // bytes: 1, 2, 4 or 8
}

// Layout is an ordered list of fields. Offsets are assigned in order with
// natural alignment (each field aligned to its own size), like a C struct
// without packing pragmas.
type Layout []FieldDef

type fieldInfo struct {
	name   string
	offset int
	size   int
}

type layoutInfo struct {
	fields []fieldInfo
	byName map[string]int
	size   int // struct size, rounded up to max alignment
	// labels memoizes LabelFor for every allocation of this layout (see
	// labelKey). It grows with program shape only — the labels, element
	// indices and offsets the detector names — never with heaps, scenarios
	// or jobs, and it is shared by every heap of the process.
	labels memo[labelKey, string]
}

// layoutCache memoizes buildLayout by layout contents: every probe, every
// from-scratch scenario and every recovery allocation builds a program's
// same handful of struct layouts, concurrently across workers and engine
// runs, and would otherwise rebuild them (fields, name index, size
// computation) each time. layoutInfo is immutable once built (its label
// memo is safe for concurrent use), so sharing one instance is safe. The
// cache is keyed by a hash of the contents, and a hit is confirmed field
// by field, so a lookup allocates nothing; a layout whose hash collides
// with a different cached one is simply built uncached.
var (
	layoutCache memo[uint64, *layoutInfo]
	layoutSeed  = maphash.MakeSeed()
)

func buildLayout(l Layout) *layoutInfo {
	var mh maphash.Hash
	mh.SetSeed(layoutSeed)
	for _, f := range l {
		mh.WriteString(f.Name)
		mh.WriteByte(0)
		mh.WriteByte(byte(f.Size))
	}
	key := mh.Sum64()
	info, ok := layoutCache.load(key)
	if !ok {
		info = layoutCache.store(key, func() *layoutInfo { return buildLayoutUncached(l) })
	}
	if !info.is(l) {
		return buildLayoutUncached(l) // a different layout owns this hash
	}
	return info
}

// is reports whether info was built from exactly the fields of l.
func (info *layoutInfo) is(l Layout) bool {
	if len(info.fields) != len(l) {
		return false
	}
	for i, f := range l {
		if info.fields[i].name != f.Name || info.fields[i].size != f.Size {
			return false
		}
	}
	return true
}

func buildLayoutUncached(l Layout) *layoutInfo {
	info := &layoutInfo{byName: make(map[string]int, len(l))}
	off, maxAlign := 0, 1
	for _, f := range l {
		switch f.Size {
		case 1, 2, 4, 8:
		default:
			panic(fmt.Sprintf("pmm: field %q has unsupported size %d", f.Name, f.Size))
		}
		if _, dup := info.byName[f.Name]; dup {
			panic(fmt.Sprintf("pmm: duplicate field %q", f.Name))
		}
		if f.Size > maxAlign {
			maxAlign = f.Size
		}
		off = align(off, f.Size)
		info.byName[f.Name] = len(info.fields)
		info.fields = append(info.fields, fieldInfo{name: f.Name, offset: off, size: f.Size})
		off += f.Size
	}
	info.size = align(off, maxAlign)
	if info.size == 0 {
		info.size = maxAlign
	}
	return info
}

func align(off, a int) int { return (off + a - 1) &^ (a - 1) }

// allocation records one named persistent object (possibly an array).
type allocation struct {
	base   Addr
	size   int // total bytes
	label  string
	layout *layoutInfo
	count  int // array element count; 1 for plain structs
	stride int
}

// Heap allocates named persistent objects. Each allocation is cache-line
// aligned so that struct layouts control line sharing deterministically
// (several of the reproduced bugs — e.g. CCEH's key/value pair — depend on
// two fields sharing a cache line).
//
// Heap is not safe for concurrent use; the engine serializes all simulated
// threads, so workload code may allocate at any scheduling point.
type Heap struct {
	next   Addr
	allocs []allocation // sorted by base
	inits  []InitWrite
}

// InitWrite is a pre-execution write applied directly to the persistent
// image before the pre-crash execution starts (it is fully persisted and
// never participates in race detection).
type InitWrite struct {
	Addr Addr
	Size int
	Val  uint64
}

// NewHeap returns an empty heap. The first allocation starts at a non-zero,
// line-aligned address so that Addr(0) can mean "null".
func NewHeap() *Heap { return &Heap{next: CacheLineSize} }

// Struct is a handle to an allocated struct instance.
type Struct struct {
	base   Addr
	layout *layoutInfo
	label  string
}

// Array is a handle to an allocated array of structs.
type Array struct {
	base   Addr
	layout *layoutInfo
	label  string
	count  int
	stride int
}

// AllocStruct allocates one struct with the given label and layout.
func (h *Heap) AllocStruct(label string, l Layout) Struct {
	info := buildLayout(l)
	base := h.place(info.size)
	h.allocs = append(h.allocs, allocation{base: base, size: info.size, label: label, layout: info, count: 1, stride: info.size})
	return Struct{base: base, layout: info, label: label}
}

// AllocArray allocates count contiguous struct instances. The element stride
// is the struct size rounded up to 8 bytes so that elements stay internally
// aligned.
func (h *Heap) AllocArray(label string, l Layout, count int) Array {
	if count <= 0 {
		panic("pmm: AllocArray count must be positive")
	}
	info := buildLayout(l)
	stride := align(info.size, 8)
	base := h.place(stride * count)
	h.allocs = append(h.allocs, allocation{base: base, size: stride * count, label: label, layout: info, count: count, stride: stride})
	return Array{base: base, layout: info, label: label, count: count, stride: stride}
}

func (h *Heap) place(size int) Addr {
	base := Addr(align(int(h.next), CacheLineSize))
	h.next = base + Addr(size)
	return base
}

// Snapshot returns an O(1) view of the heap's current state: the
// allocation and init-write slices are the heap's own journal —
// append-only, with elements immutable once placed — so a capacity-capped
// view pins exactly today's prefix without copying a byte. The view is a
// heap in its own right and the two stay independent: later allocations on
// h re-allocate past the cap and never leak into the view, and allocations
// on the view copy its prefix on their first append and never reach h. The
// engine's checkpoint layer keeps one view per crash point, and each
// resumed scenario recovers on its own Snapshot of that view.
func (h *Heap) Snapshot() *Heap {
	return &Heap{
		next:   h.next,
		allocs: h.allocs[:len(h.allocs):len(h.allocs)],
		inits:  h.inits[:len(h.inits):len(h.inits)],
	}
}

// SnapshotAt is Snapshot of an earlier state of h: the one it had when it
// held allocs allocations and inits init writes, with next the next free
// address (AllocCount, len(InitWrites) and NextFree read then). The slices
// are append-only, so their prefixes are exactly that state.
func (h *Heap) SnapshotAt(next Addr, allocs, inits int) *Heap {
	return &Heap{
		next:   next,
		allocs: h.allocs[:allocs:allocs],
		inits:  h.inits[:inits:inits],
	}
}

// AllocCount returns the number of allocations made so far. Together with
// NextFree it fingerprints the heap's shape — the engine's checkpoint layer
// checks once per probe that the probe's Setup built the shape its shared
// recovery program's Setup did, so that handles the recovery closures hold
// name the same objects on the probe's heap.
func (h *Heap) AllocCount() int { return len(h.allocs) }

// NextFree returns the next unallocated address.
func (h *Heap) NextFree() Addr { return h.next }

// Init records a fully-persisted initial value for (addr, size). The engine
// applies Init writes to the persistent image before execution begins.
func (h *Heap) Init(addr Addr, size int, val uint64) {
	h.inits = append(h.inits, InitWrite{Addr: addr, Size: size, Val: val})
}

// InitWrites returns the recorded initial writes.
func (h *Heap) InitWrites() []InitWrite { return h.inits }

// Base returns the struct's base address.
func (s Struct) Base() Addr { return s.base }

// Size returns the struct's size in bytes.
func (s Struct) Size() int { return s.layout.size }

// Field returns the address of the named field and its size.
func (s Struct) Field(name string) (Addr, int) {
	i, ok := s.layout.byName[name]
	if !ok {
		panic(fmt.Sprintf("pmm: struct %q has no field %q", s.label, name))
	}
	f := s.layout.fields[i]
	return s.base + Addr(f.offset), f.size
}

// F returns just the address of the named field.
func (s Struct) F(name string) Addr {
	a, _ := s.Field(name)
	return a
}

// Nth returns the address of the i'th declared field, counting from 0 in
// layout order: F without the name lookup, for programs that address
// array-like runs of fields (key0, key1, …) by position.
func (s Struct) Nth(i int) Addr { return s.base + Addr(s.layout.fields[i].offset) }

// Label returns the struct's allocation label.
func (s Struct) Label() string { return s.label }

// At returns the i'th element of the array as a Struct handle.
func (a Array) At(i int) Struct {
	if i < 0 || i >= a.count {
		panic(fmt.Sprintf("pmm: array %q index %d out of range [0,%d)", a.label, i, a.count))
	}
	return Struct{base: a.base + Addr(i*a.stride), layout: a.layout, label: a.label}
}

// Label returns the array's allocation label.
func (a Array) Label() string { return a.label }

// Base returns the array's base address.
func (a Array) Base() Addr { return a.base }

// Stride returns the distance in bytes between consecutive elements.
func (a Array) Stride() int { return a.stride }

// findAlloc returns the allocation containing addr, or nil.
func (h *Heap) findAlloc(addr Addr) *allocation {
	// allocs are appended in increasing base order.
	i := sort.Search(len(h.allocs), func(i int) bool { return h.allocs[i].base > addr })
	if i == 0 {
		return nil
	}
	a := &h.allocs[i-1]
	if addr >= a.base+Addr(a.size) {
		return nil
	}
	return a
}

// StructAt reattaches a Struct handle to a persisted pointer: it returns
// the handle of the struct instance whose base address is exactly a, or
// ok=false if a is not the base of a structured allocation's element.
//
// This is the Go analog of casting a pointer loaded from persistent memory
// in recovery code. Recovery runs in what is conceptually a fresh process:
// in this engine, a resumed scenario recovers with one program instance
// per engine run whose Setup ran but whose workload closures never did,
// shared by every scenario of the run. So a program that allocates structs
// during its workload keeps no Go-side handle registry; it resolves every
// pointer read from the heap through StructAt on the thread's heap
// (Thread.Heap), which yields the same handle the allocation returned.
func (h *Heap) StructAt(a Addr) (Struct, bool) {
	al := h.findAlloc(a)
	if al == nil {
		return Struct{}, false
	}
	off := int(a - al.base)
	if off%al.stride != 0 || off/al.stride >= al.count {
		return Struct{}, false
	}
	return Struct{base: a, layout: al.layout, label: al.label}, true
}

// FieldCount returns the number of declared fields in the struct's layout;
// programs use it to discriminate variants reattached via StructAt (e.g.
// adaptive tree nodes whose capacity is encoded in their field count).
func (s Struct) FieldCount() int { return len(s.layout.fields) }

// ArrayAt reattaches an Array handle to a persisted pointer: it returns the
// handle of the array allocation whose base address is exactly a, or
// ok=false if a is not the base of a structured allocation. Like StructAt,
// this is for recovery code resolving pointers read from persistent memory.
func (h *Heap) ArrayAt(a Addr) (Array, bool) {
	al := h.findAlloc(a)
	if al == nil || al.base != a {
		return Array{}, false
	}
	return Array{base: al.base, layout: al.layout, label: al.label, count: al.count, stride: al.stride}, true
}

// NextAllocBase returns the base address of the allocation made immediately
// after the one containing a. Programs whose logical objects span two
// consecutive allocations (e.g. a node header plus its entry array) use it
// to reattach the companion allocation from the first one's address.
func (h *Heap) NextAllocBase(a Addr) (Addr, bool) {
	i := sort.Search(len(h.allocs), func(i int) bool { return h.allocs[i].base > a })
	if i >= len(h.allocs) {
		return 0, false
	}
	return h.allocs[i].base, true
}

// labelKey is what an address's label depends on besides its
// allocation's layout: the allocation label, the element index (-1 for a
// plain struct) and the byte offset within the element.
type labelKey struct {
	alloc    string
	idx, off int
}

// LabelFor renders a human-readable name for an address: "Obj.field",
// "Obj[3].field", "Obj.+8" for an offset no field covers, or "0xADDR" if
// the address is unknown. Race reports use these names as the bug's root
// cause, mirroring the paper's Tables 3 and 4 which identify bugs by
// field.
//
// The detector labels the same few racing addresses on every candidate
// check of every crash scenario, so names are memoized per layout, where
// every heap of every scenario and worker shares them: a hit allocates
// nothing. Unknown addresses are rendered afresh; they do not name program
// state.
func (h *Heap) LabelFor(addr Addr) string {
	a := h.findAlloc(addr)
	if a == nil {
		return fmt.Sprintf("0x%x", uint64(addr))
	}
	k := labelKey{alloc: a.label, idx: -1, off: int(addr - a.base)}
	if a.count > 1 {
		k.idx, k.off = k.off/a.stride, k.off%a.stride
	}
	if s, ok := a.layout.labels.load(k); ok {
		return s
	}
	return a.layout.labels.store(k, func() string { return a.layout.label(k) })
}

// label renders the name of k's address in an allocation of this layout.
func (info *layoutInfo) label(k labelKey) string {
	fieldName := fmt.Sprintf("+%d", k.off)
	for _, f := range info.fields {
		if k.off >= f.offset && k.off < f.offset+f.size {
			fieldName = f.name
			break
		}
	}
	if k.idx >= 0 {
		return fmt.Sprintf("%s[%d].%s", k.alloc, k.idx, fieldName)
	}
	return fmt.Sprintf("%s.%s", k.alloc, fieldName)
}

// FieldAt describes one field instance within an address range; used to
// decompose memset/memcpy into field-granular stores.
type FieldAt struct {
	Addr Addr
	Size int
}

// FieldsIn returns the field-granular access units covering [addr,
// addr+size): the declared fields wholly inside the range. Panics if the
// range is not fully contained in one allocation.
func (h *Heap) FieldsIn(addr Addr, size int) []FieldAt {
	a := h.findAlloc(addr)
	if a == nil || addr+Addr(size) > a.base+Addr(a.size) {
		panic(fmt.Sprintf("pmm: range [0x%x,+%d) not within a single allocation", uint64(addr), size))
	}
	var out []FieldAt
	end := addr + Addr(size)
	for i := 0; i < a.count; i++ {
		elemBase := a.base + Addr(i*a.stride)
		for _, f := range a.layout.fields {
			fa := elemBase + Addr(f.offset)
			if fa >= addr && fa+Addr(f.size) <= end {
				out = append(out, FieldAt{Addr: fa, Size: f.size})
			}
		}
	}
	return out
}
