// Package compiler models the compiler store optimizations that make
// persistency races possible (paper §3.2, Table 2). It is the substitute
// for the paper's study of gcc 10.3 and LLVM-clang 11.0 binaries: a small
// store-level IR plus the three optimization families the paper documents —
//
//  1. splitting a wide store into a non-atomic pair of narrower stores
//     (gcc's ARM64 backend lowering a 64-bit store-immediate into two
//     32-bit store-immediates: the Figure 1 bug);
//  2. replacing a run of zero stores with a call to memset;
//  3. replacing a run of contiguous assignments with a call to
//     memcpy/memmove.
//
// None of the generated libc calls guarantee 64-bit atomicity, so every
// rewrite below turns a language-level store into something a crash can
// tear. Atomic (volatile) stores are never touched — which is why P-CLHT,
// whose critical stores are volatile, shows zero memops in both columns of
// Table 2b.
package compiler

import (
	"fmt"
	"strings"
)

// Arch is a target architecture of the study.
type Arch int

// Architectures covered by Table 2a.
const (
	X86_64 Arch = iota
	ARM64
)

func (a Arch) String() string {
	if a == ARM64 {
		return "ARM64"
	}
	return "x86-64"
}

// Compiler identifies the producing compiler.
type Compiler int

// Compilers covered by Table 2a.
const (
	GCC Compiler = iota
	Clang
)

func (c Compiler) String() string {
	if c == GCC {
		return "gcc"
	}
	return "LLVM-clang"
}

// Op is one IR operation: a store or a library call.
type Op interface {
	isOp()
	String() string
}

// Store writes Size bytes of Val at Offset. Zero marks a zero store (memset
// candidate); CopySrc >= 0 marks a load-store copy from that source offset
// (memcpy/memmove candidate); Atomic marks a volatile/atomic store the
// optimizer must not touch.
type Store struct {
	Offset  int
	Size    int
	Val     uint64
	Zero    bool
	CopySrc int // -1 when not a copy
	Atomic  bool
	// Invented marks a compiler-invented store (a stashed temporary the
	// program never wrote at the source level, §3.2).
	Invented bool
}

func (Store) isOp() {}

func (s Store) String() string {
	attrs := ""
	if s.Atomic {
		attrs = " atomic"
	}
	if s.Invented {
		attrs += " invented"
	}
	if s.Zero {
		attrs += " zero"
	}
	if s.CopySrc >= 0 {
		attrs += fmt.Sprintf(" copy-from=%d", s.CopySrc)
	}
	return fmt.Sprintf("store%d [%d] = %#x%s", s.Size*8, s.Offset, s.Val, attrs)
}

// Call is a library memory-operation call: memset, memcpy or memmove.
type Call struct {
	Fn     string // "memset", "memcpy", "memmove"
	Offset int
	Src    int // source offset for copies; -1 for memset
	Size   int
	Val    byte // fill byte for memset
}

func (Call) isOp() {}

func (c Call) String() string {
	if c.Fn == "memset" {
		return fmt.Sprintf("call memset([%d], %#x, %d)", c.Offset, c.Val, c.Size)
	}
	return fmt.Sprintf("call %s([%d], [%d], %d)", c.Fn, c.Offset, c.Src, c.Size)
}

// Routine is a straight-line sequence of IR operations (one function body).
type Routine struct {
	Name string
	Ops  []Op
}

// Program is a set of routines (one benchmark's relevant translation
// units).
type Program struct {
	Name     string
	Routines []Routine
}

// CountMemOps counts memset/memcpy/memmove operations — the paper's
// "#src-op" and "#asm-op" metric (Table 2b).
func (p Program) CountMemOps() int {
	n := 0
	for _, r := range p.Routines {
		for _, op := range r.Ops {
			if _, ok := op.(Call); ok {
				n++
			}
		}
	}
	return n
}

func (p Program) String() string {
	var b strings.Builder
	for _, r := range p.Routines {
		fmt.Fprintf(&b, "%s:\n", r.Name)
		for _, op := range r.Ops {
			fmt.Fprintf(&b, "  %s\n", op)
		}
	}
	return b.String()
}

// St builds a plain store op.
func St(offset, size int, val uint64) Store {
	return Store{Offset: offset, Size: size, Val: val, Zero: val == 0, CopySrc: -1}
}

// ZeroSt builds a zero store (memset candidate).
func ZeroSt(offset, size int) Store {
	return Store{Offset: offset, Size: size, Zero: true, CopySrc: -1}
}

// CopySt builds a copy store (memcpy candidate) from src to offset.
func CopySt(offset, size, src int) Store {
	return Store{Offset: offset, Size: size, CopySrc: src}
}

// AtomicSt builds an atomic/volatile store the optimizer must preserve.
func AtomicSt(offset, size int, val uint64) Store {
	return Store{Offset: offset, Size: size, Val: val, Atomic: true, CopySrc: -1}
}
