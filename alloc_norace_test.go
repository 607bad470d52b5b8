//go:build !race

package yashme_test

// table4AllocBound is the allocation gate for one warm Table 4 random-mode
// sweep, in MB (1e6 bytes). Recycling scenario state brought the sweep from
// about 29 MB to about 4 MB, and recovering every resumed scenario with
// one shared recovery program to 0.67–2.4 MB (GOMAXPROCS 1–16); the bound
// leaves 40% margin for GC timing, which decides how much pooled memory
// survives between scenarios, and still fails if recycling stops.
const table4AllocBound = 3.4

// table3AllocBound is the allocation gate for one warm Table 3 model-check
// sweep, in MB. Recycling resumed scenarios' state brought it from about
// 8 MB to 2.9–4.3 MB (GOMAXPROCS 1–8); without that recycling the sweep
// reads 7.9–8.5 MB and fails. Recovering with one shared recovery program
// instead of a program, Setup and heap graft per scenario brought it to
// 1.0–3.3 MB (GOMAXPROCS 1–8).
const table3AllocBound = 4.6
