//go:build !race

package yashme_test

// table4AllocBound is the allocation gate for one warm Table 4 random-mode
// sweep, in MB (1e6 bytes). Recycling scenario state brought the sweep from
// about 29 MB to about 4 MB, and recovering every resumed scenario with
// one shared recovery program to 0.67–2.4 MB (GOMAXPROCS 1–16), and flat
// clock arenas and value crash plans to 0.51–1.84 MB; the bound leaves
// 40% margin for GC timing, which decides how much pooled memory survives
// between scenarios, and still fails if recycling stops.
const table4AllocBound = 2.6

// table3AllocBound is the allocation gate for one warm Table 3 model-check
// sweep, in MB. Recycling resumed scenarios' state brought it from about
// 8 MB to 2.9–4.3 MB (GOMAXPROCS 1–8); without that recycling the sweep
// reads 7.9–8.5 MB and fails. Recovering with one shared recovery program
// instead of a program, Setup and heap graft per scenario brought it to
// 1.0–3.3 MB (GOMAXPROCS 1–8). Flat clock arenas, value crash plans and a
// merge that folds each spec's report sets on arrival, so they go back to
// the pool at once, brought it to 0.45–2.26 MB.
const table3AllocBound = 3.2
