//go:build !race

package yashme_test

// table4AllocBound is the allocation gate for one warm Table 4 random-mode
// sweep, in MB (1e6 bytes). Recycling scenario state brought the sweep from
// about 29 MB to about 4 MB; the bound leaves margin for GC timing, which
// decides how much pooled memory survives between scenarios, and still
// fails if recycling stops.
const table4AllocBound = 15

// table3AllocBound is the allocation gate for one warm Table 3 model-check
// sweep, in MB. Recycling resumed scenarios' state brought it from about
// 8 MB to 2.9–4.3 MB (GOMAXPROCS 1–8); without that recycling the sweep
// reads 7.9–8.5 MB and fails.
const table3AllocBound = 6.0
