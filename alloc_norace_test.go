//go:build !race

package yashme_test

// table4AllocBound is the allocation gate for one warm Table 4 random-mode
// sweep, in MB (1e6 bytes). Recycling scenario state brought the sweep from
// about 29 MB to about 4 MB; the bound leaves margin for GC timing, which
// decides how much pooled memory survives between scenarios, and still
// fails if recycling stops.
const table4AllocBound = 15
