//go:build race

package yashme_test

// table4AllocBound under the race detector, which makes sync.Pool drop a
// random quarter of what is put back: a warm sweep allocates about 17 MB
// with recycling and about 34 MB without it.
const table4AllocBound = 24

// table3AllocBound under the race detector: a warm sweep allocates
// 8.0–8.8 MB with recycling (GOMAXPROCS 1–8) and 10.6–10.9 MB without it.
const table3AllocBound = 9.8
