//go:build race

package yashme_test

// table4AllocBound under the race detector, which makes sync.Pool drop a
// random quarter of what is put back: a warm sweep allocates 7.3–10.5 MB
// (GOMAXPROCS 1–16) with recycling and about 34 MB without it.
const table4AllocBound = 11.7

// table3AllocBound under the race detector: a warm sweep allocates
// 4.65–5.65 MB with flat clock arenas and the fold-on-arrival merge
// (GOMAXPROCS 1–8), 4.5–5.9 MB before them with recycling and one shared
// recovery program, 5.3–6.4 MB with a program and Setup per resumed
// scenario, and 10.6–10.9 MB without recycling.
const table3AllocBound = 6.3
