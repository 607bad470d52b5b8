//go:build race

package yashme_test

// table4AllocBound under the race detector, which makes sync.Pool drop a
// random quarter of what is put back: a warm sweep allocates about 17 MB
// with recycling and about 34 MB without it.
const table4AllocBound = 24
