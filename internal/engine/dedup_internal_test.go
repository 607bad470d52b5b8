package engine

// Property tests for crash-image memoization (checkpoint.go): the dedup
// layer may only merge two crash points when their image-determining state
// is byte-identical, and merged points must be observationally equivalent —
// a duplicate's scenario, run for real, reports exactly what its
// representative's does.

import (
	"bytes"
	"hash/maphash"
	"maps"
	"testing"
	"testing/quick"

	"yashme/internal/fuzzprog"
)

// TestFileNeverMergesOnHashAlone forces every signature into a single hash
// bucket — the worst case, where each insertion compares against every
// class — and checks that file only ever records a duplicate for
// byte-identical signatures. This is the collision-safety property the
// memoization rests on: the hash routes, bytes decide.
func TestFileNeverMergesOnHashAlone(t *testing.T) {
	prop := func(sigs [][]byte) bool {
		k := &snapshotSink{
			sigs: &sigIndex{classes: make(map[uint64][]sigClass)},
			dups: make(map[int]int),
		}
		byPoint := make(map[int][]byte, len(sigs))
		for i, s := range sigs {
			point := i + 1
			byPoint[point] = s
			k.file(point, 0, s) // same bucket for everything
		}
		for dup, rep := range k.dups {
			if !bytes.Equal(byPoint[dup], byPoint[rep]) {
				return false
			}
			if rep >= dup {
				return false // representatives must be earlier points
			}
		}
		// Classes in the bucket must be pairwise distinct.
		x := k.sigs
		cs := x.classes[0]
		for i := range cs {
			for j := i + 1; j < len(cs); j++ {
				if bytes.Equal(x.slab[cs[i].lo:cs[i].hi], x.slab[cs[j].lo:cs[j].hi]) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestDedupPairsEquivalent probes random programs exactly as planModelCheck
// does and, for every duplicate the sink classified, checks the claim the
// merge layer relies on: the duplicate's materialized detector carries the
// same state signature as its representative's, and actually running both
// scenarios (snapshot resume + post-crash execution) yields byte-identical
// reports and race counts.
func TestDedupPairsEquivalent(t *testing.T) {
	dupsSeen := 0
	for seed := int64(1); seed <= 30; seed++ {
		mk, _ := fuzzprog.Generate(fuzzprog.Default(), seed)
		opts := Options{Mode: ModelCheck, Prefix: true, Seed: seed}.withDefaults()
		probe := newScenario(mk, opts, plan{}, PersistLatest, seed)
		sink := newSnapshotSink(0, opts.MaxCrashPoints)
		sink.configureProbe(opts, probe.det)
		probe.capture = sink
		probe.run() // takes the completion snapshot and seals the journal itself

		for dup, rep := range sink.dups {
			ds, rs := sink.snaps[dup], sink.snaps[rep]
			if ds == nil || rs == nil {
				continue // beyond the capture cap
			}
			dupsSeen++
			dd, rd := ds.materializeDetector(), rs.materializeDetector()
			dsig := dd.Current().AppendStateSignature(nil)
			rsig := rd.Current().AppendStateSignature(nil)
			if !bytes.Equal(dsig, rsig) {
				t.Fatalf("seed %d: dup point %d and rep %d materialize different detector state", seed, dup, rep)
			}
			for _, pp := range opts.PersistPolicies {
				dsc := runPlanned(mk, opts, ds, plan{0: dup}, pp, seed, nil)
				rsc := runPlanned(mk, opts, rs, plan{0: rep}, pp, seed, nil)
				if d, r := dsc.det.Report().String(), rsc.det.Report().String(); d != r {
					t.Fatalf("seed %d: dup point %d reports differ from rep %d (policy %v):\n%s\nvs\n%s",
						seed, dup, rep, pp, d, r)
				}
				if d, r := dsc.det.Report().Count(), rsc.det.Report().Count(); d != r {
					t.Fatalf("seed %d: dup point %d race count %d != rep %d count %d", seed, dup, d, rep, r)
				}
			}
		}
	}
	if dupsSeen == 0 {
		t.Fatal("no duplicate crash points classified across 30 fuzz programs; memoization is inert")
	}
}

// TestDedupIndependentOfHashSeed classifies the same probes under two
// different signature-hash seeds and requires identical duplicate maps:
// the seed changes which bucket a signature lands in, never which points
// merge or which point represents them.
func TestDedupIndependentOfHashSeed(t *testing.T) {
	probeDups := func(seed int64, hashSeed maphash.Seed) map[int]int {
		mk, _ := fuzzprog.Generate(fuzzprog.Default(), seed)
		opts := Options{Mode: ModelCheck, Prefix: true, Seed: seed}.withDefaults()
		probe := newScenario(mk, opts, plan{}, PersistLatest, seed)
		sink := newSnapshotSink(0, opts.MaxCrashPoints)
		sink.configureProbe(opts, probe.det)
		sink.seed = hashSeed
		probe.capture = sink
		probe.run()
		return sink.dups
	}
	s1, s2 := maphash.MakeSeed(), maphash.MakeSeed()
	if maphash.String(s1, "probe") == maphash.String(s2, "probe") {
		t.Fatal("two fresh seeds hash alike; the test would compare one routing with itself")
	}
	dupsSeen := 0
	for seed := int64(1); seed <= 30; seed++ {
		a, b := probeDups(seed, s1), probeDups(seed, s2)
		if !maps.Equal(a, b) {
			t.Fatalf("seed %d: duplicate maps differ between hash seeds:\n%v\nvs\n%v", seed, a, b)
		}
		dupsSeen += len(a)
	}
	if dupsSeen == 0 {
		t.Fatal("no duplicate crash points classified across 30 fuzz programs; the comparison is vacuous")
	}
}
