package engine

// Property tests for crash-image memoization (checkpoint.go): the dedup
// layer may only merge two crash points when their image-determining state
// is byte-identical, and merged points must be observationally equivalent —
// a duplicate's scenario, run for real, reports exactly what its
// representative's does.

import (
	"bytes"
	"context"
	"fmt"
	"hash/maphash"
	"maps"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"

	"yashme/internal/fuzzprog"
	"yashme/internal/pmm"
	"yashme/internal/workload"
	_ "yashme/internal/workload/all"
)

// TestFileNeverMergesOnHashAlone forces every signature into a single hash
// bucket — the worst case, where each insertion compares against every
// class — and checks that file only ever records a duplicate for
// byte-identical signatures. This is the collision-safety property the
// memoization rests on: the hash routes, bytes decide.
func TestFileNeverMergesOnHashAlone(t *testing.T) {
	prop := func(sigs [][]byte) bool {
		k := &positionLog{sigs: sigIndex{classes: make(map[uint64][]sigClass)}}
		byPoint := make(map[int][]byte, len(sigs))
		dups := make(map[int]int)
		for i, s := range sigs {
			point := i + 1
			byPoint[point] = s
			if rep := k.file(point, 0, s); rep > 0 { // same bucket for everything
				dups[point] = rep
			}
		}
		for dup, rep := range dups {
			if !bytes.Equal(byPoint[dup], byPoint[rep]) {
				return false
			}
			if rep >= dup {
				return false // representatives must be earlier points
			}
		}
		// Classes in the bucket must be pairwise distinct.
		x := &k.sigs
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
// does and, for every duplicate the log classified, checks the claim the
// merge layer relies on: the duplicate's rewound copy carries the same
// state signature as its representative's, and actually running both
// scenarios (snapshot resume + post-crash execution) yields byte-identical
// reports and race counts. The copies come from a second, unmemoized walk
// of the same deterministic schedule, since a memoized walk gives a
// duplicate only its operation counts.
func TestDedupPairsEquivalent(t *testing.T) {
	dupsSeen := 0
	for seed := int64(1); seed <= 30; seed++ {
		mk, _ := fuzzprog.Generate(fuzzprog.Default(), seed)
		opts := Options{Mode: ModelCheck, Prefix: true, Seed: seed}.withDefaults()
		_, dups := probeWalk(mk, opts, true, nil)
		snaps, _ := probeWalk(mk, opts, false, nil)
		for dup, rep := range dups {
			ds, rs := snaps[dup], snaps[rep]
			dupsSeen++
			dsig := ds.det.Current().AppendStateSignature(nil)
			rsig := rs.det.Current().AppendStateSignature(nil)
			if !bytes.Equal(dsig, rsig) {
				t.Fatalf("seed %d: dup point %d and rep %d rewind to different detector state", seed, dup, rep)
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
		_, dups := probeWalk(mk, opts, true, func(log *positionLog) { log.seed = hashSeed })
		return dups
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

// twinOutcome is one persist policy's scenario at one crash point, run as
// the marking twin (markTwins set): whether its recovery read an image
// entry where the Latest and Minimal images differ, and what it reported
// and counted.
type twinOutcome struct {
	readDiffers bool
	reports     []string
	raw         []int
	stats       Stats
}

// runTwin resumes snap under policy pp as runSpec's first Latest/Minimal
// scenario would, and records its outcome.
func runTwin(mk func() pmm.Program, opts Options, snap *snapshot, c int, pp PersistPolicy) twinOutcome {
	sc := runPlanned(mk, opts, snap, plan{0: c}, pp, opts.Seed, func(sc *scenario) { sc.markTwins = true })
	out := twinOutcome{readDiffers: sc.readDiffers, stats: sc.stats}
	out.stats.ZeroCost()
	for _, rep := range sc.stack.Reports() {
		out.reports = append(out.reports, rep.String())
		out.raw = append(out.raw, rep.RawCount)
	}
	sc.retire()
	return out
}

// probeWalk runs a model-check probe of mk under opts and walks it
// backwards as planModelCheck does, returning every explored point's
// snapshot and the duplicate map (point → representative). With memo off
// every point gets a full copy, duplicates included. arm, when non-nil,
// adjusts the armed log before the probe runs.
func probeWalk(mk func() pmm.Program, opts Options, memo bool, arm func(*positionLog)) (map[int]*snapshot, map[int]int) {
	probe := newScenario(mk, opts, plan{}, PersistLatest, opts.Seed)
	log := positionLogPool.Get().(*positionLog)
	defer log.release()
	rp := newRecoveryProgram(mk)
	if !rp.fits(probe) {
		panic("engine: probe Setup does not fit its recovery program")
	}
	log.watch(probe, opts, rp.workers)
	if !memo {
		log.seal()
		log.dedup = false
	}
	if arm != nil {
		arm(log)
	}
	probe.runPreCrash()
	limit := probe.crashPoints[0]
	if opts.MaxCrashPoints > 0 {
		limit = min(limit, opts.MaxCrashPoints)
	}
	snaps, dups := make(map[int]*snapshot), make(map[int]int)
	walkBackward(limit, func(c int) {
		snaps[c] = log.copyAt(probe, c)
		if rp := log.dupOf[c]; rp > 0 {
			dups[c] = rp
		}
	})
	probe.retire()
	return snaps, dups
}

// probeSnapshots returns a full copy at every explored crash point of mk.
func probeSnapshots(mk func() pmm.Program, opts Options) map[int]*snapshot {
	snaps, _ := probeWalk(mk, opts, false, nil)
	return snaps
}

// twinProgram is one program TestPolicyTwinsEquivalent model-checks.
type twinProgram struct {
	name string
	mk   func() pmm.Program
	seed int64
}

// twinPrograms are the Table 3 programs and fuzzprog seeds 1-12.
func twinPrograms() []twinProgram {
	var progs []twinProgram
	for _, spec := range workload.Tagged(workload.TagTable3) {
		progs = append(progs, twinProgram{spec.Name, spec.Make, 0})
	}
	for seed := int64(1); seed <= 12; seed++ {
		mk, _ := fuzzprog.Generate(fuzzprog.Default(), seed)
		progs = append(progs, twinProgram{fmt.Sprintf("fuzz seed %d", seed), mk, seed})
	}
	return progs
}

// TestPolicyTwinsEquivalent checks the claim runSpec's policy twins rest
// on: at a crash point whose PersistLatest recovery read no image entry
// where the Latest and Minimal images differ, the PersistMinimal scenario —
// run here for real — reports the same bytes and raw counts and counts the
// same operations, and vice versa (the relation is symmetric: both
// recoveries read the same entries with the same values). It covers every
// crash point of the Table 3 programs and fuzz programs, in the default and
// the stacked yashme,xfd configuration.
func TestPolicyTwinsEquivalent(t *testing.T) {
	if n := unsafe.Sizeof(imageEntry{}); n != 56 {
		t.Errorf("imageEntry is %d bytes, want 56", n)
	}
	progs := twinPrograms()
	for _, stack := range [][]string{nil, {"yashme", "xfd"}} {
		collapsed, split := 0, 0
		for _, prog := range progs {
			opts := Options{Mode: ModelCheck, Prefix: true, Seed: prog.seed, Analyses: stack}.withDefaults()
			for c, snap := range probeSnapshots(prog.mk, opts) {
				latest := runTwin(prog.mk, opts, snap, c, PersistLatest)
				minimal := runTwin(prog.mk, opts, snap, c, PersistMinimal)
				where := fmt.Sprintf("%s %v point %d", prog.name, opts.Analyses, c)
				if latest.readDiffers != minimal.readDiffers {
					t.Fatalf("%s: Latest read a differing entry: %v, Minimal: %v", where, latest.readDiffers, minimal.readDiffers)
				}
				if latest.readDiffers {
					split++
					continue
				}
				collapsed++
				for p := range latest.reports {
					if latest.reports[p] != minimal.reports[p] {
						t.Fatalf("%s: pass %d reports differ:\n%s\nvs\n%s", where, p, latest.reports[p], minimal.reports[p])
					}
					if latest.raw[p] != minimal.raw[p] {
						t.Fatalf("%s: pass %d raw counts %d vs %d", where, p, latest.raw[p], minimal.raw[p])
					}
				}
				if latest.stats != minimal.stats {
					t.Fatalf("%s: stats differ:\n%+v\nvs\n%+v", where, latest.stats, minimal.stats)
				}
			}
		}
		t.Logf("%v: %d collapsed, %d split", stack, collapsed, split)
		if collapsed == 0 || split == 0 {
			t.Fatalf("%v: %d collapsed and %d split twins; the check is vacuous", stack, collapsed, split)
		}
	}
}

// unflushedFlag is a program whose recovery branches on a value left
// unflushed at the last crash points: v is flushed at 1, then set to 2
// without a flush, and the recovery reads w only when it sees v == 2.
func unflushedFlag() pmm.Program {
	var v, w pmm.Addr
	return pmm.Program{
		Name: "unflushed-flag",
		Setup: func(h *pmm.Heap) {
			v = h.AllocStruct("flag", pmm.Layout{{Name: "v", Size: 8}}).F("v")
			w = h.AllocStruct("data", pmm.Layout{{Name: "w", Size: 8}}).F("w")
		},
		Workers: []func(*pmm.Thread){func(t *pmm.Thread) {
			t.Store64(v, 1)
			t.CLFlush(v)
			t.SFence()
			t.Store64(w, 7)
			t.Store64(v, 2)
			t.SFence()
		}},
		PostCrash: func(t *pmm.Thread) {
			if t.Load64(v) == 2 {
				t.Load64(w)
			}
		},
	}
}

// TestPolicyTwinsSplitOnDifferingRead: where the recovery reads a store
// the crash left unflushed, the Latest and Minimal images differ at that
// address, so runSpec must simulate both policies — and here the Minimal
// recovery takes the other branch, so its report differs.
func TestPolicyTwinsSplitOnDifferingRead(t *testing.T) {
	opts := Options{Mode: ModelCheck, Prefix: true, Workers: 1}.withDefaults()
	snaps := probeSnapshots(unflushedFlag, opts)
	const c = 3 // before the last SFence: v == 2 is committed, not flushed
	latest := runTwin(unflushedFlag, opts, snaps[c], c, PersistLatest)
	minimal := runTwin(unflushedFlag, opts, snaps[c], c, PersistMinimal)
	if !latest.readDiffers || !minimal.readDiffers {
		t.Fatalf("the recovery read v, which differs between the images; recorded %v/%v", latest.readDiffers, minimal.readDiffers)
	}
	if latest.reports[0] == minimal.reports[0] || !strings.Contains(latest.reports[0], "data") || strings.Contains(minimal.reports[0], "data") {
		t.Fatalf("only the Latest recovery reads w:\nLatest:\n%s\nMinimal:\n%s", latest.reports[0], minimal.reports[0])
	}
	out := runSpec(context.Background(), unflushedFlag, opts, scenarioSpec{crashPoint: c, plan: plan{0: c}, seed: opts.Seed, snap: snaps[c]})
	if out.executions != 2 || out.stats.DedupedScenarios != 0 {
		t.Fatalf("runSpec collapsed a split twin: %d executions, %d deduped", out.executions, out.stats.DedupedScenarios)
	}
	if got, want := out.reports[0].String(), latest.reports[0]; got != want {
		t.Fatalf("the spec's report lost the Latest-only race:\n%s\nwant\n%s", got, want)
	}
}
