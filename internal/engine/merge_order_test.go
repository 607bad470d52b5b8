package engine

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"yashme/internal/fuzzprog"
	"yashme/internal/pmm"
	"yashme/internal/report"
	"yashme/internal/workload"
)

// collectSpecs plans and executes one run's specs sequentially and returns
// their results in emission order, unmerged.
func collectSpecs(mk func() pmm.Program, opts Options) []*specResult {
	ctx := context.Background()
	var out []*specResult
	planSpecs(ctx, mk, opts, func(spec scenarioSpec) {
		out = append(out, execSpec(ctx, mk, opts, spec))
	})
	return out
}

// copyResult returns r with private copies of its report sets, so one
// collected run can be merged again and again (the merge releases what it
// folds).
func copyResult(r *specResult) *specResult {
	c := *r
	c.reports = nil
	for _, s := range r.reports {
		c.reports = append(c.reports, s.Clone())
	}
	return &c
}

// foldInOrder merges copies of rs, arriving in the given order, and
// renders the Result with its cost counters, beside the panic the run
// would raise.
func foldInOrder(t *testing.T, opts Options, rs []*specResult, order []int) (string, any) {
	t.Helper()
	res := newResult(opts)
	m := &merger{res: res}
	for _, i := range order {
		m.add(copyResult(rs[i]))
	}
	m.finish()
	type pass struct {
		Races, Benign []report.Race
		Raw           int
	}
	out := struct {
		Passes     []pass
		Window     []PointStat
		Executions int
		Stats      Stats
	}{Window: res.Window, Executions: res.ExecutionsRun, Stats: res.Stats}
	for _, p := range res.Passes {
		out.Passes = append(out.Passes, pass{p.Report.Races(), p.Report.Benign(), p.Report.RawCount})
	}
	b, err := json.Marshal(out)
	if err != nil {
		t.Fatal(err)
	}
	return string(b), m.panicked
}

// TestMergeArrivalOrders feeds one model-check run's spec results to the
// merger in seeded random arrival orders and in descending index order,
// and requires the Result and the raised panic to equal the in-order
// fold's. The Table 3 programs run with crash-image memoization on, so
// duplicates arrive before their representatives; one representative is
// turned into a cancelled (skipped) placeholder, whose duplicates must be
// skipped with it, and two specs panic, a representative among them. A
// traced fuzz program, whose equally canonical race representatives carry
// witnesses of different crashes, checks that the lowest-index spec's
// witness is kept whatever the order.
func TestMergeArrivalOrders(t *testing.T) {
	type run struct {
		name string
		mk   func() pmm.Program
		opts Options
	}
	var runs []run
	for _, spec := range workload.Tagged(workload.TagTable3) {
		runs = append(runs, run{spec.Name, spec.Make, Options{Prefix: true}})
	}
	for seed := int64(1); seed <= 12; seed++ {
		mk, _ := fuzzprog.Generate(fuzzprog.Default(), seed)
		runs = append(runs, run{fmt.Sprintf("fuzz-%d-traced", seed), mk, Options{Prefix: true, Trace: true}})
	}
	dupsFirst, skippedDups := 0, 0
	for _, r := range runs {
		opts := r.opts
		opts.Workers = 1
		opts = opts.withDefaults()
		rs := collectSpecs(r.mk, opts)

		// Index the results by spec index; an order lists arrivals by it.
		byIdx := make([]*specResult, len(rs))
		var reps []int
		for _, x := range rs {
			byIdx[x.spec.idx] = x
			if x.spec.retain {
				reps = append(reps, x.spec.idx)
			}
		}
		// unskipped lists the specs a cancelled representative leaves.
		var unskipped []int
		if len(reps) >= 2 {
			skip := reps[0]
			byIdx[skip] = &specResult{spec: byIdx[skip].spec, skipped: true}
			for i, x := range byIdx {
				if i == skip || x.spec.dedupOf-1 == skip {
					skippedDups++
					continue
				}
				unskipped = append(unskipped, i)
			}
			byIdx[reps[1]].panicked = fmt.Sprintf("%s: representative %d panics", r.name, reps[1])
		}
		if n := len(byIdx); n > 2 {
			byIdx[n-2].panicked = fmt.Sprintf("%s: spec %d panics", r.name, n-2)
		}

		inOrder := make([]int, len(byIdx))
		for i := range inOrder {
			inOrder[i] = i
		}
		want, wantPanic := foldInOrder(t, opts, byIdx, inOrder)
		// A skipped representative and its duplicates contribute nothing:
		// folding without them gives the same Result.
		if unskipped != nil {
			if got, _ := foldInOrder(t, opts, byIdx, unskipped); got != want {
				t.Errorf("%s: a skipped representative's duplicates were folded:\n got %s\nwant %s", r.name, want, got)
			}
		}
		orders := [][]int{slices.Clone(inOrder)}
		slices.Reverse(orders[0])
		for seed := int64(1); seed <= 20; seed++ {
			orders = append(orders, rand.New(rand.NewSource(seed)).Perm(len(byIdx)))
		}
		for k, order := range orders {
			seen := make([]bool, len(byIdx))
			for _, i := range order {
				if d := byIdx[i].spec.dedupOf; d > 0 && !seen[d-1] {
					dupsFirst++
				}
				seen[i] = true
			}
			got, gotPanic := foldInOrder(t, opts, byIdx, order)
			if got != want {
				t.Errorf("%s, order %d: merged result diverges from the in-order fold:\n got %s\nwant %s", r.name, k, got, want)
			}
			if gotPanic != wantPanic {
				t.Errorf("%s, order %d: panic %v, the in-order fold raises %v", r.name, k, gotPanic, wantPanic)
			}
		}
	}
	if dupsFirst == 0 || skippedDups <= 1 {
		t.Errorf("no duplicate arrived before its representative (%d) or none named the skipped one (%d): the orders test nothing", dupsFirst, skippedDups)
	}
}
