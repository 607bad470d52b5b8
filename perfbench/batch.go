package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"time"

	"yashme/internal/engine"
	"yashme/internal/suite"
	"yashme/internal/workload"
)

// batchKind is a closed-loop sweep workload: one client, each op one
// suite.RunContext over a tag's races runs with default options.
type batchKind struct {
	tag string
	// seeded draws a fresh engine seed per op from the workload seed
	// (random mode). Unseeded ops all repeat the same deterministic sweep,
	// so each op's Canonical JSON must equal the reference op's, byte for
	// byte.
	seeded bool
}

var (
	batchTable3 = batchKind{tag: workload.TagTable3}
	batchTable4 = batchKind{tag: workload.TagTable4, seeded: true}
)

// sweepOut is one op: the suite result, its Canonical JSON and timings.
type sweepOut struct {
	res   *suite.Result
	canon []byte
	// sweep is the suite run alone; json the Canonical().JSON() rendering.
	sweep, json time.Duration
}

// op runs one sweep. specs, when non-nil, replaces the registry's specs
// (the traced run hands in wrapped ones); the selection is the same.
func (k batchKind) op(specs []workload.Spec, seed int64) (sweepOut, error) {
	cfg := suite.Config{Specs: specs, Tags: []string{k.tag}, Variants: []string{suite.VariantRaces}, Seed: seed}
	start := time.Now()
	res := suite.RunContext(context.Background(), cfg)
	mid := time.Now()
	canon, err := res.Canonical().JSON()
	if err != nil {
		return sweepOut{}, fmt.Errorf("render canonical JSON: %w", err)
	}
	return sweepOut{res: res, canon: canon, sweep: mid.Sub(start), json: time.Since(mid)}, nil
}

func (o sweepOut) total() time.Duration { return o.sweep + o.json }

// batchRun holds a batch workload's state between set-up and the window.
type batchRun struct {
	kind  batchKind
	c     config
	rng   *rand.Rand
	exp   *expectation
	ref   sweepOut
	specs []workload.Spec
}

func runBatch(c config, k batchKind) (*outcome, error) {
	b := &batchRun{kind: k, c: c, rng: rand.New(rand.NewSource(c.seed))}
	// The reference op runs with the engine's default seed, so set-up does
	// the same work whatever the workload seed; the window's ops draw
	// theirs.
	var setupProbe hostProbe
	setupS, setupWall, err := timeSetup(&setupProbe, func(last bool) error {
		specs := workload.Tagged(k.tag)
		ref, err := k.op(nil, 0)
		if err != nil {
			return err
		}
		exp := newExpectation(c.expect)
		if err := exp.learn(ref.res); err != nil && last {
			fmt.Fprintf(os.Stderr, "perfbench: reference op: %v\n", err)
		}
		if last {
			b.specs, b.ref, b.exp = specs, ref, exp
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	setupProbe.release()
	o := &outcome{}
	if c.traced {
		return o, b.traced(o)
	}
	o.set("setup_s", setupS, "s")
	o.notes = append(o.notes, setupWall)

	var lat []float64
	var probe hostProbe
	before := readRuntime()
	start := time.Now()
	for deadline := start.Add(c.window); time.Now().Before(deadline); {
		out, err := k.op(nil, b.nextSeed())
		if err != nil {
			return nil, err
		}
		lat = append(lat, ms(out.total()))
		b.verify(o, out)
		probe.maybe()
	}
	o.notes = append(o.notes, wallSummary(lat, o.attempted-o.failed, time.Since(start)-probe.spent))
	var d runtimeSnap
	d.add(before, readRuntime())
	o.setCost(d, &probe, o.attempted)
	probe.release()
	o.set("live_heap_mb", liveHeapMB(), "MB")
	o.adjust(&setupProbe, &probe)
	return o, nil
}

func (b *batchRun) nextSeed() int64 {
	if b.kind.seeded {
		return drawSeed(b.rng)
	}
	return 0
}

// verify counts the op and, when its verdict is wrong, the failure.
func (b *batchRun) verify(o *outcome, out sweepOut) {
	o.attempted++
	err := b.exp.check(out.res, len(b.specs))
	if err == nil && !b.kind.seeded {
		err = checkBytes(out.canon, b.ref.canon)
	}
	if err != nil {
		if o.failed++; o.failed <= 3 {
			fmt.Fprintf(os.Stderr, "perfbench: op %d: %v\n", o.attempted, err)
		}
	}
}

// traced is the traced run, in three phases of the window. The first
// quarter runs untraced ops only and reads the runtime counters around
// them: spans allocate, and the GC-bound sweeps would show it. The next
// half alternates traced ops (wrapped specs, spans recorded) with
// untraced ones, so the tracing overhead is measured inside one run. The
// last quarter is the DetectorOff companion pass.
func (b *batchRun) traced(o *outcome) error {
	var (
		tr            = newTracer()
		ls            layerSamples
		cnt           counters
		probe         hostProbe
		latOn, latOff []float64 // traced / untraced op times of the second phase
		wallNs        float64
		gc            runtimeSnap
		gcOps         int
	)
	run := func(traced bool, op int32) (sweepOut, error) {
		seed := b.nextSeed()
		var out sweepOut
		var err error
		if traced {
			out, err = b.tracedOp(tr, &ls, op, seed)
		} else {
			out, err = b.kind.op(nil, seed)
		}
		if err == nil {
			b.verify(o, out)
			cnt.add(out.res)
			wallNs += float64(out.sweep)
		}
		return out, err
	}
	start := time.Now()
	r0 := readRuntime()
	for time.Now().Before(start.Add(b.c.window / 4)) {
		if _, err := run(false, 0); err != nil {
			return err
		}
		gcOps++
	}
	gc.add(r0, readRuntime())
	parity := b.rng.Intn(2)
	for i := 0; time.Now().Before(start.Add(b.c.window * 3 / 4)); i++ {
		traced := (i+parity)%2 == 0
		probe.maybe() // not in the first quarter: its collections would count
		out, err := run(traced, int32(i+1))
		if err != nil {
			return err
		}
		if traced {
			latOn = append(latOn, ms(out.total()))
		} else {
			latOff = append(latOff, ms(out.total()))
		}
	}
	share, rounds := detectorShare(b.specs, b.rng, start.Add(b.c.window))

	o.set("engine.run_ms.p50", quantile(ls.runMs, 0.5), "ms")
	o.set("engine.self_ms.mean", mean(ls.engSelf), "ms")
	o.set("engine.ns_per_simop", ratio(wallNs, float64(cnt.stats.SimulatedOps)), "ns")
	cnt.set(o)
	o.set("workload.makes_per_op", ratio(float64(len(ls.makeUs)), float64(len(latOn))), "count")
	o.set("workload.make_us.mean", mean(ls.makeUs), "us")
	o.set("pmm.setup_ms.mean", mean(ls.setupMs), "ms")
	o.set("pmm.pre_ms.mean", mean(ls.preMs), "ms")
	o.set("pmm.post_ms.mean", mean(ls.postMs), "ms")
	o.set("core.detector_share", share, "ratio")
	o.set("core.detector_rounds", float64(rounds), "count")
	o.set("suite.self_ms.mean", mean(ls.suiteSelf), "ms")
	o.set("report.json_ms.mean", mean(ls.jsonMs), "ms")
	o.set("report.json_kb", mean(ls.jsonKB), "KB")
	o.setGC(gc, gcOps)
	o.set("host.probe_ms", probe.medianMs(), "ms")
	o.set("trace.ops", float64(len(latOn)), "count")
	o.set("trace.spans", float64(ls.spans), "count")
	o.set("trace.overhead_share", quantile(latOn, 0.5)/quantile(latOff, 0.5)-1, "ratio")
	o.set("e2e.op_ms.p50", quantile(latOff, 0.5), "ms")
	o.set("e2e.op_ms.p90", quantile(latOff, 0.9), "ms")
	return tr.write(b.c)
}

// layerSamples collects the traced ops' per-layer samples.
type layerSamples struct {
	runMs, engSelf, makeUs    []float64 // per engine run / per Make call
	preMs, postMs, setupMs    []float64 // callback time summed per op
	suiteSelf, jsonMs, jsonKB []float64 // per op
	spans                     int
}

// tracedOp runs op number op with wrapped specs, adds the engine.run,
// report.json and op spans the callbacks could not make, and summarises
// the op's spans into ls. Past the first keepOps traced ops it drops them.
func (b *batchRun) tracedOp(tr *tracer, ls *layerSamples, op int32, seed int64) (sweepOut, error) {
	opID := tr.id()
	runIDs := make(map[string]int32, len(b.specs))
	specs := make([]workload.Spec, len(b.specs))
	for j, s := range b.specs {
		runIDs[s.Name] = tr.id()
		specs[j] = tr.wrap(s, op, runIDs[s.Name])
	}
	mark := tr.mark()
	opStart := tr.now()
	out, err := b.kind.op(specs, seed)
	if err != nil {
		return out, err
	}
	opEnd := tr.now()

	children := map[int32][]span{}
	var pre, post, setup float64
	opSpans := tr.since(mark)
	ls.spans += len(opSpans) + len(b.specs) + 2 // + engine.run, report.json, op
	for _, s := range opSpans {
		children[s.Parent] = append(children[s.Parent], s)
		switch s.Layer {
		case "workload.make":
			ls.makeUs = append(ls.makeUs, s.dur()/1e3)
		case "pmm.pre":
			pre += s.dur()
		case "pmm.post":
			post += s.dur()
		case "pmm.setup":
			setup += s.dur()
		}
	}
	ls.preMs, ls.postMs, ls.setupMs = append(ls.preMs, pre/1e6), append(ls.postMs, post/1e6), append(ls.setupMs, setup/1e6)
	var runs []span
	for _, bench := range out.res.Benchmarks {
		run := bench.Run(suite.RunRaces)
		id := runIDs[bench.Name]
		kids := children[id]
		rs := opStart // anchored at the run's first Make call
		for k, c := range kids {
			if k == 0 || c.Start < rs {
				rs = c.Start
			}
		}
		re := rs + run.ElapsedNs
		runs = append(runs, span{ID: id, Parent: opID, Op: op, Layer: "engine.run", Bench: bench.Name, Start: rs, End: re})
		tr.add(runs[len(runs)-1])
		ls.runMs = append(ls.runMs, float64(run.ElapsedNs)/1e6)
		ls.engSelf = append(ls.engSelf, (float64(run.ElapsedNs)-covered(kids, rs, re))/1e6)
	}
	// The suite's self time: the sweep less what its engine runs cover.
	sweepEnd := opStart + out.sweep.Nanoseconds()
	ls.suiteSelf = append(ls.suiteSelf, (float64(out.sweep.Nanoseconds())-covered(runs, opStart, sweepEnd))/1e6)
	tr.add(span{Parent: opID, Op: op, Layer: "report.json", Start: sweepEnd, End: sweepEnd + out.json.Nanoseconds()})
	tr.add(span{ID: opID, Op: op, Layer: "op", Start: opStart, End: opEnd})
	ls.jsonMs = append(ls.jsonMs, ms(out.json))
	ls.jsonKB = append(ls.jsonKB, float64(len(out.canon))/1024)
	if len(ls.jsonMs) > keepOps {
		tr.drop(mark)
	}
	return out, nil
}

// counters accumulates the engine counters of op results.
type counters struct {
	ops   int
	execs int64
	stats engine.Stats
}

func (c *counters) add(res *suite.Result) {
	t := res.TotalStats()
	c.ops++
	c.stats.SimulatedOps += t.SimulatedOps
	c.stats.DirectOps += t.DirectOps
	c.stats.SnapshotBytes += t.SnapshotBytes
	c.stats.JournalOps += t.JournalOps
	c.stats.DedupedScenarios += t.DedupedScenarios
	c.stats.ClockInterned += t.ClockInterned
	c.stats.EpochHits += t.EpochHits
	c.stats.EpochMisses += t.EpochMisses
	for _, b := range res.Benchmarks {
		for _, r := range b.Runs {
			c.execs += int64(r.Executions)
		}
	}
}

// set reports the engine and vclock counters per op.
func (c *counters) set(o *outcome) {
	s, execs, ops := c.stats, c.execs, float64(c.ops)
	o.set("engine.simops_per_op", ratio(float64(s.SimulatedOps), ops), "count")
	o.set("engine.scenarios_per_op", ratio(float64(execs), ops), "count")
	o.set("engine.direct_share", ratio(float64(s.DirectOps), float64(s.SimulatedOps)), "ratio")
	o.set("engine.dedup_ratio", ratio(float64(s.DedupedScenarios), float64(execs)), "ratio")
	o.set("engine.snapshot_kb_per_op", ratio(float64(s.SnapshotBytes)/1024, ops), "KB")
	o.set("engine.journal_ops_per_op", ratio(float64(s.JournalOps), ops), "count")
	o.set("vclock.epoch_hit_ratio", ratio(float64(s.EpochHits), float64(s.EpochHits+s.EpochMisses)), "ratio")
	o.set("vclock.interned_per_op", ratio(float64(s.ClockInterned), ops), "count")
}
