package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"yashme/internal/engine"
	"yashme/internal/pmm"
	"yashme/internal/workload"
)

// span is one timed interval at a layer boundary. Spans of one op share
// Op; Parent is the ID of the span that caused it (0 = none).
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent,omitempty"`
	Op     int32  `json:"op"`
	Layer  string `json:"layer"`
	Bench  string `json:"bench,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() float64 { return float64(s.End - s.Start) }

// tracer keeps spans in memory until the run ends. Program callbacks add
// spans from the engine's worker goroutines, hence the lock.
//
// A traced Table 3 sweep makes about 1,400 spans per op. Keeping every
// op's would grow the live heap by tens of MB and change how often the
// GC-bound sweep collects, so a batch run keeps the spans of its first
// keepOps traced ops and drops the rest once they are summarised.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
	ids   int32
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) id() int32 {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.ids++
	return t.ids
}

// add records a span, assigning its ID if it has none.
func (t *tracer) add(s span) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if s.ID == 0 {
		t.ids++
		s.ID = t.ids
	}
	t.spans = append(t.spans, s)
}

// mark returns the current span count; since(mark) is every span added
// after it.
func (t *tracer) mark() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// keepOps is how many traced ops' spans a batch run writes out.
const keepOps = 16

// drop discards every span added after mark.
func (t *tracer) drop(mark int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = t.spans[:mark]
}

func (t *tracer) since(mark int) []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spans[mark:len(t.spans):len(t.spans)]
}

// wrap returns spec with its Make and the returned program's callbacks
// timed: workload.make around Make, pmm.setup/pre/post around Setup, the
// pre-crash Workers and the recovery callbacks. Every span is a child of
// parent (the op's engine.run span for this benchmark). A simulated crash
// unwinds worker callbacks, so callback spans end in a defer; the panic
// goes on to the engine untouched.
func (t *tracer) wrap(spec workload.Spec, op, parent int32) workload.Spec {
	mk := spec.Make
	name := spec.Name
	timed := func(layer string, f func(*pmm.Thread)) func(*pmm.Thread) {
		return func(th *pmm.Thread) {
			start := t.now()
			defer func() { t.add(span{Parent: parent, Op: op, Layer: layer, Bench: name, Start: start, End: t.now()}) }()
			f(th)
		}
	}
	spec.Make = func() pmm.Program {
		start := t.now()
		p := mk()
		t.add(span{Parent: parent, Op: op, Layer: "workload.make", Bench: name, Start: start, End: t.now()})
		if setup := p.Setup; setup != nil {
			p.Setup = func(h *pmm.Heap) {
				start := t.now()
				defer func() {
					t.add(span{Parent: parent, Op: op, Layer: "pmm.setup", Bench: name, Start: start, End: t.now()})
				}()
				setup(h)
			}
		}
		p.Workers = wrapAll(p.Workers, func(f func(*pmm.Thread)) func(*pmm.Thread) { return timed("pmm.pre", f) })
		if p.PostCrash != nil {
			p.PostCrash = timed("pmm.post", p.PostCrash)
		}
		p.PostCrashWorkers = wrapAll(p.PostCrashWorkers, func(f func(*pmm.Thread)) func(*pmm.Thread) { return timed("pmm.post", f) })
		return p
	}
	return spec
}

// wrapAll returns a new slice (the program's own may be shared) of wrapped
// callbacks, nil for nil.
func wrapAll(fs []func(*pmm.Thread), w func(func(*pmm.Thread)) func(*pmm.Thread)) []func(*pmm.Thread) {
	if fs == nil {
		return nil
	}
	out := make([]func(*pmm.Thread), len(fs))
	for i, f := range fs {
		out[i] = w(f)
	}
	return out
}

// covered returns how much of [start, end) the spans cover, counting
// overlapping spans (callbacks on parallel workers) once.
func covered(spans []span, start, end int64) float64 {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(spans))
	for _, s := range spans {
		a, b := max(s.Start, start), min(s.End, end)
		if a < b {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, curA, curB int64
	for i, v := range ivs {
		switch {
		case i == 0:
			curA, curB = v.a, v.b
		case v.a > curB:
			total += curB - curA
			curA, curB = v.a, v.b
		case v.b > curB:
			curB = v.b
		}
	}
	if len(ivs) > 0 {
		total += curB - curA
	}
	return float64(total)
}

// write writes every span as one JSON line to
// <traceDir>/<workload>-seed<n>.jsonl.
func (t *tracer) write(c config) error {
	if err := os.MkdirAll(c.traceDir, 0o755); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	path := filepath.Join(c.traceDir, fmt.Sprintf("%s-seed%d.jsonl", c.workload, c.seed))
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err = enc.Encode(s); err != nil {
			break
		}
	}
	t.mu.Unlock()
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("write spans to %s: %w", path, err)
	}
	fmt.Fprintf(os.Stderr, "perfbench: spans written to %s\n", path)
	return nil
}

// detectorShare is the companion pass behind core.detector_share: it runs
// each spec's races-run options through the engine, once as is and once
// with DetectorOff (the paper's Jaaru column), alternating which goes
// first, until the deadline. It returns 1 − median(off)/median(on) over
// the rounds' summed run times, and the number of rounds.
func detectorShare(specs []workload.Spec, rng *rand.Rand, deadline time.Time) (float64, int) {
	var on, off []float64
	for len(on) < 3 || time.Now().Before(deadline) {
		seed := drawSeed(rng)
		first := rng.Intn(2) == 0
		var tOn, tOff float64
		for k := 0; k < 2; k++ {
			detOff := (k == 0) == first
			start := time.Now()
			for _, s := range specs {
				opts := paperOptions(s, seed)
				opts.DetectorOff = detOff
				engine.Run(s.Make, opts)
			}
			if detOff {
				tOff = ms(time.Since(start))
			} else {
				tOn = ms(time.Since(start))
			}
		}
		on, off = append(on, tOn), append(off, tOff)
	}
	return 1 - quantile(off, 0.5)/quantile(on, 0.5), len(on)
}
