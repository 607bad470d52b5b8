package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"yashme/internal/engine"
	"yashme/internal/service"
	"yashme/internal/suite"
	"yashme/internal/workload"
)

const (
	// serveRate is the open loop's mean arrival rate, about a third of the
	// rate at which the default queue starts refusing with 429.
	serveRate = 100.0
	// maxLateMs marks a run invalid: a generator whose 90th-percentile
	// dispatch is this late fell behind the schedule it was given, and the
	// latencies measure the client, not the service.
	maxLateMs = 20.0
	// probeGap is the idle time ahead a host probe needs, so that it
	// never delays an arrival.
	probeGap = 10 * time.Millisecond
)

// Request kinds of the mix, in blocks of mixBlock arrivals: hitsPerBlock
// repeat a primed request (cache reads), the rest are cold Table 3 and
// Table 4 programs with fresh seeds (simulated, then cached).
const (
	kindHit = iota
	kindTable3
	kindTable4

	mixBlock     = 10
	hitsPerBlock = 8
	t3PerBlock   = 1
)

// arrival is one scheduled request.
type arrival struct {
	due  time.Duration // from the window's start
	kind int
	name string // the program
	body []byte // the request JSON
}

// primed is one of the single-program requests answered during set-up.
type primed struct {
	name string
	body []byte // request JSON
	// result is the priming job's GET /result bytes, compacted for the
	// comparison with a hit's embedded result.
	result []byte
	// err is the priming result's own verdict; hits repeat it.
	err error
}

// server is an in-process Manager behind a loopback listener, with the
// client that drives it over at most NumCPU connections.
type server struct {
	m      *service.Manager
	srv    *http.Server
	served chan error
	base   string
	client *http.Client
	primed []primed
}

func startServer() (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	// yashme-serve's defaults: the zero Config plus its 10-minute job bound.
	m := service.NewManager(service.Config{DefaultTimeout: 10 * time.Minute})
	s := &server{
		m:      m,
		srv:    &http.Server{Handler: service.NewHandler(m), ReadHeaderTimeout: 10 * time.Second},
		served: make(chan error, 1),
		base:   "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     runtime.NumCPU(),
			MaxIdleConnsPerHost: runtime.NumCPU(),
		}},
	}
	go func() { s.served <- s.srv.Serve(ln) }()
	return s, nil
}

// close stops the listener, then the manager, and waits for both.
func (s *server) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	if serr := <-s.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	s.m.Shutdown(ctx)
	s.client.CloseIdleConnections()
	return err
}

// prime submits one single-program races request per benchmark, waits for
// all of them and keeps their results: the cache entries hits will read.
func (s *server) prime(specs []workload.Spec, exp *expectation) error {
	ids := make([]string, len(specs))
	s.primed = make([]primed, len(specs))
	for i, spec := range specs {
		body := requestBody(spec.Name, 0)
		code, raw, err := s.post(body)
		if err != nil {
			return err
		}
		if code != http.StatusAccepted {
			return fmt.Errorf("prime %s: status %d", spec.Name, code)
		}
		st, err := decodeStatus(raw)
		if err != nil {
			return fmt.Errorf("prime %s: %w", spec.Name, err)
		}
		ids[i] = st.ID
		s.primed[i] = primed{name: spec.Name, body: body}
	}
	for i, id := range ids {
		job, err := s.m.Job(id)
		if err != nil {
			return err
		}
		<-job.Done()
		raw, err := s.fetch(id)
		if err != nil {
			return err
		}
		var res suite.Result
		if err := json.Unmarshal(raw, &res); err != nil {
			return fmt.Errorf("prime %s: %w", s.primed[i].name, err)
		}
		s.primed[i].err = exp.learn(&res)
		var buf bytes.Buffer
		if err := json.Compact(&buf, raw); err != nil {
			return err
		}
		s.primed[i].result = buf.Bytes()
	}
	return nil
}

func requestBody(name string, seed int64) []byte {
	b, err := json.Marshal(service.Request{Names: []string{name}, Variants: []string{suite.VariantRaces}, Seed: seed})
	if err != nil { // a Request of plain strings and ints cannot fail
		panic(err)
	}
	return b
}

// post submits a job without waiting and returns the reply's status code
// and bytes (the job's status, for a 200 or 202).
func (s *server) post(body []byte) (int, []byte, error) {
	resp, err := s.client.Post(s.base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	return resp.StatusCode, raw, err
}

func decodeStatus(raw []byte) (service.JobStatus, error) {
	var st service.JobStatus
	err := json.Unmarshal(raw, &st)
	return st, err
}

// fetch reads a finished job's canonical result bytes.
func (s *server) fetch(id string) ([]byte, error) {
	resp, err := s.client.Get(s.base + "/v1/jobs/" + id + "/result")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("GET result of %s: status %d", id, resp.StatusCode)
	}
	return raw, err
}

// reply is one request's measured outcome.
type reply struct {
	due, start, postEnd, waitEnd, done time.Time
	late, latency                      time.Duration
	// runNs is the job's run time as the manager reports it.
	runNs        int64
	hit, refused bool
	result       []byte
	err          error
	// size is filled in by verifyReply.
	size int
}

// do runs one request: POST without wait; a 200 carries the result
// embedded, a 202 is followed by waiting on the job's Done() through the
// manager handle and GET /v1/jobs/{id}/result.
func (s *server) do(body []byte) reply {
	var r reply
	r.start = time.Now()
	code, raw, err := s.post(body)
	r.postEnd = time.Now()
	switch {
	case err != nil:
		r.err = err
		return r
	case code == http.StatusTooManyRequests:
		r.refused = true
		r.err = errors.New("refused: 429")
		return r
	case code != http.StatusOK && code != http.StatusAccepted:
		r.err = fmt.Errorf("POST: status %d", code)
		return r
	}
	st, err := decodeStatus(raw)
	if err != nil {
		r.err = err
		return r
	}
	if code == http.StatusOK { // the result is in hand
		r.hit, r.result = st.CacheHit, st.Result
		r.waitEnd, r.done = r.postEnd, r.postEnd
		if st.State != service.StateDone {
			r.err = fmt.Errorf("job %s: state %s", st.ID, st.State)
		}
		return r
	}
	job, err := s.m.Job(st.ID)
	if err != nil {
		r.err = err
		return r
	}
	<-job.Done()
	r.waitEnd = time.Now()
	fin := job.Status()
	r.runNs = fin.ElapsedNs
	if fin.State != service.StateDone {
		r.err = fmt.Errorf("job %s: state %s: %s", st.ID, fin.State, fin.Error)
		return r
	}
	r.result, r.err = s.fetch(st.ID)
	r.done = time.Now()
	return r
}

// schedule draws the window's arrivals from the seed: exactly
// serveRate×window requests at exponential gaps rescaled to fill the
// window, kinds in shuffled blocks of exact proportions, programs from
// shuffled bags so every program recurs evenly.
func schedule(rng *rand.Rand, window time.Duration, primedSet []primed, t3, t4 []workload.Spec) []arrival {
	n := int(serveRate * window.Seconds())
	gaps := make([]float64, n)
	total := 0.0
	for i := range gaps {
		gaps[i] = rng.ExpFloat64()
		total += gaps[i]
	}
	kinds := make([]int, 0, n+mixBlock)
	for len(kinds) < n {
		block := make([]int, mixBlock)
		for i := range block {
			switch {
			case i < hitsPerBlock:
				block[i] = kindHit
			case i < hitsPerBlock+t3PerBlock:
				block[i] = kindTable3
			default:
				block[i] = kindTable4
			}
		}
		rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
		kinds = append(kinds, block...)
	}
	hits := newBag(rng, len(primedSet))
	bag3, bag4 := newBag(rng, len(t3)), newBag(rng, len(t4))
	out := make([]arrival, n)
	at := 0.0
	for i := range out {
		at += gaps[i]
		a := arrival{due: time.Duration(at / total * float64(window)), kind: kinds[i]}
		switch a.kind {
		case kindHit:
			p := primedSet[hits.next()]
			a.name, a.body = p.name, p.body
		case kindTable3:
			a.name = t3[bag3.next()].Name
			a.body = requestBody(a.name, drawSeed(rng))
		default:
			a.name = t4[bag4.next()].Name
			a.body = requestBody(a.name, drawSeed(rng))
		}
		out[i] = a
	}
	return out
}

// bag deals indices 0..n-1 in a fresh shuffled order each round.
type bag struct {
	rng  *rand.Rand
	n    int
	deal []int
}

func newBag(rng *rand.Rand, n int) *bag { return &bag{rng: rng, n: n} }

func (b *bag) next() int {
	if len(b.deal) == 0 {
		b.deal = b.rng.Perm(b.n)
	}
	i := b.deal[0]
	b.deal = b.deal[1:]
	return i
}

func runServe(c config) (*outcome, error) {
	rng := rand.New(rand.NewSource(c.seed))
	var (
		s                *server
		exp              *expectation
		t3, t4, programs []workload.Spec
	)
	var setupProbe hostProbe
	setupS, setupWall, err := timeSetup(&setupProbe, func(last bool) error {
		t3, t4 = workload.Tagged(workload.TagTable3), workload.Tagged(workload.TagTable4)
		srv, err := startServer()
		if err != nil {
			return err
		}
		e := newExpectation(c.expect)
		programs = append(append([]workload.Spec(nil), t3...), t4...)
		if err := srv.prime(programs, e); err != nil {
			srv.close()
			return err
		}
		if !last {
			return srv.close()
		}
		s, exp = srv, e
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	setupProbe.release()
	window := c.window
	if c.traced {
		window = c.window * 3 / 4 // the last quarter is the detector companion
	}
	sched := schedule(rng, window, s.primed, t3, t4)
	var tr *tracer
	if c.traced {
		tr = newTracer()
	}
	parity := rng.Intn(2)
	w := s.window(sched, tr, parity)

	o := &outcome{}
	primedBy := make(map[string]primed, len(s.primed))
	for _, p := range s.primed {
		primedBy[string(p.body)] = p
	}
	var (
		cnt       counters
		lat, late []float64
	)
	for i := range w.replies {
		r := &w.replies[i]
		o.attempted++
		late = append(late, ms(r.late))
		if r.err == nil {
			r.err = verifyReply(sched[i], r, exp, primedBy, &cnt)
		}
		if r.err == nil {
			lat = append(lat, ms(r.latency))
			continue
		}
		if o.failed++; o.failed <= 3 {
			fmt.Fprintf(os.Stderr, "perfbench: request %d (%s): %v\n", i, sched[i].name, r.err)
		}
	}
	if c.traced {
		w.setLayers(o, parity, &cnt)
	}
	// What the client holds is not the service's heap.
	replies := len(w.replies)
	w.replies, sched = nil, nil
	w.probe.release()
	live := liveHeapMB()
	retained := 0
	for _, n := range s.m.Metrics().Jobs {
		retained += n
	}
	if err := s.close(); err != nil {
		return nil, fmt.Errorf("shutdown: %w", err)
	}

	if p90 := quantile(late, 0.9); p90 > maxLateMs {
		o.invalid = fmt.Sprintf("generator fell behind: late_ms.p90 %.2f > %.0f", p90, maxLateMs)
	}
	if !c.traced {
		o.set("setup_s", setupS, "s")
		o.notes = append(o.notes, setupWall)
		o.notes = append(o.notes, wallSummary(lat, len(lat), w.elapsed))
		o.setCost(w.rt, &w.probe, replies)
		o.set("live_heap_mb", live, "MB")
		o.adjust(&setupProbe, &w.probe)
		return o, nil
	}

	o.setGC(w.rt, replies)
	o.set("loadgen.late_ms.p90", quantile(late, 0.9), "ms")
	o.set("service.jobs_retained", float64(retained), "count")
	o.set("service.budget_busy", w.budgetBusy, "ratio")
	o.set("trace.spans", float64(tr.mark()), "count")
	share, rounds := detectorShare(programs, rng, time.Now().Add(c.window-window))
	o.set("core.detector_share", share, "ratio")
	o.set("core.detector_rounds", float64(rounds), "count")
	return o, tr.write(c)
}

// setLayers reports a traced window's service, engine and trace metrics.
// Requests of the traced parity carry the spans; the rest are the
// untraced comparison.
func (w *windowOut) setLayers(o *outcome, parity int, cnt *counters) {
	var (
		post, queue, run, fetch, hitLat, coldLat, hitOff, all, kb []float64
		hits, refused, cold, traced                               int
		runNs                                                     float64
	)
	for i, r := range w.replies {
		if r.refused {
			refused++
		}
		if r.err != nil {
			continue
		}
		kb = append(kb, float64(r.size)/1024)
		if r.hit {
			hits++
		} else {
			cold++
			runNs += float64(r.runNs)
		}
		if (i+parity)%2 == 1 {
			all = append(all, ms(r.latency))
			if r.hit {
				hitOff = append(hitOff, ms(r.latency))
			}
			continue
		}
		traced++
		post = append(post, ms(r.postEnd.Sub(r.start)))
		if r.hit {
			hitLat = append(hitLat, ms(r.latency))
		} else {
			coldLat = append(coldLat, ms(r.latency))
			queue = append(queue, ms(r.waitEnd.Sub(r.start))-float64(r.runNs)/1e6)
			run = append(run, float64(r.runNs)/1e6)
			fetch = append(fetch, ms(r.done.Sub(r.waitEnd)))
		}
	}
	o.set("service.post_ms.p50", quantile(post, 0.5), "ms")
	o.set("service.queue_ms.p50", quantile(queue, 0.5), "ms")
	o.set("service.run_ms.p50", quantile(run, 0.5), "ms")
	o.set("service.fetch_ms.p50", quantile(fetch, 0.5), "ms")
	o.set("service.hit_ms.p50", quantile(hitLat, 0.5), "ms")
	o.set("service.cold_ms.p50", quantile(coldLat, 0.5), "ms")
	o.set("service.hit_ratio", ratio(float64(hits), float64(hits+cold)), "ratio")
	o.set("service.refused", float64(refused), "count")
	o.set("report.json_kb", mean(kb), "KB")
	cnt.set(o)
	o.set("engine.ns_per_simop", ratio(runNs, float64(cnt.stats.SimulatedOps)), "ns")
	o.set("trace.ops", float64(traced), "count")
	// Hits alone: traced and untraced requests differ in their mix of
	// cold programs, and the hits are one mode.
	o.set("trace.overhead_share", quantile(hitLat, 0.5)/quantile(hitOff, 0.5)-1, "ratio")
	o.set("e2e.op_ms.p50", quantile(all, 0.5), "ms")
	o.set("e2e.op_ms.p90", quantile(all, 0.9), "ms")
}

// verifyReply checks one reply: a hit's embedded result equals its
// priming job's bytes; a cold job simulated and found the paper's races.
// It records the result's size and adds a cold job's engine counters to cnt.
func verifyReply(a arrival, r *reply, exp *expectation, primedBy map[string]primed, cnt *counters) error {
	r.size = len(r.result)
	if a.kind == kindHit {
		p := primedBy[string(a.body)]
		if p.err != nil {
			return p.err
		}
		if !r.hit {
			return errors.New("primed request was not a cache hit")
		}
		var buf bytes.Buffer
		if err := json.Compact(&buf, r.result); err != nil {
			return err
		}
		return checkBytes(buf.Bytes(), p.result)
	}
	if r.hit {
		return errors.New("cold request was answered from the cache")
	}
	var res suite.Result
	if err := json.Unmarshal(r.result, &res); err != nil {
		return fmt.Errorf("decode result: %w", err)
	}
	cnt.add(&res)
	return exp.check(&res, 1)
}

// windowOut is what the open loop measured.
type windowOut struct {
	replies []reply
	elapsed time.Duration
	// rt is the runtime counters' change over the window.
	rt runtimeSnap
	// budgetBusy is the mean occupancy of the shared scenario budget,
	// sampled every millisecond (traced runs only).
	budgetBusy float64
	// probe holds the host probes taken while no request was in flight
	// (untraced runs only: a probe's collection would count in the
	// traced run's GC metrics).
	probe hostProbe
}

// window runs the open loop: one dispatcher sleeps until each arrival is
// due and hands it to its own goroutine, so a slow reply never delays the
// next request. Latency runs from the due time to the result bytes.
// Without a tracer, while no request is in flight and the next is more
// than probeGap away, the dispatcher probes the host speed (see host.go).
// With a tracer, every other request (by parity) records its spans as it
// completes.
func (s *server) window(sched []arrival, tr *tracer, parity int) windowOut {
	w := windowOut{replies: make([]reply, len(sched))}
	stop, sampled := make(chan struct{}), make(chan float64, 1)
	traced := tr != nil
	if traced {
		go func() { sampled <- sampleBudget(s.m.Budget(), stop) }()
	}
	var wg sync.WaitGroup
	var inFlight atomic.Int32
	idle := make(chan struct{}, 1) // a request finished with none left in flight
	before := readRuntime()
	start := time.Now()
	for i, a := range sched {
		due := start.Add(a.due)
		if !traced {
			w.probeWhileIdle(due, &inFlight, idle)
		}
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		late := time.Since(due)
		wg.Add(1)
		inFlight.Add(1)
		go func(i int, a arrival) {
			defer wg.Done()
			r := s.do(a.body)
			r.due, r.late, r.latency = due, late, r.done.Sub(due)
			if traced && (i+parity)%2 == 0 {
				r.record(tr, int32(i+1), a.name)
			}
			w.replies[i] = r
			if inFlight.Add(-1) == 0 {
				select {
				case idle <- struct{}{}:
				default:
				}
			}
		}(i, a)
	}
	wg.Wait()
	w.rt.add(before, readRuntime())
	close(stop)
	if traced {
		w.budgetBusy = <-sampled
	}
	var last time.Time
	for _, r := range w.replies {
		if r.done.After(last) {
			last = r.done
		}
	}
	w.elapsed = last.Sub(start)
	return w
}

// record adds the request's spans: the op from its due time, and POST,
// plus the Done() wait and GET for a job that was not answered at once.
func (r *reply) record(tr *tracer, op int32, name string) {
	rel := func(t time.Time) int64 { return t.Sub(tr.epoch).Nanoseconds() }
	opID := tr.id()
	tr.add(span{Parent: opID, Op: op, Layer: "service.post", Bench: name, Start: rel(r.start), End: rel(r.postEnd)})
	if !r.waitEnd.Equal(r.postEnd) {
		tr.add(span{Parent: opID, Op: op, Layer: "service.wait", Bench: name, Start: rel(r.postEnd), End: rel(r.waitEnd)})
		tr.add(span{Parent: opID, Op: op, Layer: "service.fetch", Bench: name, Start: rel(r.waitEnd), End: rel(r.done)})
	}
	tr.add(span{ID: opID, Op: op, Layer: "op", Bench: name, Start: rel(r.due), End: rel(r.done)})
}

// probeWhileIdle takes a host probe, if one is due, once no request is in
// flight and the next arrival is more than probeGap away.
func (w *windowOut) probeWhileIdle(due time.Time, inFlight *atomic.Int32, idle <-chan struct{}) {
	if !w.probe.due() {
		return
	}
	for {
		wait := time.Until(due) - probeGap
		if wait <= 0 {
			return
		}
		if inFlight.Load() == 0 {
			w.probe.take()
			return
		}
		t := time.NewTimer(wait)
		select {
		case <-idle:
			t.Stop()
		case <-t.C:
			return
		}
	}
}

// sampleBudget returns the mean occupancy of the budget until stop closes.
func sampleBudget(b *engine.Budget, stop <-chan struct{}) float64 {
	t := time.NewTicker(time.Millisecond)
	defer t.Stop()
	var sum float64
	var n int
	for {
		select {
		case <-stop:
			return ratio(sum, float64(n))
		case <-t.C:
			sum += float64(b.InUse()) / float64(b.Size())
			n++
		}
	}
}
