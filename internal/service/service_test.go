package service

import (
	"bytes"
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"yashme/internal/analysis"
	"yashme/internal/core"
	"yashme/internal/engine"
	"yashme/internal/pmm"
	"yashme/internal/suite"
	"yashme/internal/workload"
)

// Test workloads, registered into this binary's registry only. svc-probe
// is a fast table3-shaped benchmark that also tracks cross-job simulation
// concurrency; svc-slow has enough crash points to still be running when a
// test cancels it, and its recoveries can be held at a gate so that it
// surely is; svc-panic dies in its pre-crash body.
var (
	probeInFlight, probeMaxSeen int32

	slowMu     sync.Mutex
	slowNotify chan<- struct{} // non-blocking signal: a slow scenario started
	slowGate   <-chan struct{} // when set, svc-slow recoveries wait for it to close
)

func notifySlow() {
	slowMu.Lock()
	ch := slowNotify
	slowMu.Unlock()
	if ch != nil {
		select {
		case ch <- struct{}{}:
		default:
		}
	}
}

// waitSlowGate holds an svc-slow recovery until the armed gate opens.
func waitSlowGate() {
	slowMu.Lock()
	gate := slowGate
	slowMu.Unlock()
	if gate != nil {
		<-gate
	}
}

// gateSlow holds every svc-slow recovery until the returned open is
// called, for one test: a job the test cancels cannot finish before the
// cancellation lands. open may be called more than once; the test's
// cleanup calls it too.
func gateSlow(t *testing.T) (open func()) {
	t.Helper()
	ch := make(chan struct{})
	slowMu.Lock()
	slowGate = ch
	slowMu.Unlock()
	var once sync.Once
	open = func() { once.Do(func() { close(ch) }) }
	t.Cleanup(func() {
		open()
		slowMu.Lock()
		slowGate = nil
		slowMu.Unlock()
	})
	return open
}

// armSlow points svc-slow's started-signal at a fresh channel for one test.
func armSlow(t *testing.T) <-chan struct{} {
	t.Helper()
	ch := make(chan struct{}, 1)
	slowMu.Lock()
	slowNotify = ch
	slowMu.Unlock()
	t.Cleanup(func() {
		slowMu.Lock()
		slowNotify = nil
		slowMu.Unlock()
	})
	return ch
}

// smallProgram stores, flushes and fences one field iters times and reads
// it back in recovery. onWorker runs as the pre-crash worker starts and
// onRecover as recovery starts; either may be nil.
func smallProgram(name string, iters int, onWorker, onRecover func()) func() pmm.Program {
	return func() pmm.Program {
		var val pmm.Addr
		return pmm.Program{
			Name: name,
			Setup: func(h *pmm.Heap) {
				val = h.AllocStruct("o", pmm.Layout{{Name: "v", Size: 8}}).F("v")
			},
			Workers: []func(*pmm.Thread){func(t *pmm.Thread) {
				if onWorker != nil {
					onWorker()
				}
				for i := 0; i < iters; i++ {
					t.Store64(val, uint64(i))
					t.CLFlush(val)
					t.SFence()
				}
			}},
			PostCrash: func(t *pmm.Thread) {
				if onRecover != nil {
					onRecover()
				}
				t.Load64(val)
			},
		}
	}
}

func init() {
	gauge := func() {
		n := atomic.AddInt32(&probeInFlight, 1)
		for {
			m := atomic.LoadInt32(&probeMaxSeen)
			if n <= m || atomic.CompareAndSwapInt32(&probeMaxSeen, m, n) {
				break
			}
		}
		time.Sleep(time.Millisecond) // widen the overlap window
		atomic.AddInt32(&probeInFlight, -1)
	}
	workload.Register(workload.Spec{
		Name: "svc-probe", Order: 9001, ModelCheck: true,
		Tags: []string{workload.TagTable3},
		Make: smallProgram("svc-probe", 6, gauge, nil),
	})
	workload.Register(workload.Spec{
		Name: "svc-slow", Order: 9002, ModelCheck: true,
		Tags: []string{workload.TagTable3},
		Make: smallProgram("svc-slow", 250, notifySlow, waitSlowGate),
	})
	workload.Register(workload.Spec{
		Name: "svc-panic", Order: 9003, ModelCheck: true,
		Tags: []string{workload.TagTable3},
		Make: smallProgram("svc-panic", 2, func() { panic("rigged workload") }, nil),
	})
}

func contextWithTimeout(d time.Duration) (context.Context, context.CancelFunc) {
	return context.WithTimeout(context.Background(), d)
}

func newTestManager(t *testing.T, cfg Config) *Manager {
	t.Helper()
	m := NewManager(cfg)
	t.Cleanup(func() {
		ctx, cancel := contextWithTimeout(5 * time.Second)
		defer cancel()
		m.Shutdown(ctx)
	})
	return m
}

func waitJob(t *testing.T, job *Job) JobStatus {
	t.Helper()
	select {
	case <-job.Done():
	case <-time.After(30 * time.Second):
		t.Fatalf("job %s never reached a terminal state", job.id)
	}
	return job.Status()
}

func probeReq() Request {
	return Request{Names: []string{"svc-probe"}, Variants: []string{suite.VariantRaces}}
}

// A cache hit must serve the byte-identical body of the fresh run — which
// itself must be byte-identical to a direct suite run of the same config —
// with the hit counter incremented and zero additional simulated ops.
func TestCacheHitByteIdentity(t *testing.T) {
	m := newTestManager(t, Config{Jobs: 1, Budget: engine.NewBudget(2)})

	first, err := m.Submit(probeReq())
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	st1 := waitJob(t, first)
	if st1.State != StateDone || st1.CacheHit {
		t.Fatalf("fresh job: state %s cacheHit %v, want done/false (err %q)", st1.State, st1.CacheHit, st1.Error)
	}
	simAfterFresh := m.Metrics().Engine.SimulatedOps
	if simAfterFresh == 0 {
		t.Fatal("fresh run recorded no simulated ops")
	}

	second, err := m.Submit(probeReq())
	if err != nil {
		t.Fatalf("resubmit: %v", err)
	}
	st2 := waitJob(t, second)
	if st2.State != StateDone || !st2.CacheHit {
		t.Fatalf("repeat job: state %s cacheHit %v, want done/true", st2.State, st2.CacheHit)
	}
	if !bytes.Equal(st1.Result, st2.Result) {
		t.Fatalf("cache hit body differs from fresh body:\n%s\nvs\n%s", st1.Result, st2.Result)
	}

	mm := m.Metrics()
	if mm.Cache.Hits != 1 || mm.Cache.Misses != 1 {
		t.Fatalf("cache hits/misses = %d/%d, want 1/1", mm.Cache.Hits, mm.Cache.Misses)
	}
	if mm.Engine.SimulatedOps != simAfterFresh {
		t.Fatalf("cache hit simulated %d extra ops", mm.Engine.SimulatedOps-simAfterFresh)
	}

	// The service body is the canonical JSON a direct suite run produces.
	req, err := normalize(probeReq())
	if err != nil {
		t.Fatalf("normalize: %v", err)
	}
	direct := suite.RunContext(context.Background(), suiteConfig(req, engine.NewBudget(2)))
	want, err := direct.Canonical().JSON()
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	if !bytes.Equal(st1.Result, want) {
		t.Fatalf("service body != direct suite Canonical JSON:\n%s\nvs\n%s", st1.Result, want)
	}
}

// Concurrent jobs draw from one budget: with a budget of one, two jobs'
// suites never overlap a simulation, extending TestBudgetBoundsConcurrency
// across jobs — and without the cache both still produce identical bodies.
func TestConcurrentJobsShareBudget(t *testing.T) {
	atomic.StoreInt32(&probeInFlight, 0)
	atomic.StoreInt32(&probeMaxSeen, 0)
	m := newTestManager(t, Config{Jobs: 2, Budget: engine.NewBudget(1), CacheBytes: -1})

	a, err := m.Submit(probeReq())
	if err != nil {
		t.Fatalf("submit a: %v", err)
	}
	b, err := m.Submit(probeReq())
	if err != nil {
		t.Fatalf("submit b: %v", err)
	}
	sa, sb := waitJob(t, a), waitJob(t, b)
	if sa.State != StateDone || sb.State != StateDone {
		t.Fatalf("states %s/%s, want done/done", sa.State, sb.State)
	}
	if sa.CacheHit || sb.CacheHit {
		t.Fatal("cache disabled, yet a job hit it")
	}
	if got := atomic.LoadInt32(&probeMaxSeen); got != 1 {
		t.Fatalf("max concurrent simulations across jobs = %d, want 1 under a budget of 1", got)
	}
	if !bytes.Equal(sa.Result, sb.Result) {
		t.Fatal("two fresh runs of the same request differ")
	}
}

// Cancelling a running job cuts it at a scenario boundary: terminal state
// cancelled, a well-formed partial result retained, no goroutines leaked,
// and the next job on the same manager is unaffected.
func TestCancelRunningJob(t *testing.T) {
	base := runtime.NumGoroutine()
	m := NewManager(Config{Jobs: 1, Budget: engine.NewBudget(2), CacheBytes: -1})
	started := armSlow(t)
	open := gateSlow(t)

	job, err := m.Submit(Request{Names: []string{"svc-slow"}, Variants: []string{suite.VariantRaces}})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	select {
	case <-started:
	case <-time.After(30 * time.Second):
		t.Fatal("slow job never started simulating")
	}
	if _, err := m.Cancel(job.id); err != nil {
		t.Fatalf("cancel: %v", err)
	}
	open() // no recovery ran before the cancellation was requested
	st := waitJob(t, job)
	if st.State != StateCancelled {
		t.Fatalf("state %s, want cancelled (err %q)", st.State, st.Error)
	}
	if len(st.Result) == 0 || !bytes.Contains(st.Result, []byte(`"cancelled": true`)) {
		t.Fatalf("cancelled job kept no marked partial result: %.200s", st.Result)
	}

	// The manager must be fully usable afterwards.
	next, err := m.Submit(probeReq())
	if err != nil {
		t.Fatalf("submit after cancel: %v", err)
	}
	if st := waitJob(t, next); st.State != StateDone {
		t.Fatalf("follow-up job state %s, want done (err %q)", st.State, st.Error)
	}

	ctx, cancel := contextWithTimeout(5 * time.Second)
	defer cancel()
	m.Shutdown(ctx)
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) && runtime.NumGoroutine() > base+2 {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > base+2 {
		t.Fatalf("goroutine leak after cancel+shutdown: %d live, baseline %d", n, base)
	}
}

// A job that outlives its timeout fails (distinct from cancelled) and
// keeps its partial result.
func TestJobTimeout(t *testing.T) {
	m := newTestManager(t, Config{Jobs: 1, Budget: engine.NewBudget(2), CacheBytes: -1})
	job, err := m.Submit(Request{Names: []string{"svc-slow"}, Variants: []string{suite.VariantRaces}, TimeoutMs: 1})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	st := waitJob(t, job)
	if st.State != StateFailed {
		t.Fatalf("state %s, want failed on timeout (err %q)", st.State, st.Error)
	}
	if len(st.Result) == 0 {
		t.Fatal("timed-out job kept no partial result")
	}
}

// A workload panic fails the job, not the worker: the manager keeps
// serving.
func TestWorkloadPanicFailsJob(t *testing.T) {
	m := newTestManager(t, Config{Jobs: 1, Budget: engine.NewBudget(2)})
	job, err := m.Submit(Request{Names: []string{"svc-panic"}, Variants: []string{suite.VariantRaces}})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if st := waitJob(t, job); st.State != StateFailed || st.Error == "" {
		t.Fatalf("state %s err %q, want failed with a panic message", st.State, st.Error)
	}
	next, err := m.Submit(probeReq())
	if err != nil {
		t.Fatalf("submit after panic: %v", err)
	}
	if st := waitJob(t, next); st.State != StateDone {
		t.Fatalf("follow-up job state %s, want done", st.State)
	}
}

// Submission validation rejects unknown selections at the door.
func TestSubmitValidation(t *testing.T) {
	m := newTestManager(t, Config{Jobs: 1, Budget: engine.NewBudget(1)})
	for name, req := range map[string]Request{
		"unknown tag":      {Tags: []string{"nope"}},
		"unknown workload": {Names: []string{"nope"}},
		"unknown variant":  {Names: []string{"svc-probe"}, Variants: []string{"nope"}},
		"unknown analysis": {Names: []string{"svc-probe"}, Analyses: []string{"nope"}},
		"empty selection":  {Tags: []string{"table5"}, Names: []string{"svc-probe"}},
		"negative timeout": {Names: []string{"svc-probe"}, TimeoutMs: -1},
	} {
		if _, err := m.Submit(req); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// A pass selection is checked in one place: the service's normalize and
// the engine's analysis.NewStack reject an unknown pass and a repeated one
// with the same message, and accept every selection of known passes in
// either order.
func TestAnalysisSelectionValidation(t *testing.T) {
	for _, tc := range []struct {
		analyses []string
		want     string // "" = accepted
	}{
		{nil, ""},
		{[]string{"yashme"}, ""},
		{[]string{"xfd"}, ""},
		{[]string{"yashme", "xfd"}, ""},
		{[]string{"xfd", "yashme"}, ""},
		{[]string{"nope"}, `unknown pass "nope" (have [xfd yashme])`},
		{[]string{"yashme", "nope"}, `unknown pass "nope" (have [xfd yashme])`},
		{[]string{"yashme", "yashme"}, `pass "yashme" selected twice`},
		{[]string{"xfd", "yashme", "xfd"}, `pass "xfd" selected twice`},
	} {
		_, nerr := normalize(Request{Names: []string{"svc-probe"}, Analyses: tc.analyses})
		_, serr := analysis.NewStack(tc.analyses, core.Config{})
		if tc.want == "" {
			if nerr != nil || serr != nil {
				t.Errorf("%v rejected: normalize %v, NewStack %v", tc.analyses, nerr, serr)
			}
			continue
		}
		if nerr == nil || !errors.Is(nerr, ErrBadRequest) || nerr.Error() != ErrBadRequest.Error()+": "+tc.want {
			t.Errorf("%v: normalize error %v, want a bad request: %s", tc.analyses, nerr, tc.want)
		}
		if serr == nil || serr.Error() != "analysis: "+tc.want {
			t.Errorf("%v: NewStack error %v, want analysis: %s", tc.analyses, serr, tc.want)
		}
	}
}

// The fingerprint is order-insensitive for selections, sensitive to every
// result-determining knob, and blind to the timeout. Request a's
// fingerprint is pinned: a change to the Request encoding would re-key every
// cached result of existing traffic.
func TestFingerprint(t *testing.T) {
	norm := func(r Request) Request {
		n, err := normalize(r)
		if err != nil {
			t.Fatalf("normalize: %v", err)
		}
		return n
	}
	a := norm(Request{Tags: []string{"table4", "table3"}, Variants: []string{"table5", "races"}})
	b := norm(Request{Tags: []string{"table3", "table4"}, Variants: []string{"races", "table5"}, TimeoutMs: 999})
	const golden = "570a4abf526f2349314532c04721e860d7999fc82e52e0e9f1bb855f44af73cd"
	if got := fingerprint(a); got != golden {
		t.Fatalf("fingerprint(a) = %s, want %s", got, golden)
	}
	if fingerprint(a) != fingerprint(b) {
		t.Fatal("selection order or timeout changed the fingerprint")
	}
	c := norm(Request{Tags: []string{"table3", "table4"}, Variants: []string{"races", "table5"}, Seed: 7})
	if fingerprint(a) == fingerprint(c) {
		t.Fatal("seed did not change the fingerprint")
	}
}

// Shutdown stops intake, cancels queued jobs and drains the running one.
func TestShutdown(t *testing.T) {
	m := NewManager(Config{Jobs: 1, Budget: engine.NewBudget(2), CacheBytes: -1})
	started := armSlow(t)
	running, err := m.Submit(Request{Names: []string{"svc-slow"}, Variants: []string{suite.VariantRaces}})
	if err != nil {
		t.Fatalf("submit running: %v", err)
	}
	queued, err := m.Submit(probeReq())
	if err != nil {
		t.Fatalf("submit queued: %v", err)
	}
	select {
	case <-started:
	case <-time.After(30 * time.Second):
		t.Fatal("slow job never started")
	}

	ctx, cancel := contextWithTimeout(1 * time.Millisecond) // force the drain deadline
	defer cancel()
	m.Shutdown(ctx)

	if st := queued.Status(); st.State != StateCancelled {
		t.Fatalf("queued job state %s, want cancelled", st.State)
	}
	if st := running.Status(); !st.State.Terminal() {
		t.Fatalf("running job state %s, want terminal after drain", st.State)
	}
	if _, err := m.Submit(probeReq()); err != ErrShuttingDown {
		t.Fatalf("post-shutdown submit error = %v, want ErrShuttingDown", err)
	}
}

// The LRU cache evicts by bytes from the cold end and never admits a body
// larger than itself.
func TestResultCacheLRU(t *testing.T) {
	c := newResultCache(10)
	c.put("a", []byte("aaaa")) // 4 bytes
	c.put("b", []byte("bbbb")) // 8 total
	if _, ok := c.get("a"); !ok {
		t.Fatal("a missing")
	}
	c.put("c", []byte("cccc")) // 12 total -> evict LRU ("b"; "a" was touched)
	if _, ok := c.get("b"); ok {
		t.Fatal("b should have been evicted")
	}
	if _, ok := c.get("a"); !ok {
		t.Fatal("a should have survived (recently used)")
	}
	c.put("huge", make([]byte, 11))
	if _, ok := c.get("huge"); ok {
		t.Fatal("oversized body admitted")
	}
	s := c.stats()
	if s.Entries != 2 || s.Bytes != 8 {
		t.Fatalf("stats = %+v, want 2 entries / 8 bytes", s)
	}
}
