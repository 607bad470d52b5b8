// Package service is the long-running detection service behind
// cmd/yashme-serve: it turns the suite runner into a job system that many
// clients can share. A Manager owns a bounded submission queue, a small
// pool of job workers, one machine-wide engine.Budget that every
// concurrent suite run draws from (so job × suite × scenario parallelism
// never oversubscribes GOMAXPROCS), and a content-addressed result cache
// keyed by the canonical fingerprint of a request — workload selection,
// engine options, analysis passes and seed — so identical submissions are
// answered without simulating anything, byte-identical to the fresh run
// that populated the entry.
//
// Jobs move queued → running → done/failed/cancelled. Cancellation (the
// DELETE endpoint, a per-job timeout, or daemon shutdown) rides the
// engine's context plumbing: a running job stops at the next scenario
// boundary and keeps a well-formed partial result. The distinction
// between a deadline and an explicit cancel is the context error — a
// job whose context reports DeadlineExceeded failed its timeout, one
// whose context was cancelled was cancelled.
package service

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"yashme/internal/analysis"
	"yashme/internal/engine"
	"yashme/internal/suite"
	"yashme/internal/workload"
)

// Sentinel errors the HTTP layer maps to status codes.
var (
	// ErrBadRequest wraps every request-validation failure (unknown
	// workload, tag, variant or analysis; empty selection; bad knobs).
	ErrBadRequest = errors.New("bad request")
	// ErrQueueFull reports a full submission queue (backpressure; retry).
	ErrQueueFull = errors.New("submission queue full")
	// ErrShuttingDown reports a manager that has stopped accepting jobs.
	ErrShuttingDown = errors.New("service shutting down")
	// ErrNotFound reports an unknown job ID.
	ErrNotFound = errors.New("no such job")
)

// Request is a detection-job submission: which workloads to run, under
// which engine configuration. The zero request runs the full registry
// through every variant group with the engine defaults — exactly
// cmd/yashme-tables with no flags. All fields but TimeoutMs are part of
// the job's cache identity.
type Request struct {
	// Tags/Names/Variants select workloads and variant groups exactly as
	// suite.Config does (empty = all).
	Tags     []string `json:"tags,omitempty"`
	Names    []string `json:"names,omitempty"`
	Variants []string `json:"variants,omitempty"`
	// Analyses selects the analysis passes (empty = yashme alone; order is
	// semantic — the first pass is primary).
	Analyses []string `json:"analyses,omitempty"`
	// Seed, when non-zero, overrides every run's seed (the random-mode
	// reproducibility knob; see suite.Config.Seed).
	Seed int64 `json:"seed,omitempty"`
	// TimeoutMs bounds the job's wall-clock run (0 = the manager's
	// default). Excluded from the fingerprint: a timeout changes when a
	// result arrives, never what it is.
	TimeoutMs int64 `json:"timeout_ms,omitempty"`
}

// State is a job's lifecycle position.
type State string

// The job states. Queued and running are live; the other three terminal.
const (
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StateDone      State = "done"
	StateFailed    State = "failed"
	StateCancelled State = "cancelled"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// Job is one managed detection run.
type Job struct {
	id string
	fp string

	mu       sync.Mutex
	req      Request // normalized
	state    State
	cacheHit bool
	err      string
	body     []byte // canonical suite.Result JSON, served verbatim
	started  time.Time
	finished time.Time
	cancel   context.CancelFunc // set while running
	done     chan struct{}      // closed on reaching a terminal state
}

// Done returns a channel closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// JobStatus is the JSON snapshot of a job the API serves.
type JobStatus struct {
	ID       string `json:"id"`
	State    State  `json:"state"`
	CacheHit bool   `json:"cache_hit,omitempty"`
	Error    string `json:"error,omitempty"`
	// ElapsedNs is the job's run time (0 until it finishes running).
	ElapsedNs int64   `json:"elapsed_ns,omitempty"`
	Request   Request `json:"request"`
	// Result is the run's canonical suite.Result JSON, present once the
	// job holds one — including the well-formed partial result of a
	// cancelled or timed-out run (its "cancelled" field is set).
	Result json.RawMessage `json:"result,omitempty"`
}

// Status snapshots the job.
func (j *Job) Status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.statusLocked()
}

func (j *Job) statusLocked() JobStatus {
	st := JobStatus{
		ID:       j.id,
		State:    j.state,
		CacheHit: j.cacheHit,
		Error:    j.err,
		Request:  j.req,
		Result:   j.body,
	}
	if !j.started.IsZero() && !j.finished.IsZero() {
		st.ElapsedNs = j.finished.Sub(j.started).Nanoseconds()
	}
	return st
}

// Config sizes a Manager. The zero value is usable: two job workers, a
// 64-deep queue, a GOMAXPROCS budget, a 64 MiB cache, no default timeout.
type Config struct {
	// Jobs is the number of suites run concurrently (default 2). More jobs
	// never add machine parallelism — they share the Budget — but let
	// short jobs overtake long ones.
	Jobs int
	// QueueDepth bounds the submission queue (default 64); a full queue
	// rejects with ErrQueueFull rather than buffering without bound.
	QueueDepth int
	// Budget is the machine-wide scenario budget every job's suite run
	// draws from (nil = engine.NewBudget(0), i.e. GOMAXPROCS).
	Budget *engine.Budget
	// CacheBytes bounds the result cache (default 64 MiB; negative
	// disables caching).
	CacheBytes int64
	// DefaultTimeout bounds jobs that don't set TimeoutMs (0 = none).
	DefaultTimeout time.Duration
}

func (c Config) withDefaults() Config {
	if c.Jobs <= 0 {
		c.Jobs = 2
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.Budget == nil {
		c.Budget = engine.NewBudget(0)
	}
	if c.CacheBytes == 0 {
		c.CacheBytes = 64 << 20
	}
	return c
}

// Manager owns the job system: queue, workers, budget, cache, registry of
// every job it has seen. Create with NewManager, stop with Shutdown.
type Manager struct {
	cfg    Config
	budget *engine.Budget
	cache  *resultCache

	baseCtx    context.Context
	baseCancel context.CancelFunc
	wg         sync.WaitGroup
	queue      chan *Job

	mu     sync.Mutex
	jobs   map[string]*Job
	seq    int
	closed bool

	statsMu sync.Mutex
	agg     engine.Stats // accumulated over every run that simulated
}

// NewManager starts a manager: its worker goroutines run until Shutdown.
func NewManager(cfg Config) *Manager {
	cfg = cfg.withDefaults()
	m := &Manager{
		cfg:    cfg,
		budget: cfg.Budget,
		jobs:   make(map[string]*Job),
		queue:  make(chan *Job, cfg.QueueDepth),
	}
	if cfg.CacheBytes > 0 {
		m.cache = newResultCache(cfg.CacheBytes)
	}
	m.baseCtx, m.baseCancel = context.WithCancel(context.Background())
	for i := 0; i < cfg.Jobs; i++ {
		m.wg.Add(1)
		go func() {
			defer m.wg.Done()
			for job := range m.queue {
				m.runJob(job)
			}
		}()
	}
	return m
}

// Budget returns the manager's shared scenario budget (for /metrics).
func (m *Manager) Budget() *engine.Budget { return m.budget }

// Submit validates a request and either answers it from the cache — the
// returned job is already done, CacheHit set, zero simulation — or
// enqueues a fresh job. The error is ErrBadRequest-wrapped for invalid
// requests, ErrQueueFull under backpressure, ErrShuttingDown after
// Shutdown began.
func (m *Manager) Submit(req Request) (*Job, error) {
	req, err := normalize(req)
	if err != nil {
		return nil, err
	}
	fp := fingerprint(req)

	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil, ErrShuttingDown
	}
	m.seq++
	job := &Job{
		id:   fmt.Sprintf("j%06d", m.seq),
		fp:   fp,
		req:  req,
		done: make(chan struct{}),
	}
	if body, ok := m.cache.get(fp); ok {
		job.state = StateDone
		job.cacheHit = true
		job.body = body
		close(job.done)
		m.jobs[job.id] = job
		return job, nil
	}
	job.state = StateQueued
	select {
	case m.queue <- job:
		m.jobs[job.id] = job
		return job, nil
	default:
		m.seq-- // job never existed
		return nil, ErrQueueFull
	}
}

// Job returns a job by ID.
func (m *Manager) Job(id string) (*Job, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if job, ok := m.jobs[id]; ok {
		return job, nil
	}
	return nil, ErrNotFound
}

// Cancel cancels a job: a queued job goes terminal immediately, a running
// one is cut at its next scenario boundary and keeps its partial result.
// Cancelling a terminal job is a no-op. Returns the post-cancel status.
func (m *Manager) Cancel(id string) (JobStatus, error) {
	job, err := m.Job(id)
	if err != nil {
		return JobStatus{}, err
	}
	job.mu.Lock()
	defer job.mu.Unlock()
	switch job.state {
	case StateQueued:
		job.state = StateCancelled
		job.err = "cancelled before start"
		close(job.done)
	case StateRunning:
		job.cancel()
	}
	return job.statusLocked(), nil
}

// runJob executes one dequeued job. Workload panics become job failures,
// not worker deaths.
func (m *Manager) runJob(job *Job) {
	job.mu.Lock()
	if job.state != StateQueued { // cancelled while waiting in the queue
		job.mu.Unlock()
		return
	}
	timeout := m.cfg.DefaultTimeout
	if job.req.TimeoutMs > 0 {
		timeout = time.Duration(job.req.TimeoutMs) * time.Millisecond
	}
	var ctx context.Context
	var cancel context.CancelFunc
	if timeout > 0 {
		ctx, cancel = context.WithTimeout(m.baseCtx, timeout)
	} else {
		ctx, cancel = context.WithCancel(m.baseCtx)
	}
	job.state = StateRunning
	job.cancel = cancel
	job.started = time.Now()
	req := job.req
	job.mu.Unlock()
	defer cancel()

	var res *suite.Result
	var panicErr error
	func() {
		defer func() {
			if p := recover(); p != nil {
				panicErr = fmt.Errorf("workload panic: %v", p)
			}
		}()
		res = suite.RunContext(ctx, suiteConfig(req, m.budget))
	}()

	var body []byte
	if res != nil {
		m.statsMu.Lock()
		m.agg.Add(res.TotalStats())
		m.statsMu.Unlock()
		var err error
		if body, err = res.Canonical().JSON(); err != nil && panicErr == nil {
			panicErr = err
		}
	}

	job.mu.Lock()
	job.finished = time.Now()
	job.body = body
	switch {
	case panicErr != nil:
		job.state = StateFailed
		job.err = panicErr.Error()
	case res.Cancelled:
		if errors.Is(ctx.Err(), context.DeadlineExceeded) {
			job.state = StateFailed
			job.err = "job timeout exceeded (partial result retained)"
		} else {
			job.state = StateCancelled
			job.err = "cancelled (partial result retained)"
		}
	default:
		job.state = StateDone
		// Only complete runs are cacheable: a partial result is not the
		// answer to the request, just what was done when it stopped.
		m.cache.put(job.fp, body)
	}
	close(job.done)
	job.mu.Unlock()
}

// Shutdown stops the manager: no new submissions, queued jobs cancelled,
// running jobs drained until ctx expires, then cut at their next scenario
// boundary. Idempotent; returns once every worker has exited.
func (m *Manager) Shutdown(ctx context.Context) {
	m.mu.Lock()
	if !m.closed {
		m.closed = true
		close(m.queue)
	}
	live := make([]*Job, 0, len(m.jobs))
	for _, j := range m.jobs {
		live = append(live, j)
	}
	m.mu.Unlock()

	for _, j := range live {
		j.mu.Lock()
		if j.state == StateQueued {
			j.state = StateCancelled
			j.err = "service shutting down"
			close(j.done)
		}
		j.mu.Unlock()
	}

	drained := make(chan struct{})
	go func() {
		m.wg.Wait()
		close(drained)
	}()
	select {
	case <-drained:
	case <-ctx.Done():
		m.baseCancel() // cut running jobs at their next scenario boundary
		<-drained
	}
	m.baseCancel()
}

// Metrics is the /metrics snapshot.
type Metrics struct {
	// Jobs counts every job the manager has seen, by state.
	Jobs map[State]int `json:"jobs"`
	// Cache is the result cache's hit/size ledger.
	Cache CacheStats `json:"cache"`
	// BudgetSize/BudgetInUse are the shared scenario budget's capacity and
	// current utilization.
	BudgetSize  int `json:"budget_size"`
	BudgetInUse int `json:"budget_in_use"`
	// Engine aggregates the engine counters (simulated ops, handoffs,
	// snapshot bytes, dedup and clock-arena activity …) over every run the
	// service actually simulated. Cache hits add nothing here — that is
	// the "zero additional simulated ops" proof in counter form.
	Engine engine.Stats `json:"engine"`
}

// Metrics snapshots the manager.
func (m *Manager) Metrics() Metrics {
	mm := Metrics{Jobs: map[State]int{}}
	m.mu.Lock()
	for _, j := range m.jobs {
		j.mu.Lock()
		mm.Jobs[j.state]++
		j.mu.Unlock()
	}
	m.mu.Unlock()
	mm.Cache = m.cache.stats()
	mm.BudgetSize = m.budget.Size()
	mm.BudgetInUse = m.budget.InUse()
	m.statsMu.Lock()
	mm.Engine = m.agg
	m.statsMu.Unlock()
	return mm
}

// suiteConfig maps a normalized request onto the suite runner, wiring the
// manager's shared budget through so concurrent jobs split the machine.
func suiteConfig(req Request, budget *engine.Budget) suite.Config {
	return suite.Config{
		Tags:     req.Tags,
		Names:    req.Names,
		Variants: req.Variants,
		Analyses: req.Analyses,
		Seed:     req.Seed,
		Budget:   budget,
	}
}

// normalize canonicalizes a request (sorted unique tags and names,
// variants in canonical group order) and validates every field against
// the registries, so that equal selections fingerprint equally and
// invalid submissions fail at the door instead of inside a worker.
func normalize(req Request) (Request, error) {
	req.Tags = sortUnique(req.Tags)
	req.Names = sortUnique(req.Names)

	known := make(map[string]bool)
	for _, s := range workload.All() {
		for _, t := range s.Tags {
			known[t] = true
		}
	}
	for _, t := range req.Tags {
		if !known[t] {
			return req, fmt.Errorf("%w: unknown tag %q", ErrBadRequest, t)
		}
	}
	for _, n := range req.Names {
		if _, ok := workload.Lookup(n); !ok {
			return req, fmt.Errorf("%w: unknown workload %q", ErrBadRequest, n)
		}
	}
	selected := 0
	for _, s := range workload.Tagged(req.Tags...) {
		if len(req.Names) > 0 {
			hit := false
			for _, n := range req.Names {
				hit = hit || n == s.Name
			}
			if !hit {
				continue
			}
		}
		selected++
	}
	if selected == 0 {
		return req, fmt.Errorf("%w: selection matches no workloads", ErrBadRequest)
	}

	if len(req.Variants) > 0 {
		groups := []string{suite.VariantRaces, suite.VariantTable5, suite.VariantBenign, suite.VariantWindow}
		want := make(map[string]bool, len(req.Variants))
		for _, v := range req.Variants {
			ok := false
			for _, g := range groups {
				ok = ok || v == g
			}
			if !ok {
				return req, fmt.Errorf("%w: unknown variant %q", ErrBadRequest, v)
			}
			want[v] = true
		}
		ordered := make([]string, 0, len(want))
		for _, g := range groups {
			if want[g] {
				ordered = append(ordered, g)
			}
		}
		req.Variants = ordered
	}

	if err := analysis.Check(req.Analyses); err != nil {
		return req, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}

	if req.Seed < 0 {
		return req, fmt.Errorf("%w: negative seed", ErrBadRequest)
	}
	if req.TimeoutMs < 0 {
		return req, fmt.Errorf("%w: negative timeout_ms", ErrBadRequest)
	}
	return req, nil
}

// fingerprint is the request's cache identity: SHA-256 over the canonical
// JSON of every result-determining field. TimeoutMs is deliberately
// absent — it changes when a result arrives, not what it is.
func fingerprint(req Request) string {
	req.TimeoutMs = 0
	b, err := json.Marshal(req)
	if err != nil { // a Request of plain strings and ints cannot fail
		panic(err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

func sortUnique(in []string) []string {
	if len(in) == 0 {
		return nil
	}
	out := append([]string(nil), in...)
	sort.Strings(out)
	n := 0
	for i, s := range out {
		if i == 0 || s != out[i-1] {
			out[n] = s
			n++
		}
	}
	return out[:n]
}
