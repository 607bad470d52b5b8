// Command yashme-serve runs the persistency-race detector as a
// long-running HTTP service (internal/service): clients POST detection
// jobs, poll their status, cancel them, and read canonical suite results
// — with identical submissions answered from a content-addressed cache
// without simulating anything. All concurrent jobs share one machine-wide
// scenario budget, so job parallelism never oversubscribes GOMAXPROCS.
//
// Usage:
//
//	yashme-serve                                   # listen on 127.0.0.1:8321
//	yashme-serve -addr :9000 -jobs 4 -workers 8
//	curl -X POST localhost:8321/v1/jobs -d '{"tags":["table3"]}'
//	curl localhost:8321/v1/jobs/j000001            # poll
//	curl localhost:8321/v1/jobs/j000001/result     # canonical suite.Result JSON
//	curl -X DELETE localhost:8321/v1/jobs/j000001  # cancel
//	curl localhost:8321/v1/workloads               # registry with paper metadata
//	curl localhost:8321/metrics
//
// SIGINT/SIGTERM shut down gracefully: the listener closes, queued jobs
// are cancelled, running jobs drain until -drain expires and are then cut
// at their next scenario boundary.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"yashme/internal/engine"
	"yashme/internal/service"
)

// Connection bounds. There is no read or write timeout on whole requests:
// a ?wait=1 submission legitimately holds its connection for the job's run.
const (
	readHeaderTimeout = 10 * time.Second // a client that never finishes its headers
	idleTimeout       = 2 * time.Minute  // a kept-alive connection with no request
)

func main() { os.Exit(run()) }

func run() int {
	var (
		addr       = flag.String("addr", "127.0.0.1:8321", "listen address")
		jobs       = flag.Int("jobs", 2, "suites run concurrently (they share the -workers budget; more jobs lets short ones overtake long ones)")
		queue      = flag.Int("queue", 64, "submission queue depth (full queue = HTTP 429)")
		workers    = flag.Int("workers", 0, "machine-wide scenario budget shared by every job (0 = GOMAXPROCS)")
		cacheMB    = flag.Int("cache-mb", 64, "result cache bound in MiB (0 disables caching)")
		jobTimeout = flag.Duration("job-timeout", 10*time.Minute, "default per-job wall-clock bound (jobs may set their own; 0 = none)")
		drain      = flag.Duration("drain", 30*time.Second, "graceful-shutdown drain for running jobs before they are cancelled")
	)
	flag.Parse()

	cacheBytes := int64(*cacheMB) << 20
	if *cacheMB <= 0 {
		cacheBytes = -1
	}
	mgr := service.NewManager(service.Config{
		Jobs:           *jobs,
		QueueDepth:     *queue,
		Budget:         engine.NewBudget(*workers),
		CacheBytes:     cacheBytes,
		DefaultTimeout: *jobTimeout,
	})

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "yashme-serve: %v\n", err)
		return 2
	}
	srv := &http.Server{
		Handler:           service.NewHandler(mgr),
		ReadHeaderTimeout: readHeaderTimeout,
		IdleTimeout:       idleTimeout,
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	fmt.Printf("yashme-serve: listening on %s (%d job workers, budget %d, cache %d MiB)\n",
		ln.Addr(), *jobs, mgr.Budget().Size(), *cacheMB)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-serveErr:
		fmt.Fprintf(os.Stderr, "yashme-serve: %v\n", err)
		return 1
	case <-ctx.Done():
	}

	fmt.Fprintln(os.Stderr, "yashme-serve: shutting down — draining running jobs")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	// Manager first: queued jobs cancel, running ones drain (or are cut at
	// the deadline), which also unblocks any ?wait=1 long-polls before the
	// HTTP server waits out its in-flight requests.
	mgr.Shutdown(shutdownCtx)
	if err := srv.Shutdown(shutdownCtx); err != nil {
		fmt.Fprintf(os.Stderr, "yashme-serve: forced shutdown: %v\n", err)
	}
	if err := <-serveErr; err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintf(os.Stderr, "yashme-serve: %v\n", err)
		return 1
	}
	fmt.Fprintln(os.Stderr, "yashme-serve: bye")
	return 0
}
