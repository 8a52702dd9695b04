// Command picasso-serve runs the Picasso coloring service: an HTTP API
// over an asynchronous job queue backed by the pluggable conflict-build
// backends.
//
//	picasso-serve -addr :8080 -serve-workers 4 -cache 512 -backend parallel
//
// Endpoints (all JSON):
//
//	POST   /v1/jobs              submit a job spec; 202 queued, 200 cache hit
//	GET    /v1/jobs/{id}         status, live progress, result summary
//	DELETE /v1/jobs/{id}         cancel: queued jobs drop at once, running
//	                             jobs stop at the engine's next stage boundary
//	POST   /v1/jobs/{id}/append  color new Pauli strings against a finished
//	                             job's frozen grouping (no recoloring)
//	POST   /v1/jobs/{id}/refine  palette-refine a finished job's grouping
//	                             into fewer colors (parent stays served)
//	GET    /v1/jobs/{id}/groups  color classes / unitary groups (when done)
//	GET    /v1/healthz           liveness
//	GET    /v1/stats             lifetime counters
//	GET    /v1/backends          registered conflict-build backends
//	GET    /v1/instances         Table II instance names
//
// Example session:
//
//	curl -s -X POST localhost:8080/v1/jobs -d '{"random":"2000:0.5","seed":1}'
//	curl -s localhost:8080/v1/jobs/<id>
//	curl -s localhost:8080/v1/jobs/<id>/groups
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"picasso/internal/jobspec"
	"picasso/internal/server"
)

func main() {
	var (
		addr       = flag.String("addr", ":8080", "listen address")
		workers    = flag.Int("serve-workers", 0, "coloring worker pool size (0 = all cores)")
		queue      = flag.Int("queue", 256, "max queued jobs before submissions get 503")
		cache      = flag.Int("cache", 512, "finished jobs retained in the LRU result cache")
		cacheBytes = flag.String("cache-bytes", "256MiB", "approximate result bytes the LRU may pin")
		maxVerts   = flag.Int("max-vertices", 1<<20, "reject jobs larger than this many vertices")
		backend    = flag.String("backend", "", "default conflict-build backend for specs that leave it empty")
		budget     = flag.String("budget", "", "default per-job host-memory budget for specs without one, e.g. 512MiB")
		raceN      = flag.Int("race-entrants", 0, "race streamed jobs without a portfolio block as a portfolio of this many entrants (>=2)")
		maxRace    = flag.Int("max-race-entrants", 0, "reject portfolio specs wider than this (0 = library cap)")
		artDir     = flag.String("artifact-dir", "", "persist finished jobs as .pic artifacts here; the result cache gains a disk tier that survives restarts and a job journal that resumes interrupted work")
		tenantQ    = flag.Int("tenant-quota", 0, "max active jobs per X-Tenant header value; past it submissions get 429 tenant_quota (0 = unlimited)")
	)
	flag.Parse()

	cacheB, err := jobspec.ParseBytes(*cacheBytes)
	if err != nil || cacheB < 0 {
		fmt.Fprintf(os.Stderr, "picasso-serve: -cache-bytes: bad size %q\n", *cacheBytes)
		os.Exit(1)
	}
	budgetB, err := jobspec.ParseBytes(*budget)
	if err != nil || budgetB < 0 {
		fmt.Fprintf(os.Stderr, "picasso-serve: -budget: bad size %q\n", *budget)
		os.Exit(1)
	}

	srv, err := server.New(server.Config{
		Workers:            *workers,
		QueueDepth:         *queue,
		CacheSize:          *cache,
		CacheBytes:         cacheB,
		MaxVertices:        *maxVerts,
		DefaultBackend:     *backend,
		DefaultBudgetBytes: budgetB,
		DefaultEntrants:    *raceN,
		MaxEntrants:        *maxRace,
		ArtifactDir:        *artDir,
		TenantQuota:        *tenantQ,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "picasso-serve: %v\n", err)
		os.Exit(1)
	}

	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv,
		ReadHeaderTimeout: 5 * time.Second,
	}

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, syscall.SIGINT, syscall.SIGTERM)
	errCh := make(chan error, 1)
	go func() {
		log.Printf("picasso-serve listening on %s", *addr)
		errCh <- httpSrv.ListenAndServe()
	}()

	select {
	case err := <-errCh:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintf(os.Stderr, "picasso-serve: %v\n", err)
			os.Exit(1)
		}
	case sig := <-stop:
		log.Printf("received %s; draining", sig)
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := httpSrv.Shutdown(ctx); err != nil {
			log.Printf("http shutdown: %v", err)
		}
		if *artDir != "" {
			// With a journal, a drain checkpoints running streamed jobs and
			// leaves them live on disk: the next picasso-serve on this
			// artifact dir resumes them instead of recoloring from scratch.
			srv.Drain()
		} else {
			srv.Close() // no journal to resume from: run the queue dry
		}
		log.Printf("drained; bye")
	}
}
