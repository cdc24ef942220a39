// Command cohesion-serve runs the Cohesion job service: an HTTP/JSON
// front door that accepts simulation jobs, runs them on a bounded
// worker pool with per-job budgets, persists them crash-safely, and
// exposes Prometheus metrics.
//
//	cohesion-serve -addr :8080 -state /var/lib/cohesion
//
// Endpoints (see README "Serving"):
//
//	POST   /v1/jobs             submit {"kernel","mode","clusters","scale","seed","verify","max_events","max_wall_ms"}
//	GET    /v1/jobs             list jobs
//	GET    /v1/jobs/{id}        job status
//	GET    /v1/jobs/{id}/result result (409 until terminal)
//	DELETE /v1/jobs/{id}        cancel
//	GET    /healthz             liveness
//	GET    /metrics             Prometheus text metrics
//
// On SIGTERM/SIGINT the server drains gracefully: intake stops (503) and
// running jobs stop. A restart on the same -state directory (after a
// drain or a crash) reruns every unfinished job; runs are deterministic,
// so the results are bit-identical.
//
// Exit codes: 0 clean drain, 1 startup or serve failure, 2 flag error.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"cohesion"
)

func main() {
	var (
		addr         = flag.String("addr", "127.0.0.1:8080", "listen address")
		state        = flag.String("state", "", "state directory for job records (required)")
		workers      = flag.Int("workers", 0, "concurrent simulations (0 = GOMAXPROCS)")
		queue        = flag.Int("queue", 16, "admission queue depth beyond the workers")
		maxEvents    = flag.Uint64("max-events", 0, "server-wide per-job event budget ceiling (0 = none)")
		maxWall      = flag.Duration("max-wall", 0, "server-wide per-job wall-clock ceiling (0 = none)")
		drainTimeout = flag.Duration("drain-timeout", 30*time.Second, "graceful drain bound on SIGTERM")
		quiet        = flag.Bool("quiet", false, "suppress operational logs")
	)
	flag.Parse()
	if *state == "" {
		fmt.Fprintln(os.Stderr, "cohesion-serve: -state is required")
		flag.Usage()
		os.Exit(2)
	}

	logf := log.New(os.Stderr, "cohesion-serve: ", log.LstdFlags).Printf
	if *quiet {
		logf = func(string, ...any) {}
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	err := cohesion.Serve(ctx, cohesion.ServeOptions{
		Addr:       *addr,
		StateDir:   *state,
		Workers:    *workers,
		QueueDepth: *queue,
		MaxJobLimits: cohesion.RunLimits{
			MaxEvents:  *maxEvents,
			WallBudget: *maxWall,
		},
		DrainTimeout: *drainTimeout,
		Logf:         logf,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "cohesion-serve: %v\n", err)
		os.Exit(1)
	}
}
