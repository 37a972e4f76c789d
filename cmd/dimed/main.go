// Command dimed is the long-lived DIME discovery server: an HTTP JSON API
// over per-corpus incremental Session state, with asynchronous discovery
// jobs on a bounded worker pool and the repository's debug surface
// (/metrics, /debug/flight, /debug/pprof/) built in.
//
// Usage:
//
//	dimed [-addr :8080] [-workers N] [-queue N] [-request-timeout 30s]
//	      [-shutdown-grace 30s] [-flight-threshold 0] [-flight-resources]
//
// Endpoints (see internal/serve for the full contract):
//
//	POST   /v1/corpora                            create a corpus {id, profile[, name]}
//	POST   /v1/corpora/{id}/entities              ingest entities
//	POST   /v1/corpora/{id}/discover              start an async discovery job → 202 {job}
//	GET    /v1/corpora/{id}/status/{job}          poll (or ?wait=true long-poll) the job
//	GET    /v1/corpora/{id}/results/{job}         fetch the full result
//	GET    /v1/corpora/{id}/scrollbar/{level}     one scrollbar level of the latest result
//	GET    /v1/corpora/{id}/witnesses/{partition} why a partition was marked
//
// Built-in profiles: scholar, amazon, dbgen. A full job queue returns 429
// (backpressure); draining returns 503. On SIGINT/SIGTERM the server drains
// queued and running jobs (bounded by -shutdown-grace) before exiting.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
	"time"

	"dime/internal/obs"
	"dime/internal/serve"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// shutdownSignal delivers the signals that trigger graceful shutdown; tests
// replace notifySignals to inject one.
var notifySignals = func(ch chan<- os.Signal) {
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
}

// run is the testable entry point: parse flags, start the server, wait for
// a shutdown signal, drain, exit.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("dimed", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr      = fs.String("addr", ":8080", "listen address (host:port; :0 picks a free port)")
		workers   = fs.Int("workers", 0, "discovery worker goroutines (0 = default)")
		queue     = fs.Int("queue", 0, "queued discovery jobs beyond running ones before 429 (0 = default 64)")
		reqTO     = fs.Duration("request-timeout", 30*time.Second, "per-request deadline; also caps ?wait=true long-polls")
		grace     = fs.Duration("shutdown-grace", 30*time.Second, "drain budget for queued/running jobs and in-flight requests on shutdown")
		flightThr = fs.Duration("flight-threshold", 0, "flight recorder keeps only requests/runs at least this slow (0 keeps all)")
		flightRes = fs.Bool("flight-resources", false, "attach per-span heap-allocation deltas to flight-recorder events")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 0 {
		fmt.Fprintf(stderr, "dimed: unexpected arguments: %v\n", fs.Args())
		return 2
	}

	srv := serve.NewServer(serve.Options{
		Workers:        *workers,
		QueueDepth:     *queue,
		RequestTimeout: *reqTO,
		Registry:       obs.Default(),
		Flight: obs.NewFlightRecorder(obs.FlightOptions{
			Threshold: *flightThr,
			Resources: *flightRes,
		}),
	})
	if err := srv.Start(*addr); err != nil {
		fmt.Fprintf(stderr, "dimed: %v\n", err)
		return 1
	}
	fmt.Fprintf(stderr, "dimed: serving on http://%s (profiles: scholar, amazon, dbgen)\n", srv.Addr())

	sig := make(chan os.Signal, 1)
	notifySignals(sig)
	<-sig
	fmt.Fprintf(stderr, "dimed: shutting down, draining jobs (grace %v)\n", *grace)
	ctx, cancel := context.WithTimeout(context.Background(), *grace)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		fmt.Fprintf(stderr, "dimed: shutdown: %v\n", err)
		return 1
	}
	fmt.Fprintln(stderr, "dimed: drained cleanly")
	return 0
}
