// Command topocmpd is the long-running topology-metrics daemon: it serves
// generator+metric queries (POST /v1/suite, POST /v1/metric) over the same
// option vocabulary the reproduce CLI runs, with singleflight dedup, shared
// per-network ball engines and bounded admission (internal/serve), and
// mounts the live observability plane (/metrics, /debug/progress,
// /debug/trace, /debug/pprof/) on the same listener.
//
//	topocmpd -addr 127.0.0.1:8080 -cache .cache -j 8
//
// SIGTERM/SIGINT drain gracefully: the listener closes, in-flight requests
// get -drain to finish, and the time-series sampler (when -timeseries is
// set) flushes its ring to disk.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"topocmp/internal/cache"
	"topocmp/internal/obs"
	"topocmp/internal/serve"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8080", "listen address (port 0 picks a free port)")
	workers := flag.Int("j", 0, "worker budget shared by all computations (0 = all cores)")
	cacheDir := flag.String("cache", "", "content-addressed result cache directory, shared with "+
		"reproduce runs (empty = memory-only)")
	maxInFlight := flag.Int("max-inflight", 2, "max concurrently computing requests; excess "+
		"non-dedupable requests are shed with 429")
	deadline := flag.Duration("deadline", 0, "default per-request deadline (0 = none)")
	drain := flag.Duration("drain", 30*time.Second, "graceful-shutdown drain budget")
	timeseries := flag.String("timeseries", "", "sample /metrics counters periodically and write "+
		"the ring to this file on shutdown (empty = off)")
	trace := flag.Bool("trace", false, "record one span per computed request under /debug/trace "+
		"(the tree grows with traffic; debugging aid)")
	flag.Parse()

	if err := checkFlags(*workers, *maxInFlight, *deadline, *drain); err != nil {
		fmt.Fprintln(os.Stderr, "topocmpd:", err)
		os.Exit(2)
	}
	opts := serve.Options{
		Workers:     *workers,
		MaxInFlight: *maxInFlight,
		Deadline:    *deadline,
	}
	if *cacheDir != "" {
		store, err := cache.Open(*cacheDir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "topocmpd: %v\n", err)
			os.Exit(1)
		}
		opts.Cache = store
	}
	if *trace {
		opts.Tracer = obs.NewTracer("topocmpd")
	}
	s := serve.New(opts)

	var smp *obs.Sampler
	if *timeseries != "" {
		smp = obs.NewSampler(s.Metrics(), 0, 0)
		smp.Start()
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "topocmpd: %v\n", err)
		os.Exit(1)
	}
	srv := &http.Server{Handler: s.Handler()}
	// The smoke harness parses this line to find the chosen port.
	fmt.Printf("topocmpd listening on http://%s (/v1/suite /v1/metric /metrics /debug/progress)\n",
		ln.Addr())

	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	select {
	case sig := <-sigc:
		fmt.Printf("topocmpd: %v, draining (up to %v)\n", sig, *drain)
		ctx, cancel := context.WithTimeout(context.Background(), *drain)
		if err := srv.Shutdown(ctx); err != nil {
			fmt.Fprintf(os.Stderr, "topocmpd: drain: %v\n", err)
		}
		cancel()
	case err := <-errc:
		if err != nil && err != http.ErrServerClosed {
			fmt.Fprintf(os.Stderr, "topocmpd: %v\n", err)
			os.Exit(1)
		}
	}
	if smp != nil {
		smp.Stop() // records the final sample before the ring is exported
		if err := smp.WriteFile(*timeseries); err != nil {
			fmt.Fprintf(os.Stderr, "topocmpd: timeseries: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("topocmpd: wrote %s\n", *timeseries)
	}
}

// checkFlags rejects a negative worker budget, admission cap, deadline or
// drain budget. serve.Options reads any of the first three below 1 as its
// default (all cores, 2 slots, no deadline), and a negative drain budget
// would skip the drain.
func checkFlags(workers, maxInFlight int, deadline, drain time.Duration) error {
	switch {
	case workers < 0:
		return fmt.Errorf("-j must be >= 0 (0 = all cores), got %d", workers)
	case maxInFlight < 0:
		return fmt.Errorf("-max-inflight must be >= 0 (0 = 2), got %d", maxInFlight)
	case deadline < 0:
		return fmt.Errorf("-deadline must be >= 0 (0 = none), got %v", deadline)
	case drain < 0:
		return fmt.Errorf("-drain must be >= 0, got %v", drain)
	}
	return nil
}
