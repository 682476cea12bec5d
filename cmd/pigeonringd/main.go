// Command pigeonringd serves the four τ-selection similarity searches
// over HTTP/JSON, backed by the sharded engine layer. Load a synthetic
// dataset per problem, then issue single or batch searches with
// tunable τ and chain length l while /v1/stats reports live serving
// statistics.
//
// Usage:
//
//	pigeonringd [-addr :8080] [-workers 0] [-search-timeout 0]
//	            [-metrics=true] [-slow-query-ms 0] [-pprof-addr ""]
//	            [-snapshot-dir ""] [-max-k 1024]
//	            [-coordinator -replicas host:port,... [-replica-timeout 30s]]
//
// Quickstart:
//
//	pigeonringd -snapshot-dir /var/lib/pigeonring &
//	curl -s -X POST localhost:8080/v1/load \
//	    -d '{"problem":"hamming","n":5000,"shards":4}'
//	curl -s -X POST localhost:8080/v1/snapshot \
//	    -d '{"problem":"hamming"}'
//	curl -s -X POST localhost:8080/v1/load \
//	    -d '{"snapshot":"hamming.snap"}'
//	curl -s -X POST localhost:8080/v1/search \
//	    -d '{"problem":"hamming","queryId":17,"l":6}'
//	curl -s -X POST localhost:8080/v1/search \
//	    -d '{"problem":"hamming","queryId":17,"l":6,"skipVerify":true}'
//	curl -s -X POST localhost:8080/v1/search \
//	    -d '{"problem":"hamming","queryId":17,"limit":10,"timeout_ms":50}'
//	curl -s -X POST localhost:8080/v1/search \
//	    -d '{"problem":"hamming","queryId":17,"k":10}'
//	curl -s -X POST localhost:8080/v1/search/batch \
//	    -d '{"problem":"hamming","queryIds":[1,2,3]}'
//	curl -s -X POST localhost:8080/v1/join \
//	    -d '{"problem":"hamming","limit":50,"timeout_ms":5000}'
//	curl -s localhost:8080/v1/indexes
//	curl -s localhost:8080/v1/stats
//	curl -s localhost:8080/metrics
//
// Every search and join runs under its HTTP request's context:
// disconnecting clients abandon their work, "timeout_ms" adds a
// per-request deadline (504 + {"code":"deadline_exceeded"} when it
// fires), and -search-timeout caps every search and join server-side.
// "limit" stops a search after the first n ids, or a join after its
// first n pairs. "k" asks for the k nearest objects instead — ranked
// [{id, distance}] results from the engine's top-k search —
// bounded server-side by -max-k. /v1/stats counts cancelled and
// limited queries plus join and pair totals per problem.
//
// Observability: GET /metrics serves the Prometheus text exposition
// (-metrics=false unmounts it), -slow-query-ms writes searches and
// joins slower than the threshold to stderr as JSON lines, and
// -pprof-addr starts net/http/pprof on its own listener — separate
// from the serving address so profiling is never exposed on the
// public port. Use /v1/readyz as the orchestrator readiness probe.
//
// Persistence: -snapshot-dir names the directory POST /v1/snapshot
// writes index containers into and snapshot reloads read from; a
// restarted daemon skips the rebuild by loading from the snapshot
// (see the README's Persistence section). Empty (the default) leaves
// both endpoints answering 501.
//
// Cluster mode: -coordinator turns the process into a coordinator
// that serves the same /v1/* surface but owns no indexes, forwarding
// each search whole to one of the replica daemons named by -replicas
// (comma-separated base URLs) and scattering joins over them as
// tiles. Loads broadcast to every replica; corpus identity is verified
// by snapshot hash at attach and on every search and tile; a search or
// tile whose replica dies or reloaded is retried elsewhere under
// -replica-timeout per call. See the README's "Cluster mode".
//
//	pigeonringd -addr :8080 &
//	pigeonringd -addr :8081 &
//	pigeonringd -addr :8090 -coordinator \
//	    -replicas localhost:8080,localhost:8081
//
// The process shuts down gracefully on SIGINT/SIGTERM, draining
// in-flight requests before exiting.
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/server"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("pigeonringd: ")
	addr := flag.String("addr", ":8080", "listen address")
	workers := flag.Int("workers", 0, "per-query shard fan-out and batch parallelism (0 = GOMAXPROCS)")
	drain := flag.Duration("drain", 10*time.Second, "graceful-shutdown drain timeout")
	searchTimeout := flag.Duration("search-timeout", 0, "default per-search/join deadline; requests may shorten it via timeout_ms (0 = none)")
	metrics := flag.Bool("metrics", true, "serve the Prometheus text exposition on GET /metrics")
	slowQueryMS := flag.Int("slow-query-ms", 0, "log searches and joins slower than this to stderr as JSON lines (0 = off)")
	pprofAddr := flag.String("pprof-addr", "", "listen address for net/http/pprof, e.g. localhost:6060 (empty = off)")
	snapshotDir := flag.String("snapshot-dir", "", "directory for POST /v1/snapshot containers and snapshot reloads (empty = persistence off)")
	maxK := flag.Int("max-k", 0, "cap on the \"k\" of top-k search requests (0 = default of 1024)")
	coordinator := flag.Bool("coordinator", false, "serve as a coordinator scattering over -replicas instead of owning indexes")
	replicas := flag.String("replicas", "", "comma-separated replica base URLs for -coordinator, e.g. localhost:8080,localhost:8081")
	replicaTimeout := flag.Duration("replica-timeout", 0, "per-replica-call deadline in coordinator mode; a timed-out call retries elsewhere (0 = 30s)")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	if *pprofAddr != "" {
		// pprof gets its own mux on its own listener: the default
		// http.DefaultServeMux registration would put profiling (and its
		// goroutine dumps) on the public serving port.
		pm := http.NewServeMux()
		pm.HandleFunc("/debug/pprof/", pprof.Index)
		pm.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		pm.HandleFunc("/debug/pprof/profile", pprof.Profile)
		pm.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		pm.HandleFunc("/debug/pprof/trace", pprof.Trace)
		go func() {
			log.Printf("pprof listening on %s", *pprofAddr)
			if err := http.ListenAndServe(*pprofAddr, pm); err != nil {
				log.Fatalf("pprof: %v", err)
			}
		}()
	}

	var handler http.Handler
	if *coordinator {
		urls := strings.Split(*replicas, ",")
		coord, err := cluster.New(cluster.Config{
			Replicas:       urls,
			Timeout:        *replicaTimeout,
			DisableMetrics: !*metrics,
		})
		if err != nil {
			log.Fatalf("coordinator: %v", err)
		}
		// Best-effort attach: replicas that are still starting (or
		// empty) are fine — the first request re-attaches lazily.
		if err := coord.Attach(ctx); err != nil {
			log.Printf("coordinator: initial attach: %v (will retry on first request)", err)
		}
		log.Printf("coordinator over %d replicas: %s", len(urls), *replicas)
		handler = coord.Handler()
	} else {
		if *snapshotDir != "" {
			if err := os.MkdirAll(*snapshotDir, 0o755); err != nil {
				log.Fatalf("snapshot dir: %v", err)
			}
		}
		handler = server.NewFromConfig(server.Config{
			Workers:            *workers,
			SearchTimeout:      *searchTimeout,
			DisableMetrics:     !*metrics,
			SlowQueryThreshold: time.Duration(*slowQueryMS) * time.Millisecond,
			SnapshotDir:        *snapshotDir,
			MaxK:               *maxK,
		}).Handler()
	}

	srv := &http.Server{
		Addr:              *addr,
		Handler:           handler,
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       time.Minute,
	}
	done := make(chan error, 1)
	go func() {
		log.Printf("listening on %s", *addr)
		done <- srv.ListenAndServe()
	}()

	select {
	case err := <-done:
		// ListenAndServe only returns on failure to bind or serve.
		log.Fatal(err)
	case <-ctx.Done():
	}

	log.Printf("shutting down, draining for up to %s", *drain)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		log.Fatalf("shutdown: %v", err)
	}
	if err := <-done; err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Fatal(err)
	}
	log.Print("bye")
}
