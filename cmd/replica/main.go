// Command replica runs one replication server over TCP, exposing a small
// HTTP client API.
//
// Example three-replica deployment on one host:
//
//	replica -id s1 -listen 127.0.0.1:7001 -peers s2=127.0.0.1:7002,s3=127.0.0.1:7003 -http 127.0.0.1:8001 -wal /tmp/s1.wal
//	replica -id s2 -listen 127.0.0.1:7002 -peers s1=127.0.0.1:7001,s3=127.0.0.1:7003 -http 127.0.0.1:8002 -wal /tmp/s2.wal
//	replica -id s3 -listen 127.0.0.1:7003 -peers s1=127.0.0.1:7001,s2=127.0.0.1:7002 -http 127.0.0.1:8003 -wal /tmp/s3.wal
//
// Client API:
//
//	POST /set?key=k&value=v          strict replicated write
//	POST /add?key=k&delta=5          commutative increment (available in any component)
//	GET  /get?key=k&level=strict|weak|dirty
//	GET  /status                     engine state, configuration, counters
//	POST /leave                      permanently retire this replica
//
// Writes may carry an idempotency key (&client=ID&seq=N): retries of
// the same key return the original reply instead of re-applying.
// Overload answers 503 with a Retry-After hint (see -max-inflight).
//
// -admin-addr serves the operator surface on a separate address (off by
// default; bind it to loopback — the endpoints are unauthenticated):
//
//	GET /metrics        Prometheus text exposition
//	GET /debug/events   recent state-machine event trace
//	GET /debug/pprof/   net/http/pprof profiles
//
// Logs are structured (log/slog, JSON to stderr); -log-level selects
// the threshold.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"evsdb/internal/core"
	"evsdb/internal/evs"
	"evsdb/internal/httpapi"
	"evsdb/internal/obs"
	"evsdb/internal/storage"
	"evsdb/internal/transport/tcpnet"
	"evsdb/internal/types"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "replica:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		id          = flag.String("id", "", "server id (required)")
		listen      = flag.String("listen", "127.0.0.1:7001", "replication listen address")
		peerSpec    = flag.String("peers", "", "comma-separated id=addr peer list")
		httpAddr    = flag.String("http", "127.0.0.1:8001", "client HTTP address")
		walPath     = flag.String("wal", "", "write-ahead log path (default <id>.wal)")
		recover     = flag.Bool("recover", false, "replay the WAL before starting")
		delayed     = flag.Bool("delayed-writes", false, "use delayed (asynchronous) disk writes")
		maxInFlight = flag.Int("max-inflight", 0, "admission budget for strict requests (0: default, -1: unlimited)")
		httpTimeout = flag.Duration("http-timeout", 0, "server-side deadline per client request (0: default)")
		maxBatch    = flag.Int("max-batch", 0, "max actions coalesced into one multicast bundle (0: default, 1: disable batching)")
		adminAddr   = flag.String("admin-addr", "", "serve /metrics, /debug/events and /debug/pprof on this address (empty: disabled)")
		logLevel    = flag.String("log-level", "info", "log threshold: debug|info|warn|error")
	)
	flag.Parse()
	if *id == "" {
		return fmt.Errorf("-id is required")
	}
	if *walPath == "" {
		*walPath = *id + ".wal"
	}

	var level slog.Level
	if err := level.UnmarshalText([]byte(*logLevel)); err != nil {
		return fmt.Errorf("bad -log-level %q: %w", *logLevel, err)
	}
	// The engine stamps "server" on its own records, so the handler adds
	// no pre-bound attrs (they would duplicate).
	logger := slog.New(slog.NewJSONHandler(os.Stderr, &slog.HandlerOptions{Level: level}))

	// One observer bundle is shared by every layer: transport, group
	// communication and the replication engine all register into the same
	// metrics registry and event ring, so /metrics is one coherent scrape.
	ob := obs.NewObserver().WithLogger(logger)

	peers := make(map[types.ServerID]string)
	servers := []types.ServerID{types.ServerID(*id)}
	if *peerSpec != "" {
		for _, part := range strings.Split(*peerSpec, ",") {
			kv := strings.SplitN(strings.TrimSpace(part), "=", 2)
			if len(kv) != 2 {
				return fmt.Errorf("bad peer %q (want id=addr)", part)
			}
			pid := types.ServerID(kv[0])
			peers[pid] = kv[1]
			servers = append(servers, pid)
		}
	}
	types.SortServerIDs(servers)

	tr, err := tcpnet.New(tcpnet.Config{
		ID:     types.ServerID(*id),
		Listen: *listen,
		Peers:  peers,
		Obs:    ob,
	})
	if err != nil {
		return err
	}
	defer tr.Close()

	policy := storage.SyncForced
	if *delayed {
		policy = storage.SyncDelayed
	}
	wal, err := storage.OpenFileLog(*walPath, storage.Options{Policy: policy})
	if err != nil {
		return err
	}
	defer wal.Close()

	gc := evs.NewNode(tr, evs.WithTick(5*time.Millisecond), evs.WithObserver(ob))
	defer gc.Close()

	eng, err := core.New(core.Config{
		ID:              types.ServerID(*id),
		Servers:         servers,
		GC:              gc,
		Log:             wal,
		Recover:         *recover,
		MaxInFlight:     *maxInFlight,
		MaxBatchActions: *maxBatch,
		Obs:             ob,
	})
	if err != nil {
		return err
	}
	defer eng.Close()

	mux := httpapi.New(eng, httpapi.Config{
		Timeout:     *httpTimeout,
		MaxInFlight: *maxInFlight,
	})

	srv := &http.Server{Addr: *httpAddr, Handler: mux}
	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe() }()
	if *adminAddr != "" {
		// The admin surface gets its own mux (never DefaultServeMux) and
		// its own listener, so profiling and scraping never share a port
		// with the client API.
		admin := http.NewServeMux()
		admin.Handle("GET /metrics", ob.Reg)
		admin.HandleFunc("GET /debug/events", ob.ServeEvents)
		admin.HandleFunc("/debug/pprof/", pprof.Index)
		admin.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		admin.HandleFunc("/debug/pprof/profile", pprof.Profile)
		admin.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		admin.HandleFunc("/debug/pprof/trace", pprof.Trace)
		go func() { errCh <- http.ListenAndServe(*adminAddr, admin) }()
		logger.Info("admin listener up", "server", *id, "addr", *adminAddr)
	}
	logger.Info("replica up", "server", *id, "replication", *listen, "clients", *httpAddr)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errCh:
		return err
	case <-sig:
		ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
		return nil
	}
}
