// Command sfaserve is the multi-tenant rule-set matching server: many
// named tenants, each an independently hot-reloadable rule set, all
// sharing one process-wide worker pool. Scan request bodies are matched
// in streamed chunks — constant memory per request, any payload size.
//
// Usage:
//
//	sfaserve [-addr :8261] [-p N] [-whole] [-shard-budget N]
//	         [-lazy] [-table-budget BYTES] [-tenant-table-budget BYTES]
//	         [-state-dir DIR] [-pprof] [-max-rule-bytes N] [-max-scan-bytes N]
//	         [-log-format text|json] [-slow-scan-ms N] [-flight-records N]
//	         [tenant=rulesfile ...]
//
// Logging is structured (log/slog); -log-format json emits one JSON
// object per line for log shippers. -slow-scan-ms N logs a per-stage
// trace (body-read vs match wall time, chunk counts, engine compose
// time, prefilter skips) for every scan taking at least N ms — the
// first place to look when a tenant reports latency. N < 0 traces
// every scan.
//
// Independent of the slow-scan log, every completed scan leaves one
// fixed-size record in the in-memory flight recorder — tenant, size,
// and the per-stage wall-time split — readable at /debug/scans.
// -flight-records N sizes the ring (default 256, rounded up to a power
// of two; 0 disables). Recording is wait-free and allocation-free, so
// there is no reason to disable it other than the few KiB it holds.
//
// With -lazy, rules whose combined automaton the eager builder cannot
// afford are compiled into lazy shards: product states materialize on
// demand during scanning and stay under -table-budget bytes process-wide
// (0 = unlimited), with each tenant further bounded by
// -tenant-table-budget. When the budget fills, the least-recently-
// scanned lazy automaton is reset and rebuilds from traffic. Verdicts
// never change — only construction strategy and memory. /metrics reports
// the hub-wide and per-tenant resident bytes, fills, and evictions.
//
// Request bodies are hard-capped: rule uploads at -max-rule-bytes
// (default 8 MiB — rule files are parsed into memory) and scan payloads
// at -max-scan-bytes (default 4 GiB — scans stream in constant memory,
// the cap only bounds abuse). Oversized bodies get 413.
//
// With -state-dir the server persists every tenant's rule text and
// compiled snapshot (plus a content-addressed shard cache) through each
// reload, and a restarted server restores its tenants warm — decoded
// automata instead of recompiled ones, observable through the stable
// top-bit ShardInfo.BuildIDs in tenant stats. On SIGINT/SIGTERM it
// stops accepting, drains in-flight streamed scans via Ruleboard
// generation pinning, re-persists state, and exits 0.
//
// Each positional argument preloads a tenant from a rules file (same
// format as sfagrep -f: one `name pattern` or bare pattern per line,
// # comments). The HTTP API:
//
//	GET    /healthz                   liveness
//	GET    /metrics                   JSON counters; Prometheus text with
//	                                  ?format=prometheus or Accept: text/plain
//	GET    /debug/scans               flight recorder: last N scan records (?n=)
//	GET    /debug/attribution         per-shard cost, rule heat, speculation report
//	GET    /debug/pprof/*             Go profiling (opt-in via -pprof)
//	GET    /v1/tenants                list tenants with shard stats
//	PUT    /v1/tenants/{name}         create or hot-reload (body: rules file)
//	GET    /v1/tenants/{name}         one tenant's stats
//	DELETE /v1/tenants/{name}         remove a tenant
//	POST   /v1/tenants/{name}/scan    scan the request body, streamed
//
// Example session:
//
//	sfaserve -state-dir /var/lib/sfaserve &
//	curl -X PUT --data-binary @rules.txt localhost:8261/v1/tenants/ids
//	curl -X POST --data-binary @payload.bin localhost:8261/v1/tenants/ids/scan
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/serve"
	"repro/sfa"
)

// drainTimeout bounds how long shutdown waits for in-flight scans.
const drainTimeout = 30 * time.Second

// readHeaderTimeout bounds how long a connection may take to send a
// request's line and headers, and idleTimeout how long a keep-alive
// connection may wait for its next request: without them a client that
// sends half a header holds a connection forever. Neither bounds a body
// — a slow large upload is a streamed scan, so there is no ReadTimeout.
// Variables only so the tests can shorten them.
var (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 120 * time.Second
)

// serverConfig is everything run needs; the tests drive run directly
// with a synthetic shutdown channel instead of signals.
type serverConfig struct {
	addr         string
	stateDir     string
	pprof        bool
	maxRuleBytes int64
	maxScanBytes int64
	preloads     []string
	opts         []sfa.Option

	// logger receives operational messages and slow-scan traces; nil
	// defaults to a text handler on stderr. slowScanMs enables the scan
	// handler's per-stage trace: > 0 is the threshold in milliseconds,
	// < 0 traces every scan, 0 disables.
	logger     *slog.Logger
	slowScanMs int64

	// flightRecords sizes the /debug/scans ring (0 disables recording).
	flightRecords int

	// lazy compilation: tableBudget bounds all tenants' lazy shards
	// process-wide, tenantBudget each tenant (both 0 = unlimited); only
	// consulted when lazy is set.
	lazy         bool
	tableBudget  int64
	tenantBudget int64
}

func main() {
	addr := flag.String("addr", ":8261", "listen address")
	threads := flag.Int("p", 0, "chunk parallelism per scan (0 = GOMAXPROCS)")
	whole := flag.Bool("whole", false, "whole-input acceptance instead of substring search")
	budget := flag.Int("shard-budget", 0, "per-shard D-SFA state budget (0 = default)")
	stateDir := flag.String("state-dir", "", "persist tenants (rules + compiled snapshots) here; warm-restores them on boot")
	pprofFlag := flag.Bool("pprof", false, "mount /debug/pprof/* (profiles expose resident rules/payloads — enable only on trusted networks)")
	maxRuleBytes := flag.Int64("max-rule-bytes", serve.DefaultMaxRuleBytes, "maximum rule-upload body size (413 beyond)")
	maxScanBytes := flag.Int64("max-scan-bytes", serve.DefaultMaxScanBytes, "maximum scan body size (413 beyond)")
	noPrefilter := flag.Bool("no-prefilter", false, "disable the literal prefilter cascade on every tenant (A/B baseline)")
	lazy := flag.Bool("lazy", false, "compile unaffordable rules into lazy shards (on-demand product states under the table budget)")
	tableBudget := flag.Int64("table-budget", 0, "with -lazy: process-wide byte budget for lazy shards' resident states (0 = unlimited)")
	tenantBudget := flag.Int64("tenant-table-budget", 0, "per-tenant byte budget for lazy shards (0 = only the process-wide budget binds)")
	logFormat := flag.String("log-format", "text", "log output format: text or json (one object per line)")
	slowScanMs := flag.Int64("slow-scan-ms", 0, "log a per-stage trace for scans taking at least N ms (0 = off, negative = every scan)")
	flightRecords := flag.Int("flight-records", serve.DefaultFlightRecords, "scan flight-recorder capacity for /debug/scans (rounded up to a power of two, 0 = off)")
	flag.Parse()

	var lh slog.Handler
	switch *logFormat {
	case "json":
		lh = slog.NewJSONHandler(os.Stderr, nil)
	case "text":
		lh = slog.NewTextHandler(os.Stderr, nil)
	default:
		fmt.Fprintf(os.Stderr, "sfaserve: unknown -log-format %q (want text or json)\n", *logFormat)
		os.Exit(2)
	}
	logger := slog.New(lh)

	opts := []sfa.Option{sfa.WithThreads(*threads)}
	if !*whole {
		opts = append(opts, sfa.WithSearch())
	}
	if *budget > 0 {
		opts = append(opts, sfa.WithShardStateBudget(*budget))
	}
	if *noPrefilter {
		opts = append(opts, sfa.WithoutPrefilter())
	}
	if *lazy {
		opts = append(opts, sfa.WithLazyCompile())
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	cfg := serverConfig{
		addr: *addr, stateDir: *stateDir, pprof: *pprofFlag,
		maxRuleBytes: *maxRuleBytes, maxScanBytes: *maxScanBytes,
		preloads: flag.Args(), opts: opts,
		logger: logger, slowScanMs: *slowScanMs, flightRecords: *flightRecords,
		lazy: *lazy, tableBudget: *tableBudget, tenantBudget: *tenantBudget,
	}
	if err := run(cfg, nil, ctx.Done()); err != nil {
		fmt.Fprintf(os.Stderr, "sfaserve: %v\n", err)
		os.Exit(1)
	}
}

// run builds the hub (restoring persisted tenants when a state dir is
// configured), preloads tenants, and serves until the listener fails or
// shutdown closes. ready, if non-nil, receives the bound address once
// the server is listening. A shutdown-initiated exit returns nil after
// the graceful sequence: stop accepting → drain pinned scans → persist.
func run(cfg serverConfig, ready chan<- string, shutdown <-chan struct{}) error {
	logger := cfg.logger
	if logger == nil {
		logger = slog.New(slog.NewTextHandler(os.Stderr, nil))
	}
	hub := serve.NewHub(cfg.opts...)
	if cfg.flightRecords != serve.DefaultFlightRecords {
		hub.SetFlightRecords(cfg.flightRecords)
	}
	if cfg.lazy {
		hub.SetTableBudget(sfa.NewTableBudget(cfg.tableBudget), cfg.tenantBudget)
	}
	if cfg.stateDir != "" {
		st, err := serve.OpenState(cfg.stateDir)
		if err != nil {
			return err
		}
		hub.SetState(st)
		stats, err := hub.Restore()
		if err != nil {
			return fmt.Errorf("restoring %s: %w", cfg.stateDir, err)
		}
		if stats.Tenants > 0 || len(stats.Failed) > 0 {
			logger.Info("state restored",
				slog.String("dir", cfg.stateDir),
				slog.Int("tenants", stats.Tenants),
				slog.Int("warm", stats.Warm),
				slog.Int("rebuilt", stats.Rebuilt),
				slog.Int("cold", stats.Cold),
				slog.Int("failed", len(stats.Failed)))
		}
	}
	for _, spec := range cfg.preloads {
		name, path, ok := strings.Cut(spec, "=")
		if !ok || name == "" || path == "" {
			return fmt.Errorf("bad preload %q (want tenant=rulesfile)", spec)
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defs, err := serve.ParseRules(f)
		f.Close()
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		_, b, _, err := hub.SetRules(name, defs)
		if err != nil {
			return fmt.Errorf("tenant %s: %w", name, err)
		}
		br := b.RuleSet().BuildReport()
		logger.Info("tenant loaded",
			slog.String("tenant", name),
			slog.Int("rules", b.RuleSet().Len()),
			slog.Int("shards", b.RuleSet().NumShards()),
			slog.Int("cache_hits", br.CacheHits),
			slog.Int("built", br.Built),
			slog.Int64("build_ms", br.TotalNs/1e6))
	}

	ln, err := net.Listen("tcp", cfg.addr)
	if err != nil {
		return err
	}
	logger.Info("listening", slog.String("addr", ln.Addr().String()), slog.Int("tenants", len(hub.Names())))
	if ready != nil {
		ready <- ln.Addr().String()
	}
	hopts := []serve.HandlerOption{
		serve.WithRuleBodyLimit(cfg.maxRuleBytes),
		serve.WithScanBodyLimit(cfg.maxScanBytes),
	}
	if cfg.pprof {
		hopts = append(hopts, serve.WithProfiling())
	}
	if cfg.slowScanMs != 0 {
		hopts = append(hopts, serve.WithSlowScanLog(logger, time.Duration(cfg.slowScanMs)*time.Millisecond))
	}
	srv := &http.Server{
		Handler:           serve.NewHandler(hub, hopts...),
		ReadHeaderTimeout: readHeaderTimeout,
		IdleTimeout:       idleTimeout,
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()

	select {
	case err := <-errc:
		return err
	case <-shutdown:
	}

	// Graceful sequence: Shutdown stops the listener and waits for
	// in-flight handlers; Drain double-checks via generation pinning
	// that no streamed scan is still writing; then state is mirrored
	// one last time and the process exits 0.
	logger.Info("shutting down: draining in-flight scans")
	ctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		logger.Warn("shutdown", slog.Any("err", err))
	}
	if err := hub.Drain(ctx); err != nil {
		logger.Warn("drain", slog.Any("err", err))
	}
	hub.PersistAll()
	logger.Info("bye")
	return nil
}
