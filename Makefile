# CI entry points. `make ci` is the gate: vet (which also fails on any
# file `gofmt -l .` lists) + sfavet (the first-party
# static-analysis suite of docs/static-analysis.md) + build + docs checks
# (markdown links + stale documented options + the metric catalogue
# against the declared /metrics families) + race tests + fuzz smoke
# runs (the multi-pattern match oracle, the single-pattern engine and
# the parser against the derivative oracle, the literal matcher against
# its naive scan, the construction state table against a map, and the
# snapshot decoder) + the
# sfaserve serving smoke (server boot, rule load, hot reload under
# concurrent streamed scans, Prometheus /metrics scrape + exposition
# checks + both /metrics goldens) + the snapshot smoke (save → reload → verify verdicts,
# warm-restart sfaserve over a state dir, shard-cache reuse). The
# zero-allocation hot paths — pooled Match, RuleSet.MatchMask and
# RuleStream.Write on both block-driver arms, the single-pattern stream,
# and the instrumented, flight-recorded stream — are gated by
# testing.AllocsPerRun tests, which skip under -race, so `make ci` runs
# `make test` as well as `make race`. `make examples-smoke` runs five of
# the examples (quickstart, streaming, monoidlab, logscan, warmstart),
# each of which exits non-zero on an error; quickstart, streaming,
# logscan and warmstart also on a wrong verdict (quickstart's probes,
# streamed = composed = one-shot, the corrupted input rejected);
# idsscan and idsserve take about a minute each and stay out.
# `make bench-check`
# keeps the repo's benchmark (bench/, its own module, which tier-1 does
# not build) compiling, its unit tests and input pins green, and one
# short real window each of scan_dense (the eager path), scan_sparse
# (the workload where the literal matcher is the whole op), scan_lazy
# (lazy shards behind the prefilter, and the lazy tuple in its
# no-prefilter twin's set-up), stream_chunks (the in-order stream),
# stream_compose (the one workload whose Compose consumes full carried
# mappings, out-of-order segments folded together), serve_small (the
# real server on 512 B requests, each of whose stream Mask walks the
# prefix shards over the stream's head), serve_large (the
# real server at p = GOMAXPROCS, whose windows of 4 KiB and more are cut
# into overlapping sub-chunks that start at D's start state) and build (the only
# window that checks the masks of sets that were built, saved, loaded
# and rebuilt) verified against the isolated-rule oracle — so a change
# that breaks the benchmark, drops a literal hit, breaks a lazy verdict,
# breaks a composed mapping, derives a wrong vector or builds a wrong
# table, fails here, not in the pipeline that runs it.

GO ?= go

.PHONY: build vet lint test race docs-check fuzz-smoke serve-smoke snapshot-smoke examples-smoke bench-check ci

build:
	$(GO) build ./...

# Standard vet. copylocks (catches by-value copies of the obs wrapper
# atomics and sync types) and lostcancel are in vet's default check set,
# so they need no flags here. Then the gofmt gate: any file gofmt would
# change (test fixtures under testdata included) fails the target.
vet:
	$(GO) vet ./...
	@unformatted=$$(gofmt -l .); if [ -n "$$unformatted" ]; then \
		echo "gofmt -l . lists:"; echo "$$unformatted"; exit 1; fi

# First-party analyzers (internal/lint): atomicfield, hotpathalloc,
# pooldispatch, borrowedtable. Annotation grammar and escape hatches are
# documented in docs/static-analysis.md.
lint:
	$(GO) run ./cmd/sfavet ./...

test:
	$(GO) test ./...

# Docs gate: every relative markdown link in README/ROADMAP/docs/ and
# the package READMEs resolves, every documented With* option is still
# declared in the Go source (renames fail here, not in review), every
# markdown file a Go comment cites exists, and docs/observability.md's
# metric catalogue has a row for exactly the families /metrics declares
# (TestMetricCatalogue reads the names from the family table itself).
docs-check:
	$(GO) run ./cmd/docscheck
	$(GO) test -run TestMetricCatalogue ./internal/serve

race:
	$(GO) test -race ./...

# Exercise the fuzz corpora for a few seconds so the oracle cross-checks
# actually run somewhere — every fuzz target in the module, 10 s each:
# FuzzMatch (combined vs isolated vs derivative oracle, a fresh
# whole-input p = 2 set, whose scan of the input repeated past 4 KiB
# derives its D-SFAs' mapping vectors, vs its p = 1 twin, and the
# prefiltered p = 2 search set on that repetition vs its isolated rules,
# its whole-arm window cut into sub-chunks walked as quarters), FuzzEngineAgreement
# (the single-pattern engine vs the derivative oracle, and its known-start
# DFA walk vs its D-SFA walk; the lazy engine vs both, one-shot and in
# p = 2 chunks, also capped so that its walks cross evictions), FuzzPrefilter
# (prefiltered vs unfiltered, one-shot, split and composed, over an eager
# set of every shard mode and a lazily compiled gap-rule set verified per
# rule), FuzzParse (parse → String → parse round trip; derivatives must
# not panic), FuzzDeriveMatchAgainstSelf (matching vs deriving byte by
# byte), FuzzMatcher (the literal matcher vs the naive scan, literal set
# and data both from the fuzz bytes), FuzzIntern (the construction state
# table vs a string-keyed map) and FuzzLoadRuleSet (malformed snapshots
# must error, never panic or over-allocate). A failing input lands in the
# package's testdata/fuzz and is committed with its fix.
fuzz-smoke:
	$(GO) test -fuzz=FuzzMatch -fuzztime=10s -run '^$$' ./sfa
	$(GO) test -fuzz=FuzzEngineAgreement -fuzztime=10s -run '^$$' ./sfa
	$(GO) test -fuzz=FuzzPrefilter -fuzztime=10s -run '^$$' ./sfa
	$(GO) test -fuzz=FuzzParse -fuzztime=10s -run '^$$' ./internal/syntax
	$(GO) test -fuzz=FuzzDeriveMatchAgainstSelf -fuzztime=10s -run '^$$' ./internal/syntax
	$(GO) test -fuzz=FuzzMatcher -fuzztime=10s -run '^$$' ./internal/prefilter
	$(GO) test -fuzz=FuzzIntern -fuzztime=10s -run '^$$' ./internal/intern
	$(GO) test -fuzz=FuzzLoadRuleSet -fuzztime=10s -run '^$$' ./sfa

# Serving subsystem smoke: boot the real sfaserve loop, load rules over
# HTTP, hot-reload under concurrent streamed scans, assert shard reuse,
# scrape /metrics in Prometheus text format (exposition validity, core
# series, counter monotonicity under reloads), compare both /metrics
# encodings with their goldens, count rejected scans, leave no metrics
# row behind a failed tenant create, round-trip the flight recorder +
# attribution endpoints under concurrent load, and close half-sent
# headers and idle keep-alive connections on time — all under -race.
serve-smoke:
	$(GO) test -race -run 'TestServeSmoke|TestServeTimeouts|TestServePromScrapeSmoke|TestServeFlightSmoke|TestServeEndToEnd|TestServeFlightAndAttribution|TestServeFlightConcurrent|TestRuleboardConcurrentScansAndReloads|TestMetricsContentNegotiation|TestMetricsPromExposition|TestPromAttributionSeries|TestPromMonotonicUnderConcurrentScansAndReloads|TestPromTenantRowsSurviveDeleteAndReadd|TestMetricsPromGolden|TestMetricsJSONGolden|TestFailedCreateLeavesNoMetrics|TestScanRejectedCounted|TestSlowScanLogging' ./cmd/sfaserve ./internal/serve

# Snapshot subsystem smoke: rule-set save → reload → byte-identical
# verdicts (vs the isolated oracle), warm-restart the real sfaserve over
# a state directory twice asserting stable persisted BuildIDs, and the
# content-addressed store's concurrency/eviction behaviour — under -race.
snapshot-smoke:
	$(GO) test -race -run 'TestRuleSetSnapshotRoundTrip|TestLoadRuleSetRejectsCorruption|TestShardCacheWarmsRepeatedBuilds|TestWarmRestartSmoke|TestStatePersistAndWarmRestore|TestStoreConcurrent|TestStoreEviction' ./sfa ./cmd/sfaserve ./internal/serve ./internal/snapshot

# Examples smoke: each example below must run to completion, and
# quickstart, streaming, logscan and warmstart must give the right verdicts.
examples-smoke:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/streaming
	$(GO) run ./examples/monoidlab
	$(GO) run ./examples/logscan
	$(GO) run ./examples/warmstart

# The benchmark BENCHMARK.json names: its own tests (-short skips the
# full-length runs), then one 1-second window each of the two eager scan
# workloads, the lazy one, stream_chunks (one stream written in order),
# stream_compose (segments on their own streams, folded with Compose),
# serve_small (512 B bodies through the real sfaserve, each Mask walking
# the prefix shards over the stream's head),
# serve_large (256 KiB bodies through the real sfaserve at p > 1, whose
# window walks of 4 KiB and more are cut into overlapping known-start
# sub-chunks) and build (cold build, Save,
# snapshot loads and one-rule Rebuilds, each resulting set's mask
# checked) through the same entry point the benchmark's runs use —
# every op and spot slice checked by the bench's isolated-rule oracle.
# run.sh builds into .bench_build/.
bench-check:
	cd bench && $(GO) test -short ./...
	bash bench/run.sh -workload scan_dense -seconds 1
	bash bench/run.sh -workload scan_sparse -seconds 1
	bash bench/run.sh -workload scan_lazy -seconds 1
	bash bench/run.sh -workload stream_chunks -seconds 1
	bash bench/run.sh -workload stream_compose -seconds 1
	bash bench/run.sh -workload serve_small -seconds 1
	bash bench/run.sh -workload serve_large -seconds 1
	bash bench/run.sh -workload build -seconds 1

ci: vet lint build docs-check test race fuzz-smoke serve-smoke snapshot-smoke examples-smoke bench-check
