# Standard entry points; everything is plain `go` underneath.

GO ?= go

.PHONY: all build vet test test-short race ci bench figures figures-quick fuzz cover clean

all: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

race:
	$(GO) test -race ./...

# The pre-merge gate: compile, vet, formatting, quick tests, the pipeline
# refactor's byte-equality + steady-state alloc guards, the node wiring
# under the race detector, and the parallel engine's determinism/
# cancellation tests (every experiment run serially and on 3 workers)
# plus the all-figure CSV golden under the race detector, plus the serve
# daemon's drain and cancellation paths under the race detector
# (signal-vs-submit, drain-window expiry, and client cancellation all
# race by design), and the durable store's WAL replay + cache recovery
# paths under the race detector (WAL appends race admission and
# completion by design), and the
# flight-recorder trace paths (capture determinism, cache reuse, restart
# durability, HTTP round trip) under the race detector, and the scenario
# registry's serve path (by-name jobs end-to-end, typed rejection,
# /scenarios listing) plus the 40-packet scenario head-to-head floors,
# both under the race detector, and the fleet coordinator's failover /
# mid-run-growth / byte-identity paths under the race detector (workers,
# kill, and add-backend race the dispatch queue by design), and the bench
# harness under the race detector. The arm64
# build and vet keep the portable decoder path compiling on hosts without
# the amd64 vector kernel.
ci: build vet
	GOARCH=arm64 $(GO) build ./...
	GOARCH=arm64 $(GO) vet ./internal/coding
	@fmtout=$$(gofmt -l .); if [ -n "$$fmtout" ]; then \
		echo "gofmt needed on:"; echo "$$fmtout"; exit 1; fi
	$(GO) test -short ./...
	$(GO) test -run 'TestPipelineGolden|TestLinkSendSteadyStateAllocs|TestStandaloneNodesMatchLink' .
	$(GO) test -race -run 'TestPipelineNodesRace|TestStandaloneNodesMatchLink' .
	$(GO) test -race -run 'TestParallelMatchesSerial|TestFigureGolden|TestRunnerCancellation' ./internal/experiments/
	$(GO) test -race -run 'TestServerDrain|TestServerDrainCancelsSlowJobs|TestJobCancel|TestDeterministicNDJSON' ./internal/serve/
	$(GO) test -race -run 'TestSIGTERMDrainsGracefully|TestRestartServesDurableResults' ./cmd/cos-serve/
	$(GO) test -race ./internal/serve/store/ ./internal/serve/cache/
	$(GO) test -race -run 'TestCacheHit|TestStoreRecovery|TestFailedJobsSettle' ./internal/serve/
	$(GO) test -race -run 'TestSlowSubscriberNeverBlocksProducer|TestJournalFanoutConcurrency' ./internal/obs/event/
	$(GO) test -race -run 'TestEventsSlowConsumerGap|TestEventsFollowStreamsLive|TestEventsResumeAfterEviction|TestJobLifecycleEvents' ./internal/serve/ ./internal/serve/http/
	$(GO) test -race -run 'TestTracedJobsByteIdentical|TestTraceCacheReuse|TestTraceSurvivesRestart|TestTraceRoundTrip' ./internal/serve/ ./internal/serve/http/
	$(GO) test -race -run 'TestScenarioJobsEndToEnd|TestSubmitUnknownScenario|TestScenariosEndpoint' ./internal/serve/http/
	$(GO) test -race -run TestScenarioWorlds .
	$(GO) test -race ./internal/fleet/
	$(GO) test -race ./internal/benchkit/

# The Go benchmarks (figures, PHY primitives, Link.Send), then every
# in-repo gate, one package at a time so no gate shares the CPUs with
# another: each gate test writes BENCH_<name>.json at the repository root
# (trace, scenario, events, cache, jobtrace, fleet; one internal/benchkit
# schema) and fails if its bound does not hold.
bench:
	$(GO) test -run '^$$' -bench=. -benchmem .
	$(GO) test -p 1 -v -timeout 30m -run 'TestWriteBench|TestScenarioWorlds' . ./internal/serve/ ./internal/fleet/ -benchkit.dir=$(CURDIR)

# Publication-quality data for every paper figure and ablation (~10 min).
figures:
	$(GO) run ./cmd/cos-figures -fig all -scale 1 -out results/

figures-quick:
	$(GO) run ./cmd/cos-figures -fig all -scale 0.1 -out results/

fuzz:
	$(GO) test ./internal/cos/ -run xxx -fuzz FuzzParseControl -fuzztime 30s
	$(GO) test ./internal/cos/ -run xxx -fuzz FuzzIntervalRoundTrip -fuzztime 30s
	$(GO) test ./internal/scenario/ -run xxx -fuzz FuzzParseRef -fuzztime 30s
	$(GO) test ./internal/coding/ -run xxx -fuzz FuzzViterbiMatchesReference -fuzztime 30s
	$(GO) test ./internal/coding/ -run xxx -fuzz FuzzBitPlaneMatchesReference -fuzztime 30s
	$(GO) test ./internal/modulation/ -run xxx -fuzz FuzzSoftDemapMatchesReference -fuzztime 30s
	$(GO) test ./internal/trace/ -run xxx -fuzz FuzzTraceRead -fuzztime 30s
	$(GO) test ./internal/serve/client/ -run xxx -fuzz FuzzRetryAfter -fuzztime 30s
	$(GO) test ./internal/serve/store/ -run xxx -fuzz FuzzStoreReplay -fuzztime 30s

cover:
	$(GO) test -cover ./...

clean:
	rm -rf results/
