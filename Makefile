GO ?= go

.PHONY: all vet fmt-check lint lint-report allow-audit transport-unaliased one-follower one-reply one-gate one-quantile one-health one-frame one-clock unreached vulncheck build test race fuzz-smoke bench-smoke chaos order scale partition storage replay raster loc ci

all: ci

vet:
	$(GO) vet ./...

# fmt-check fails if any tracked Go file is not gofmt-clean (testdata is
# exempt: lint fixtures deliberately hold findings, but they are still
# kept formatted).
fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# lint runs the repo's own analyzer suite — the roster is registered
# once in internal/lint (run `go run ./cmd/ravelint -h` to list it; see
# DESIGN.md "Static analysis & the determinism contract") — followed by
# go vet.
lint:
	$(GO) run ./cmd/ravelint ./...
	$(GO) vet ./...

# lint-report is the CI form of lint: the parallel driver writes the
# sorted findings to the LINT.json artifact (an empty array when clean),
# prints per-analyzer wall time, and fails on any finding. The artifact
# lands even on failure, so CI can surface the findings that gated.
lint-report:
	@$(GO) run ./cmd/ravelint -json -timings ./... > LINT.json; \
	status=$$?; \
	if [ $$status -ne 0 ]; then echo "ravelint findings (see LINT.json):"; cat LINT.json; fi; \
	exit $$status

# allow-audit fails if any //lint:allow annotation in loaded code no
# longer suppresses a diagnostic — stale escape hatches get deleted, not
# collected.
allow-audit:
	$(GO) run ./cmd/ravelint -allow-audit ./...

# transport-unaliased backs one-follower and one-reply, which match the
# text "transport.": no non-test file outside internal/transport imports
# repro/internal/transport under another name (an alias, "." or "_"),
# so an import cannot rename its way past them.
transport-unaliased:
	@out="$$(grep -rnE '^([[:space:]]+|import[[:space:]]+)[A-Za-z_.][A-Za-z0-9_]*[[:space:]]+"repro/internal/transport"' --include='*.go' --exclude='*_test.go' . \
		| grep -v '^\./internal/transport/')"; \
	if [ -n "$$out" ]; then echo "repro/internal/transport imported under another name:"; echo "$$out"; exit 1; fi

# one-follower keeps the op-stream follower written once: the versioned
# op message and the resume-ok bootstrap reply are spoken only by
# internal/follow (subscriber side), dataservice/service.go (serving
# side) and internal/transport (the wire), so a render replica, standby
# or mirror that grows its own version rule or resume handling again
# fails here. bench/ reads the raw stream to time it and is the harness,
# not the system. Every op the authority sends is versioned, so the bare
# op message is named only by the wire and service.go's arm that takes a
# subscriber's submitted op: a second, unversioned stream fails here too.
one-follower: transport-unaliased
	@out="$$( { grep -rlE 'transport\.(MsgSceneOpVer|MsgResumeOK)' --include='*.go' --exclude='*_test.go' . \
		| grep -vE '^\./(bench/|internal/transport/|internal/follow/|internal/dataservice/service\.go$$)'; \
		grep -rlE 'transport\.MsgSceneOp\b' --include='*.go' --exclude='*_test.go' . \
		| grep -vE '^\./(internal/transport/|internal/dataservice/service\.go$$)'; } )"; \
	if [ -n "$$out" ]; then echo "op-stream follower logic outside internal/follow:"; echo "$$out"; exit 1; fi

# one-reply keeps "request → answer or typed refusal" written once: how a
# refusal or a decline crosses a socket is Conn.Refuse and how it comes
# back is Conn.Expect (Conn.Refused for a loop reading many types), so
# nothing outside internal/transport names the two messages or decodes
# their bodies by hand again.
one-reply: transport-unaliased
	@out="$$(grep -rlE 'transport\.(MsgError|MsgDeclined|ErrorInfo|Declined)' --include='*.go' --exclude='*_test.go' . \
		| grep -vE '^\./(bench/|internal/transport/)')"; \
	if [ -n "$$out" ]; then echo "a refusal read or written by hand outside internal/transport:"; echo "$$out"; exit 1; fi

# one-gate keeps admission control written once: the decline reasons a
# gate decides ("queue-full", "tenant-share", "deadline") are declared,
# and the admission_* series emitted, only by internal/admission, so a
# service that grows its own inflight count or EWMA again fails here.
one-gate:
	@out="$$(grep -rnE '([=:][[:space:]]*"(queue-full|tenant-share|deadline)")|"admission_[a-z_]*"' --include='*.go' --exclude='*_test.go' . \
		| grep -v '^\./internal/admission/')"; \
	if [ -n "$$out" ]; then echo "admission state outside internal/admission:"; echo "$$out"; exit 1; fi

# one-quantile keeps latency summaries written once: every latency is a
# telemetry histogram and Metric.Quantile is the one routine that reads
# it, so a sample pool ([]time.Duration) or a second quantile/percentile
# function outside internal/telemetry fails here. bench/ times the
# system from outside and is the harness, not the system.
one-quantile:
	@out="$$(grep -rnE '\[\]time\.Duration|func .*([Qq]uantile|[Pp]ercentile)\(' --include='*.go' --exclude='*_test.go' . \
		| grep -vE '^\./(bench/|internal/telemetry/)')"; \
	if [ -n "$$out" ]; then echo "a sample pool or second quantile routine outside internal/telemetry:"; echo "$$out"; exit 1; fi

# one-health keeps a render service's health in one place, the
# distributor's frame loop (dataservice.Distributor's peer records): no
# non-test file outside internal/dataservice declares a Breaker type or an
# Available() bool method — a wrapper that keeps a breaker of its own and
# the side channel that reports it — and nothing names the resilient frame
# variant, since every distributed frame recovers. Nor does a second table
# of render services come back: the migration policy reads the peer
# records, so nothing names a MigrationEngine, its SetAvailable feed or
# the distributor's LoadSnapshot copy of it. Membership is the record's
# too: a failed service is read as Health's Failed flag and a service
# leaves through FailService, so nothing names FailedServices or
# RemoveService.
one-health:
	@out="$$( { grep -rnE '^type [A-Za-z0-9_]*Breaker|^func \([^)]*\) Available\(\) bool' --include='*.go' --exclude='*_test.go' . \
		| grep -v '^\./internal/dataservice/'; \
		grep -rnE 'RenderDistributedResilient|MigrationEngine|SetAvailable|LoadSnapshot|FailedServices|RemoveService' --include='*.go' --exclude='*_test.go' .; } )"; \
	if [ -n "$$out" ]; then echo "peer health kept outside the distributor's frame loop:"; echo "$$out"; exit 1; fi

# one-frame keeps a distributed frame asked for one way: Distributor.Render
# takes a FrameRequest whose Mode names the partitioning (tiles, subsets,
# slabs) and returns a FrameReport for every mode, so no Go file outside
# bench/, tests included, calls or takes as a method value a per-mode
# frame method or names the old tile-only report. bench/ still calls the
# two deprecated shims.
one-frame:
	@out="$$(grep -rnE '\.(RenderDistributed|RenderTilesHedged|RenderVolumeDistributed)\b|HedgeReport' --include='*.go' . \
		| grep -v '^\./bench/')"; \
	if [ -n "$$out" ]; then echo "a distributed frame asked for outside Distributor.Render:"; echo "$$out"; exit 1; fi

# one-clock keeps virtual time moved one way: a scenario runs on
# vclock's Drive, which moves the clock only when every goroutine is
# blocked, so no Go file outside internal/vclock, tests included, pumps
# the clock from a select's default branch — an Advance-and-yield loop
# turns host CPU time into virtual time. Unit tests still step a clock
# by hand with a plain Advance call.
one-clock:
	@out="$$(find . -name '*.go' -not -path './internal/vclock/*' -print0 | xargs -0 awk ' \
		FNR == 1 { d = 0 } \
		/^[[:space:]]*default:[[:space:]]*$$/ { d = FNR; next } \
		/^[[:space:]]*(case .*:|})[[:space:]]*$$/ { d = 0 } \
		d && /\.Advance\(/ { print FILENAME ":" FNR ": " $$0 }')"; \
	if [ -n "$$out" ]; then echo "a virtual clock pumped from a select's default branch:"; echo "$$out"; exit 1; fi

# unreached keeps the system what something runs: every non-test function
# in a library package is linked by some main package (cmd/*, examples/*,
# bench) or covered by a reasoned prefix in unreached.keep, every keep
# entry still covers something, and the debt section holds no entry (see
# cmd/unreached).
unreached:
	$(GO) run ./cmd/unreached

# vulncheck runs govulncheck when the binary is available; the offline
# build container has neither the tool nor network access to the vuln
# database, so it skips gracefully there.
vulncheck:
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "govulncheck not installed; skipping"; fi

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# race runs every package's tests under the race detector; this includes
# the raster golden-image comparisons and the telemetry determinism and
# snapshot-identity suites, so ci gates on both.
race:
	$(GO) test -race ./...

# fuzz-smoke gives each fuzz target ten seconds of mutation beyond the
# seed corpus that `go test` already replays: the decoders that face
# bytes from outside the process (the op-stream follower, the registry's
# SOAP dispatcher, the transport's frame reader, marshal's op, scene and
# frame decoders, the wal segment scanner that reads journals and audit
# trails back, the thin client's image decoder, the OBJ reader behind
# -model file.obj), the rasterizer's edge functions, and the tile
# frustum the render service culls nodes with: nine targets. go test
# takes one -fuzz target and one package per run.
fuzz-smoke:
	$(GO) test ./internal/follow -run '^$$' -fuzz '^FuzzFollow$$' -fuzztime 10s
	$(GO) test ./internal/uddi -run '^$$' -fuzz '^FuzzRegistryDispatch$$' -fuzztime 10s
	$(GO) test ./internal/raster -run '^$$' -fuzz '^FuzzEdgeFunction$$' -fuzztime 10s
	$(GO) test ./internal/raster -run '^$$' -fuzz '^FuzzTileCull$$' -fuzztime 10s
	$(GO) test ./internal/transport -run '^$$' -fuzz '^FuzzReceive$$' -fuzztime 10s
	$(GO) test ./internal/marshal -run '^$$' -fuzz '^FuzzDecode$$' -fuzztime 10s
	$(GO) test ./internal/dataservice/wal -run '^$$' -fuzz '^FuzzScan$$' -fuzztime 10s
	$(GO) test ./internal/imgcodec -run '^$$' -fuzz '^FuzzDecode$$' -fuzztime 10s
	$(GO) test ./internal/geom/objply -run '^$$' -fuzz '^FuzzReadOBJ$$' -fuzztime 10s

# bench-smoke runs each rasterizer, render-service, assembly and commit
# microbenchmark once, so the ones EXPERIMENTS.md cites (BenchmarkElleFrame's
# per-mesh and batched frames, full-w2-batch reusing its lighting records
# and full-w2-batch-moving relighting every frame, BenchmarkRenderTile, BenchmarkAssemble's
# tiles and subsets painted from their replies as sent, BenchmarkCommitReshape's
# journalled reshape fanned out to two sockets, BenchmarkDeltaRLE's
# thin-client delta frame encoded and decoded) keep compiling and running;
# it times nothing.
bench-smoke:
	$(GO) test ./internal/raster ./internal/renderservice -run '^$$' -bench 'ElleFrame|RenderTile' -benchtime 1x
	$(GO) test ./internal/imgcodec -run '^$$' -bench '^BenchmarkDeltaRLE$$' -benchtime 1x -benchmem
	$(GO) test ./internal/compositor -run '^$$' -bench '^BenchmarkAssemble$$' -benchtime 1x -benchmem
	$(GO) test ./internal/dataservice -run '^$$' -bench '^BenchmarkCommitReshape$$' -benchtime 1x -benchmem

# chaos runs the kill-and-recover suite twice under the race detector:
# failover and recovery schedules are goroutine-heavy, and a second run
# shakes out order-dependent flakes the first can mask. Every scenario
# runs on the driven clock (vclock's Drive), so the suite and the fleet
# harness's own runs (internal/loadgen) are then run at GOMAXPROCS 1, 2
# and 8: a deadline a part misses or a lease a monitor claims must not
# depend on how many goroutines run beside it.
chaos:
	$(GO) test ./internal/chaos/ -race -count=2
	for p in 1 2 8; do GOMAXPROCS=$$p $(GO) test ./internal/chaos/ ./internal/loadgen/ -count=3 || exit 1; done

# order runs the ordered-stream tests twenty times at GOMAXPROCS 1, 2
# and 8 and once under the race detector: the follower conformance table;
# TestSubscribeWhileCommitting, whose wire-order input checks that a
# subscriber's stream is in commit order across subscribes and resumes
# while three goroutines commit; TestFailedDeliveryCutsSubscriber, a
# socket that fails a write beside two committers, which must leave the
# fan-out and be closed with nothing more written to it and resumed
# gap-only; and TestFilteredRedialConverges, an interest-filtered copy
# whose link dies while a node it covers is removed, which must redial
# to a snapshot and end equal to the authority on its subtree. An
# ordering race shows only on some interleavings, and how many
# goroutines run at once changes which.
order:
	for p in 1 2 8; do GOMAXPROCS=$$p $(GO) test ./internal/dataservice -run '^(TestFollowerConformance|TestSubscribeWhileCommitting|TestFailedDeliveryCutsSubscriber|TestFilteredRedialConverges)$$' -count=20 || exit 1; done
	$(GO) test ./internal/dataservice -race -run '^(TestFollowerConformance|TestSubscribeWhileCommitting|TestFailedDeliveryCutsSubscriber|TestFilteredRedialConverges)$$'

# scale runs the reduced deterministic raveload scenario — 100 sessions
# on 4 nodes with a mid-run node kill — and fails on any acceptance
# violation (request conservation, client-visible errors, lost
# sessions). The checked-in BENCH_scale.json comes from the full-size
# run of the same harness (see EXPERIMENTS.md).
scale:
	$(GO) run ./cmd/raveload -sessions 100 -nodes 4 -duration 5s -kill-at 2s -check

# partition runs the reduced region-partition scenario — a two-region
# fleet with factor-2 replication loses its second region mid-run and
# heals before the end — and fails on any acceptance violation,
# including the locality invariants (zero bootstrap bytes crossing the
# partition while it is up). The checked-in BENCH_partition.json comes
# from the full-size run of the same harness (see EXPERIMENTS.md).
partition:
	$(GO) run ./cmd/raveload -sessions 100 -nodes 4 -duration 10s \
		-regions eu,us -replicas 2 -partition-at 3s -heal-at 6s -check

# storage runs the reduced sick-disk scenario — a factor-2 fleet has its
# most-loaded node's disk poisoned mid-run — and fails on any acceptance
# violation, including the storage invariants (sick node fully
# evacuated, replication factor restored on healthy disks, and the usual
# zero client-visible errors even though every evacuated session had an
# op fail its commit). The checked-in BENCH_storage.json comes from the
# full-size run of the same harness (see EXPERIMENTS.md).
storage:
	$(GO) run -race ./cmd/raveload -sessions 100 -nodes 4 -duration 5s \
		-replicas 2 -sick-disk-at 2s -check

# replay regenerates the checked-in BENCH_partition.json from the
# scenario it records (its "scenario" block, the EXPERIMENTS.md command)
# at GOMAXPROCS 1 and 2, and fails unless each run writes the file byte
# for byte: a full-size fleet artifact is a pure function of its seed and
# scenario, at any GOMAXPROCS.
replay:
	@dir="$$(mktemp -d)"; status=0; \
	for p in 1 2; do \
		GOMAXPROCS=$$p $(GO) run ./cmd/raveload -nodes 8 -sessions 600 -duration 12s \
			-regions eu,us -replicas 2 -partition-at 4s -heal-at 8s \
			-out "$$dir/BENCH_partition.json" -check >/dev/null \
		&& cmp "$$dir/BENCH_partition.json" BENCH_partition.json \
		&& echo "replay: BENCH_partition.json regenerated byte for byte at GOMAXPROCS=$$p" \
		|| { status=1; break; }; \
	done; rm -rf "$$dir"; exit $$status

# raster runs the reduced deterministic rasterizer benchmark — the
# galleon through the fixed-point and float-reference cores, 30 frames
# each — and fails on any regression invariant: core parity, the fixed
# core losing to the reference core, or a throughput cliff against the
# checked-in BENCH_raster.json baseline (which comes from the full-size
# 60-frame run of the same harness; see EXPERIMENTS.md). The reduced
# run's artifact goes to a scratch directory so the checked-in baseline
# is gated against, not overwritten; regenerate it with
# `go run ./cmd/ravebench -extra raster -frames 60`.
raster:
	@dir="$$(mktemp -d)"; \
	$(GO) run ./cmd/ravebench -extra raster -frames 30 -check -out "$$dir"; \
	status=$$?; rm -rf "$$dir"; exit $$status

# loc prints the non-test line count, which ROADMAP.md's standing
# pay-down asks each change to report before and after in CHANGES.md
# (bench/ is the benchmark harness, not the system, so it is left out).
loc:
	@find . -name '*.go' -not -name '*_test.go' -not -path './bench/*' | xargs wc -l | tail -1

# ci is the full gate: formatting, static checks (ravelint with the
# LINT.json artifact and per-analyzer timings, the allow-annotation
# audit, vet, the one-follower, one-reply, one-gate, one-quantile, one-health, one-frame and one-clock grep gates and the unaliased
# transport import they rely on, the unreached-code gate,
# govulncheck when present), a clean build, the test suite under the
# race detector, ten seconds of
# fuzzing per target, one run of each raster microbenchmark, a doubled chaos pass (the chaos suite exercises concurrent failure recovery, so -race
# is part of the bar, not an extra), the ordered-stream tests at three
# GOMAXPROCS settings and under -race, the reduced fleet-scale load,
# region-partition, and sick-disk scenarios, the full-size partition
# artifact replayed byte for byte, and the rasterizer regression
# benchmark.
ci: fmt-check lint-report allow-audit lint one-follower one-reply one-gate one-quantile one-health one-frame one-clock unreached vulncheck build race fuzz-smoke bench-smoke chaos order scale partition storage replay raster
