GO ?= go

.PHONY: all vet fmt-check lint lint-report allow-audit one-follower one-reply unreached vulncheck build test race fuzz-smoke bench-smoke chaos scale partition storage raster loc ci

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

# one-follower keeps the op-stream follower written once: the versioned
# op message and the resync request are spoken only by internal/follow
# (subscriber side), ServeConn in dataservice/service.go (serving side)
# and internal/transport (the wire), so a render replica, standby or
# mirror that grows its own version rule again fails here. bench/ reads
# the raw stream to time it and is the harness, not the system.
one-follower:
	@out="$$(grep -rlE 'transport\.(MsgSceneOpVer|MsgResyncRequest)' --include='*.go' --exclude='*_test.go' . \
		| grep -vE '^\./(bench/|internal/transport/|internal/follow/|internal/dataservice/service\.go$$)')"; \
	if [ -n "$$out" ]; then echo "op-stream follower logic outside internal/follow:"; echo "$$out"; exit 1; fi

# one-reply keeps "request → answer or typed refusal" written once: how a
# refusal or a decline crosses a socket is Conn.Refuse and how it comes
# back is Conn.Expect (Conn.Refused for a loop reading many types), so
# nothing outside internal/transport names the two messages or decodes
# their bodies by hand again.
one-reply:
	@out="$$(grep -rlE 'transport\.(MsgError|MsgDeclined|ErrorInfo|Declined)' --include='*.go' --exclude='*_test.go' . \
		| grep -vE '^\./(bench/|internal/transport/)')"; \
	if [ -n "$$out" ]; then echo "a refusal read or written by hand outside internal/transport:"; echo "$$out"; exit 1; fi

# unreached keeps the system what something runs: every non-test function
# in a library package is linked by some main package (cmd/*, examples/*,
# bench) or covered by a reasoned prefix in unreached.keep, and every
# keep entry still covers something (see cmd/unreached).
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
# trails back, the thin client's image decoder), the rasterizer's edge
# functions, and the tile frustum the render service culls nodes with.
# go test takes one -fuzz target and one package per run.
fuzz-smoke:
	$(GO) test ./internal/follow -run '^$$' -fuzz '^FuzzFollow$$' -fuzztime 10s
	$(GO) test ./internal/uddi -run '^$$' -fuzz '^FuzzRegistryDispatch$$' -fuzztime 10s
	$(GO) test ./internal/raster -run '^$$' -fuzz '^FuzzEdgeFunction$$' -fuzztime 10s
	$(GO) test ./internal/raster -run '^$$' -fuzz '^FuzzTileCull$$' -fuzztime 10s
	$(GO) test ./internal/transport -run '^$$' -fuzz '^FuzzReceive$$' -fuzztime 10s
	$(GO) test ./internal/marshal -run '^$$' -fuzz '^FuzzDecode$$' -fuzztime 10s
	$(GO) test ./internal/dataservice/wal -run '^$$' -fuzz '^FuzzScan$$' -fuzztime 10s
	$(GO) test ./internal/imgcodec -run '^$$' -fuzz '^FuzzDecode$$' -fuzztime 10s

# bench-smoke runs each rasterizer and render-service microbenchmark
# once, so the ones EXPERIMENTS.md cites (BenchmarkElleFrame's per-mesh
# and batched frames, BenchmarkRenderTile) keep compiling and running;
# it times nothing.
bench-smoke:
	$(GO) test ./internal/raster ./internal/renderservice -run '^$$' -bench 'ElleFrame|RenderTile' -benchtime 1x

# chaos runs the kill-and-recover suite twice under the race detector:
# failover and recovery schedules are goroutine-heavy, and a second run
# shakes out order-dependent flakes the first can mask.
chaos:
	$(GO) test ./internal/chaos/ -race -count=2

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

# loc prints the non-test line count ROADMAP item 3 asks every PR to
# report before and after in CHANGES.md (bench/ is the benchmark harness,
# not the system, so it is left out).
loc:
	@find . -name '*.go' -not -name '*_test.go' -not -path './bench/*' | xargs wc -l | tail -1

# ci is the full gate: formatting, static checks (ravelint with the
# LINT.json artifact and per-analyzer timings, the allow-annotation
# audit, vet, the one-follower and one-reply grep gates, the unreached-code gate,
# govulncheck when present), a clean build, the test suite under the
# race detector, ten seconds of
# fuzzing per target, one run of each raster microbenchmark, a doubled chaos pass (the chaos suite exercises concurrent failure recovery, so -race
# is part of the bar, not an extra), the reduced fleet-scale load,
# region-partition, and sick-disk scenarios, and the rasterizer
# regression benchmark.
ci: fmt-check lint-report allow-audit lint one-follower one-reply unreached vulncheck build race fuzz-smoke bench-smoke chaos scale partition storage raster
