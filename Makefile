# BRISK build and evaluation targets. Standard library only; Go ≥ 1.22.

GO ?= go

# Tolerated fractional ingest-throughput loss vs BENCH_baseline.json.
# The baseline numbers are machine-dependent, so CI loosens this knob
# (absolute throughput on shared runners is noisy) while the allocation
# and shard-scaling gates stay strict everywhere.
BENCH_MAXLOSS ?= 0.15

# COVER=1 folds a coverage profile into the `test` target (and therefore
# into `check`) instead of adding a separate test run: the same suite
# executes once, writing coverage.out for CI's summary table.
COVER ?=
ifeq ($(COVER),1)
TESTFLAGS += -coverprofile=coverage.out -covermode=atomic
endif

.PHONY: all check build vet staticcheck staticcheck-strict test test-race race bench bench-check benchmark-smoke sync-gate scenario-smoke scenario-full fuzz fuzz-smoke eval examples docs-check clean

all: build vet test test-race

# The default gate: compile, lint, docs, tests, perf regression, the
# nested benchmark module, the smoke slice of the scenario matrix, and a
# short fuzz smoke over the wire decoder and the scenario-spec parser.
check: build vet staticcheck docs-check test bench-check benchmark-smoke scenario-smoke fuzz-smoke

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# staticcheck runs when installed and is skipped (with a note) when not,
# so the gate works in minimal containers without network access.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping"; \
	fi

# CI variant: staticcheck is mandatory — the workflow installs a pinned
# version, so "not installed" is a broken pipeline, not a soft skip.
staticcheck-strict:
	staticcheck ./...

# Documentation gate: every relative Markdown link must resolve, and all
# source must be gofmt-clean.
docs-check:
	$(GO) run ./cmd/docscheck
	@unformatted="$$(gofmt -l .)"; if [ -n "$$unformatted" ]; then \
		echo "gofmt needed:"; echo "$$unformatted"; exit 1; fi

test:
	$(GO) test $(TESTFLAGS) ./...

# Race-detector pass over the concurrent core: the packages where
# reconnect, resume, fault injection, sharded sorting, subscription
# fan-out, rate-extrapolating clocks, the pooled record paths, and the
# public Manager wrapper and Consumer hammer shared state.
test-race:
	$(GO) test -race . ./internal/exs ./internal/uplink ./internal/ism ./internal/relay ./internal/faultnet ./internal/wire ./internal/metrics ./internal/ols ./internal/cre ./internal/record ./internal/shm ./internal/scenario ./internal/subscribe ./internal/workload ./internal/clocksync ./internal/vclock

# Full suite under the race detector (slower).
race:
	$(GO) test -race ./...

# One benchmark per paper experiment (see bench_test.go, EXPERIMENTS.md).
bench:
	$(GO) test -bench=. -benchmem ./...

# Performance-regression gate: the zero-allocation contracts (exact, via
# testing.AllocsPerRun; in internal/ols they include the whole byte path
# scan → push → extract → sink-encode on both cores, in internal/record
# the batch scanner, in internal/subscribe the HTTP read side's render
# path, in the root package the Consumer's read path, ≤ 0.01 allocations
# per record), the short ingest benchmark compared against the
# committed baseline — fails on >BENCH_MAXLOSS fractional throughput loss
# or on any real allocs-per-record growth — and the sorter-stage matrix
# over cores {calendar, heap} × shards {1, 4}: the calendar core must
# scale ≥1.5× at 4 shards and beat the heap core ≥1.3× single-shard
# (both skipped below 4 CPUs; skipped rows are announced but omitted
# from the JSON body). Also reports, without gating on it, each
# sorter-stage row's throughput over the ingest stage's ("ratios" in the
# JSON). Writes the current numbers to BENCH_current.json (gitignored; CI
# uploads it as an artifact).
bench-check:
	$(GO) test -run 'TestAllocs' . ./internal/record ./internal/ols ./internal/picl ./internal/shm ./internal/wire ./internal/clocksync ./internal/subscribe
	$(GO) run ./cmd/briskbench benchgate -baseline BENCH_baseline.json -out BENCH_current.json -maxloss $(BENCH_MAXLOSS)

# The repository benchmark (benchmark/, run by benchmark/run.sh) is its
# own module, so `go build ./...` and `go test ./...` never see it: vet
# and test it here, or a refactor of the packages it imports breaks it
# unnoticed.
benchmark-smoke:
	cd benchmark && $(GO) vet . && $(GO) test .

# Probe-efficiency gate: the model-based sync scheduler must hit the E6
# skew bounds at ≥5× fewer probe RTTs than fixed cadence on both the
# quiet and disturbed LANs (deterministic simulation; skipped below
# 4 CPUs like the sorter-scaling gate).
sync-gate:
	$(GO) run ./cmd/briskbench sync -assert-reduction 5

# The smoke slice of the declarative scenario matrix (scenarios/*.json):
# every smoke-tagged workload × topology × clock × fault cell runs against
# a real EXS↔ISM pipeline under the race detector, asserting the pipeline
# contracts (conservation, monotone emission, acked⇒emitted-or-marker)
# and writing the per-cell numbers to BENCH_scenarios.json (gitignored).
scenario-smoke:
	$(GO) run -race ./cmd/briskbench matrix -scenarios scenarios -filter smoke -out BENCH_scenarios.json

# The full matrix (nightly in CI; slow): every full-tagged cell.
scenario-full:
	$(GO) run ./cmd/briskbench matrix -scenarios scenarios -filter full -out BENCH_scenarios_full.json

# Ten-second fuzz smokes of the decoders that ingest untrusted or
# hand-edited bytes: the data-batch frame decoder (every sensor link), the
# record scanner the manager validates every ingested record with (held
# to the reference decoder it replaced), the scenario-spec parser (every
# scenarios/*.json file), the subscription filter compiler, and the read
# side's JSON renderer (held to the encoding/json rendering it replaced).
# Quick enough to sit in the default gate.
fuzz-smoke:
	$(GO) test -fuzz FuzzDataBatch -fuzztime 10s -run '^$$' ./internal/wire/
	$(GO) test -fuzz FuzzScanVsDecode -fuzztime 10s -run '^$$' ./internal/record/
	$(GO) test -fuzz FuzzScenarioSpec -fuzztime 10s -run '^$$' ./internal/scenario/
	$(GO) test -fuzz FuzzFilterExpr -fuzztime 10s -run '^$$' ./internal/subscribe/
	$(GO) test -fuzz FuzzAppendEventVsJSON -fuzztime 10s -run '^$$' ./internal/subscribe/

# Short fuzzing pass over the decoders.
fuzz:
	$(GO) test -fuzz FuzzDecode -fuzztime 30s ./internal/record/
	$(GO) test -fuzz FuzzScanVsDecode -fuzztime 30s ./internal/record/
	$(GO) test -fuzz FuzzRecv -fuzztime 30s ./internal/wire/
	$(GO) test -fuzz FuzzDataBatch -fuzztime 30s ./internal/wire/
	$(GO) test -fuzz FuzzReader -fuzztime 30s ./internal/picl/
	$(GO) test -fuzz FuzzDecoder -fuzztime 30s ./internal/xdr/
	$(GO) test -fuzz FuzzScenarioSpec -fuzztime 30s ./internal/scenario/
	$(GO) test -fuzz FuzzFilterExpr -fuzztime 30s ./internal/subscribe/
	$(GO) test -fuzz FuzzAppendEventVsJSON -fuzztime 30s ./internal/subscribe/

# Regenerate every table of the paper's evaluation.
eval:
	$(GO) run ./cmd/briskbench all

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/distributed
	$(GO) run ./examples/causal
	$(GO) run ./examples/clocksync
	$(GO) run ./examples/profiling

clean:
	$(GO) clean ./...
