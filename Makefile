# Convenience targets; everything is plain `go` underneath.

GO ?= go

.PHONY: all build vet test race chaos cover cover-gate vuln bench bench-smoke bench-overload bench-record demo fig5 accuracy sweep fuzz obs-demo clean

all: build vet test race

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race -timeout=5m ./...

# Fault-injection suites: replay workloads through torn frames, resets,
# slow clients and panicking detectors (internal/wire/chaos_test.go),
# crash/restart the durability machinery at random kill points asserting
# no acknowledged update is ever lost (internal/core/crash_chaos_test.go),
# and kill/resume a streaming replica mid-apply and mid-snapshot
# asserting zero divergence from the primary
# (internal/repl/chaos_test.go). The overload scenarios flood per-domain
# quotas and run a latency storm against the admission controller
# (internal/wire/overload_test.go, internal/core/overload_test.go).
# internal/wal's own suite holds group commit to the fsync=always
# contract: faults against 8 concurrent appenders, nothing visible above
# the durable horizon, parked followers released by Close/Kill
# (internal/wal/chaos_test.go). internal/engine's suite swaps the catalog
# under readers and writers of cached and bound texts: every answer is one
# schema's (internal/engine/catalog_test.go). CHAOS_COUNT repeats every
# test; CI runs every package in CHAOS_PKGS 20 times as a stability gate.
CHAOS_COUNT ?= 1
CHAOS_PKGS ?= ./internal/wire/ ./internal/core/ ./internal/repl/ ./internal/overload/ ./internal/wal/ ./internal/engine/

chaos:
	$(GO) test -race -run 'TestChaos' -count=$(CHAOS_COUNT) -timeout=10m -v $(CHAOS_PKGS)

cover:
	$(GO) test -cover ./...

# Fail if statement coverage of the detection-critical packages drops
# below the floors recorded in scripts/coverage-baseline.txt.
cover-gate:
	scripts/covergate.sh

# Vet and test the benchmark module (its own go.mod, so `make test` never
# compiles it). Tolerates the one TestSmoke assertion that is known to be
# wrong until bench/ can be changed; see the script's head.
bench-smoke:
	scripts/bench-smoke.sh

# Known-vulnerability scan over the module's dependency graph. Gated on
# the scanner being installed (get it with
# `go install golang.org/x/vuln/cmd/govulncheck@latest`) so offline
# builds don't fail; CI installs it and runs this for real.
vuln:
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "vuln: govulncheck not installed, skipping (go install golang.org/x/vuln/cmd/govulncheck@latest)"; \
	fi

# Run every fuzz target for FUZZTIME each. The default is a smoke
# budget; for a real hunt: make fuzz FUZZTIME=10m. Go runs the checked-in
# seed corpora (testdata/fuzz/) plus the f.Add seeds on every plain
# `go test`, so regressions caught by past fuzzing stay covered even
# without this target.
FUZZTIME ?= 15s

fuzz:
	$(GO) test ./internal/sqlparser/ -fuzz=FuzzParse -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/sqlparser/ -fuzz=FuzzShape -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/qstruct/ -fuzz=FuzzBuildStack -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/qstruct/ -fuzz=FuzzSkeletonHash -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/core/ -fuzz=FuzzBeforeExecute -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/engine/ -fuzz=FuzzLikeMatch -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/txtcache/ -fuzz=FuzzCacheModel -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/wire/ -fuzz=FuzzBinaryDecode -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/wire/ -fuzz=FuzzJSONDecode -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/wal/ -fuzz=FuzzWALRecover -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/repl/ -fuzz=FuzzReplFrameDecode -fuzztime=$(FUZZTIME)

# The ablations of DESIGN.md §3 (root bench_test.go) and the packages'
# own micro-benchmarks. Per-request and per-layer numbers of the shipped
# stack are bench/'s: go run -C bench . [--workload NAME]
# COUNT > 1 gives benchstat-comparable samples, e.g.:
#   make bench COUNT=10 > new.txt && benchstat old.txt new.txt
COUNT ?= 1

bench:
	$(GO) test -bench=. -benchmem -count=$(COUNT) ./...

# Overload sweep: drive the shipped server (internal/server) at 1×/2×/4×
# of its execution capacity and print shed rate plus admitted p50/p99 per
# point (the brownout claim: admitted p99 at 4× stays within 2× of the
# 1× baseline). bench-record runs this with -json to refresh
# BENCH_overload.json.
bench-overload:
	$(GO) run ./cmd/septic-bench overload

# Record the overload sweep into BENCH_overload.json; commit the file to
# refresh the recorded numbers. A training update's cost under the WAL is
# bench/'s (go run -C bench . --workload train_wal), the per-policy table
# `septic-bench durability`.
bench-record:
	bash scripts/bench-record.sh

# Reproduce the paper's results.
demo:
	$(GO) run ./cmd/septic-demo -v

fig5:
	$(GO) run ./cmd/septic-bench fig5 -rounds 9

accuracy:
	$(GO) run ./cmd/septic-bench accuracy

sweep:
	$(GO) run ./cmd/septic-bench sweep -loops 4

# Live observability tour: septicd with -obs-addr, the Address Book
# workload plus one attack per detector replayed over the wire, then
# /metrics, /events and /qm curled and shown.
obs-demo:
	bash scripts/obs-demo.sh

clean:
	$(GO) clean ./...
