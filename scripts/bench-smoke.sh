#!/usr/bin/env bash
# Vet and test the benchmark module (bench/ is its own module, so the root
# `go test ./...` never compiles it).
#
# One assertion of its TestSmoke is known to be wrong since PR 28 and is
# tolerated here, by its exact message, until bench/ — frozen for every PR
# that is not a `benchmark` PR — is corrected (ROADMAP item 7, first
# bullet): bench/probe.go books an outside probe of sqlparser.Parse as the
# parser's share of every cold workload, embed_miss no longer parses what it
# runs (DESIGN §6.5), so its shares sum to 1.2–1.4 and
# "embed_miss: layer shares sum to ..., want 1.0 within 0.1" fails about
# every other run. Every other failure — a compile error, a panic, an
# operation that differs from the oracle, a metric BENCHMARK.json does not
# name, the shares of any other workload — fails this script. One retry, as
# before: train_wal's shares miss 1 ± 0.1 over the 0.3 s window when an
# fsync is slow, about one run in eight.
set -uo pipefail
cd "$(dirname "$0")/../bench"

go vet ./... || exit 1

known='bench_test\.go:[0-9]+: embed_miss: layer shares sum to '
for attempt in 1 2; do
    out=$(go test -count=1 ./... 2>&1) && { echo "$out"; exit 0; }
    echo "$out"
    # A test failure and nothing else: every error line is the known one,
    # TestSmoke is the only test that failed, nothing panicked or timed out.
    if grep -Eq "$known" <<<"$out" &&
        ! grep -E '^\s+[A-Za-z_]+\.go:[0-9]+: ' <<<"$out" | grep -Evq "$known" &&
        [ "$(grep -c -- '^--- FAIL: ' <<<"$out")" = 1 ] &&
        ! grep -Eq '^panic: |\[build failed\]|\[setup failed\]|test timed out' <<<"$out"; then
        echo "bench-smoke: tolerated the known embed_miss share-sum failure (see the head of $0)"
        exit 0
    fi
    [ "$attempt" = 1 ] && echo "bench-smoke: retrying once"
done
exit 1
