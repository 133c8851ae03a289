#!/usr/bin/env bash
# bench-record.sh — run the overload sweep (septic-bench overload:
# 1×/2×/4× capacity against the admission controller), which computes its
# own derived numbers (shed rate per multiplier, admitted-p99 ratio vs
# the 1× baseline) and writes BENCH_overload.json itself. The wire
# protocol (wire_hit, app_replay) and the cost of a training update under
# the WAL (train_wal) are measured by bench/.
#
# Usage: [OVL_OUT=file.json] scripts/bench-record.sh
set -euo pipefail
cd "$(dirname "$0")/.."

OVL_OUT="${OVL_OUT:-BENCH_overload.json}"

go run ./cmd/septic-bench overload -json "$OVL_OUT"
echo "bench-record: wrote $OVL_OUT"
