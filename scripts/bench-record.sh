#!/usr/bin/env bash
# bench-record.sh — run the durability ablation (BenchmarkTrainDurable:
# WAL off/never/interval/always with one writer,
# BenchmarkTrainDurableParallel: always with 8, as the always_parallel8
# row with the fsyncs each update cost — group commit's share) and
# record the per-policy cost of one acknowledged training update into
# BENCH_durability.json, with each policy's overhead factor over the
# no-WAL baseline. Then runs the overload sweep (septic-bench overload:
# 1×/2×/4× capacity against the admission controller) which writes its
# own BENCH_overload.json with shed rates and admitted p50/p99 per
# point. The wire protocol is measured by bench/ (wire_hit, app_replay).
#
# Usage: [DUR_OUT=file.json] [OVL_OUT=file.json] scripts/bench-record.sh
set -euo pipefail
cd "$(dirname "$0")/.."

DUR_OUT="${DUR_OUT:-BENCH_durability.json}"
OVL_OUT="${OVL_OUT:-BENCH_overload.json}"

# Durability ablation: fixed iteration count rather than -benchtime, so
# the fsync=always series (hundreds of µs per op) finishes quickly while
# still sampling every policy identically.
DUR_RAW="$(go test -run='^$' -bench='BenchmarkTrainDurable' \
	-benchmem -benchtime=2000x -count=1 .)"
printf '%s\n' "$DUR_RAW"

printf '%s\n' "$DUR_RAW" | awk -v out="$DUR_OUT" '
BEGIN      { n = 0 }
/^goos:/   { goos = $2 }
/^goarch:/ { goarch = $2 }
/^cpu:/    { sub(/^cpu: /, ""); cpu = $0 }
/^BenchmarkTrainDurable(Parallel)?\// {
	name = $1; sub(/-[0-9]+$/, "", name)
	if (sub(/^BenchmarkTrainDurableParallel\//, "", name)) name = name "_parallel8"
	sub(/^BenchmarkTrainDurable\//, "", name)
	names[n] = name; ns[n] = $3; fsyncs[n] = ""
	# Metrics are value/unit pairs after the iteration count; a custom
	# one (fsyncs/update) shifts the rest, so find each by its unit.
	for (i = 3; i < NF; i += 2) {
		if ($(i + 1) == "allocs/op") allocs[n] = $i
		if ($(i + 1) == "fsyncs/update") fsyncs[n] = $i
	}
	if (name == "off") base_ns = $3
	n++
}
END {
	if (n == 0) { print "bench-record: no durability lines parsed" > "/dev/stderr"; exit 1 }
	printf "{\n" > out
	printf "  \"goos\": \"%s\",\n  \"goarch\": \"%s\",\n  \"cpu\": \"%s\",\n", goos, goarch, cpu > out
	printf "  \"metric\": \"ns per acknowledged training update (Store.Put incl. WAL append)\",\n" > out
	printf "  \"policies\": [\n" > out
	for (i = 0; i < n; i++) {
		over = (base_ns > 0 && names[i] != "off") ? ns[i] / base_ns : 1
		extra = (fsyncs[i] != "") ? sprintf(", \"fsyncs_per_update\": %s", fsyncs[i]) : ""
		printf "    {\"fsync\": \"%s\", \"ns_per_update\": %s, \"allocs_per_op\": %s, \"overhead_x\": %.1f%s}%s\n", \
			names[i], ns[i], allocs[i], over, extra, (i < n - 1 ? "," : "") > out
	}
	printf "  ]\n}\n" > out
}
'
echo "bench-record: wrote $DUR_OUT"

# Overload sweep: the lane computes its own derived numbers (shed rate
# per multiplier, admitted-p99 ratio vs the 1× baseline) and writes the
# JSON itself.
go run ./cmd/septic-bench overload -json "$OVL_OUT"
echo "bench-record: wrote $OVL_OUT"
