#!/usr/bin/env bash
# Coverage gate for the detection-critical packages.
#
# Reads scripts/coverage-baseline.txt (package path + floor percentage
# per line) and fails if any gated package's statement coverage falls
# below its floor. The floors are recorded a few tenths under the
# measured value so toolchain or inlining noise does not flake the gate,
# while a real drop — deleting tests, landing untested branches in the
# hook path — still fails.
#
# After deliberately raising coverage, re-record with:
#   scripts/covergate.sh -record
set -euo pipefail
cd "$(dirname "$0")/.."

baseline=scripts/coverage-baseline.txt
record=false
[ "${1:-}" = "-record" ] && record=true

profile=$(mktemp)
trap 'rm -f "$profile"' EXIT

measure() { # measure <pkg> -> percentage like 93.2
    go test -coverprofile="$profile" "./$1/" >/dev/null
    go tool cover -func="$profile" | awk '/^total:/ {sub(/%/, "", $3); print $3}'
}

if $record; then
    {
        echo "# package  coverage-floor-% (recorded $(date -u +%F) minus 0.5 headroom)"
        for pkg in internal/core internal/qstruct internal/wire internal/wal internal/repl internal/overload internal/engine internal/server internal/sqlparser internal/txtcache; do
            pct=$(measure "$pkg")
            awk -v p="$pkg" -v c="$pct" 'BEGIN { printf "%s %.1f\n", p, c - 0.5 }'
        done
    } >"$baseline"
    echo "recorded:" && cat "$baseline"
    exit 0
fi

status=0
while read -r pkg floor; do
    case "$pkg" in ''|\#*) continue ;; esac
    pct=$(measure "$pkg")
    if awk -v c="$pct" -v f="$floor" 'BEGIN { exit !(c < f) }'; then
        echo "FAIL $pkg: coverage ${pct}% below recorded floor ${floor}%"
        status=1
    else
        echo "ok   $pkg: coverage ${pct}% (floor ${floor}%)"
    fi
done <"$baseline"
exit $status
