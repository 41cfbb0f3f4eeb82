#!/usr/bin/env bash
# One command for the repository benchmark.
#
#   bench/run.sh                          build once, run the five workloads, print every metric,
#                                         write bench/out/<workload>.json
#   bench/run.sh -trace                   the same, plus the traced run of each workload
#                                         (bench/out/<workload>.layers.json, bench/out/trace-<workload>.json)
#   bench/run.sh -seed N -seconds S -out DIR
#   bench/run.sh -compare A B             each end-to-end metric of report directory B against A and
#                                         its bound in BENCHMARK.json; exits 1 when one is exceeded
#   bench/run.sh --workload W --seed N --seconds S --trace 0|1
#                                         one run; the form BENCHMARK.json's command takes
#
# Everything the build and the runs write stays inside the checkout:
# .bench_build/ (Go caches and the binary) and bench/out/.
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
cd "$root"
build="$root/.bench_build"
bin="$build/gpulat-bench"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gomod" GOTMPDIR="$build/tmp"
export GOENV=off GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOPROXY=off CGO_ENABLED=0

t0=$(date +%s.%N)
go build -C bench -o "$bin" .
BENCH_BUILD_S=$(awk -v a="$t0" -v b="$(date +%s.%N)" 'BEGIN { printf "%.3f", b - a }')
export BENCH_BUILD_S

for arg in "$@"; do
	case "$arg" in
	-workload | --workload | -workload=* | --workload=*) exec "$bin" "$@" ;;
	esac
done

trace=0 seed=1 seconds=20 out=bench/out
while [[ $# -gt 0 ]]; do
	case "$1" in
	-trace | --trace) trace=1 ;;
	-seed | --seed) seed=$2 && shift ;;
	-seconds | --seconds) seconds=$2 && shift ;;
	-out | --out) out=$2 && shift ;;
	-compare | --compare) exec "$bin" -compare "$2" "$3" ;;
	*) echo "run.sh: unknown argument $1" >&2 && exit 2 ;;
	esac
	shift
done

status=0
for w in repro_grid sim_dense sim_sparse serve_cold serve_hot; do
	for t in $(seq 0 "$trace"); do
		echo "== $w (trace $t)"
		"$bin" -workload "$w" -seed "$seed" -seconds "$seconds" -trace "$t" -out "$out" | tee "$build/last.txt"
		tail -n 1 "$build/last.txt" | grep -q '"correct":true' || status=1
	done
done
exit "$status"
