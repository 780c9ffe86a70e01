#!/usr/bin/env bash
# Build bench_report from source (Release, into build-bench/) and run it.
#
#   benchmark/run.sh [--seed N] [--seconds S]
#       every workload; prints `name workload value unit` lines, writes
#       build-bench/BENCH.json, exits nonzero if any op failed
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#       one workload; the last stdout line is a JSON result object
#   benchmark/run.sh --self-check
#       TimedComm transparency check on all three fabrics
#
# Build output goes to stderr, so stdout carries only results.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build=build-bench

if [ ! -f "$build/Makefile" ]; then
  cmake -S benchmark -B "$build" -DCMAKE_BUILD_TYPE=Release >&2
fi
jobs="$(nproc)"
if [ "$jobs" -gt 4 ]; then jobs=4; fi
cmake --build "$build" --target bench_report -j "$jobs" >&2

for arg in "$@"; do
  case "$arg" in
    --workload|--self-check) exec "$build/bench_report" "$@" ;;
  esac
done
sha="$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)"
exec "$build/bench_report" --out "$build/BENCH.json" --git-sha "$sha" "$@"
