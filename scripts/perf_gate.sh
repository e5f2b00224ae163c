#!/usr/bin/env bash
# CI perf-regression gate: the packing kernel, the service daemon,
# and the work-stealing parallel B&B.
#
# Runs each CI-sized experiment (best-of-DSP_BENCH_REPS timings, trend
# archiving disabled so gate probes never pollute bench/results/) and
# compares the fresh BENCH.json against its checked-in baseline with
# bench/gate.exe, which fails on:
#   - any "*_seconds" metric more than 30% AND 0.05s over baseline,
#   - any latency-group "*_us" percentile more than 200% AND 500us
#     over baseline (the serve experiment's SLA figures; "max_us" is
#     a single sample and is never gated),
#   - nonzero steady-state kernel allocation (flat_alloc_zero != 1),
#     whenever the baseline experiment records the invariant,
#   - any "*agree" correctness check != 1 (kernel agreement, the
#     serve experiment's peak_agree / recover_agree), or one the
#     baseline carries missing from the candidate.
#
# Refresh a baseline after an intentional perf change with:
#   DSP_BENCH_REPS=5 DSP_BENCH_RESULTS=none \
#     BENCH_JSON=bench/results/baseline-kernel-smoke.json \
#     dune exec bench/main.exe -- kernel-smoke
# (same shape for serve-smoke / parallel-smoke and their
# baseline-<exp>.json files).
#
# DSP_GATE_BASELINE overrides the kernel baseline path (the original
# single-experiment contract); DSP_GATE_EXPERIMENTS overrides the
# gated experiment list (space-separated, e.g. "kernel-smoke").
set -euo pipefail
cd "$(dirname "$0")/.."

experiments="${DSP_GATE_EXPERIMENTS:-kernel-smoke serve-smoke parallel-smoke}"

baseline_for() {
  case "$1" in
    kernel-smoke) echo "${DSP_GATE_BASELINE:-bench/results/baseline-kernel-smoke.json}" ;;
    *)            echo "bench/results/baseline-$1.json" ;;
  esac
}

candidate=$(mktemp -t bench-gate.XXXXXX.json)
trap 'rm -f "$candidate"' EXIT

for exp in $experiments; do
  baseline=$(baseline_for "$exp")
  if [ ! -f "$baseline" ]; then
    echo "perf_gate: missing $baseline (see header for how to record one)" >&2
    exit 2
  fi

  DSP_BENCH_REPS="${DSP_BENCH_REPS:-3}" DSP_BENCH_RESULTS=none \
    BENCH_JSON="$candidate" \
    timeout 300 dune exec bench/main.exe -- "$exp"

  dune exec bench/gate.exe -- --baseline "$baseline" "$candidate" "$exp"
done
