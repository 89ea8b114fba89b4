#!/usr/bin/env bash
# Perf-trajectory harness: records the kernel microbenchmarks (JSON) and
# the Figure 9 replay-time bench into bench/results/, the repo's running
# record of simulation-kernel performance. Compare a fresh BENCH_kernel.json
# against the committed one (or a *.pre-*.json baseline) before landing a
# kernel change.
#
# Usage:
#   bench/run_bench.sh [build-dir]       # default: build
#
# Environment:
#   MIN_TIME   google-benchmark min time per bench, seconds (default 0.2)
#   TIR_SCALE  Figure 9 iteration fraction (default 0.05)
#   TIR_FIG9_PROCS  Figure 9 rank counts, class B only (e.g. 8,64,256;
#              default: classes B and C at 8..64 — see EXPERIMENTS.md)
#   OUT        output directory (default bench/results)
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD="${1:-build}"
OUT="${OUT:-bench/results}"
MIN_TIME="${MIN_TIME:-0.2}"
mkdir -p "$OUT"

if [[ ! -x "$BUILD/bench/bench_micro_kernel" ]]; then
  echo "error: $BUILD/bench/bench_micro_kernel not built" \
       "(cmake --build $BUILD -j)" >&2
  exit 2
fi

echo "== kernel microbenchmarks -> $OUT/BENCH_kernel.json"
"$BUILD/bench/bench_micro_kernel" \
  --benchmark_format=json \
  --benchmark_out="$OUT/BENCH_kernel.json" \
  --benchmark_min_time="$MIN_TIME"

echo "== Figure 9 replay time -> $OUT/BENCH_fig9.txt"
TIR_SCALE="${TIR_SCALE:-0.05}" "$BUILD/bench/bench_fig9_replaytime" \
  | tee "$OUT/BENCH_fig9.txt"

# Replay-as-a-service soak: warm memo hits vs cold replays (the speed-up is
# printed), RSS bounded, responses bit-identical. Also recordable standalone
# via the bench-serve-record cmake target.
echo "== replay-as-a-service soak -> $OUT/BENCH_serve.txt"
TIR_SCALE="${TIR_SCALE:-0.05}" "$BUILD/bench/bench_serve" \
  | tee "$OUT/BENCH_serve.txt"

echo "== recorded: $OUT/BENCH_kernel.json $OUT/BENCH_fig9.txt" \
     "$OUT/BENCH_serve.txt"
