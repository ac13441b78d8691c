#!/usr/bin/env bash
# End-to-end benchmark entry point. Run it from the repository root; it
# builds arams_e2e from this checkout, then runs it.
#
#   bash bench/e2e/run.sh --workload NAME [--seed N] [--seconds S]
#                         [--trace 0|1] [--scale full|smoke] [--out DIR]
#       One workload in one process. The last stdout line is the result
#       JSON; the other lines are "<workload> <metric> <value> <unit>".
#
#   bash bench/e2e/run.sh [--runs N] [--seed N] [--seconds S]
#                         [--trace 0|1] [--scale full|smoke] [--out DIR]
#       Every workload, N runs each with seeds N0..N0+N-1 (N0 = --seed).
#       Exits non-zero if any run fails its output checks.
#
# Result files (and, with --trace 1, the Chrome traces and per-layer
# tables) go to DIR, by default the build tree's results/ directory;
# compare.py reads them. The build tree is ${CARGO_TARGET_DIR:-.bench_build}/e2e,
# and ARAMS_POOL_THREADS defaults to the number of cores.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
build=${CARGO_TARGET_DIR:-.bench_build}/e2e
export ARAMS_POOL_THREADS=${ARAMS_POOL_THREADS:-$(nproc)}

workload=""
runs=1
seed=1
out=""
pass=()
while (($#)); do
  case $1 in
    --workload=*) workload=${1#*=} ;;
    --workload) workload=$2; shift ;;
    --runs=*) runs=${1#*=} ;;
    --runs) runs=$2; shift ;;
    --seed=*) seed=${1#*=} ;;
    --seed) seed=$2; shift ;;
    --out=*) out=${1#*=} ;;
    --out) out=$2; shift ;;
    *) pass+=("$1") ;;
  esac
  shift
done
out=${out:-$build/results}

{
  if [[ ! -f $build/CMakeCache.txt ]]; then
    cmake -S "$here" -B "$build" -DCMAKE_BUILD_TYPE=Release
  fi
  cmake --build "$build" --target arams_e2e -j "$(nproc)"
} >&2
mkdir -p "$out"

if [[ -n $workload ]]; then
  exec "$build/arams_e2e" --workload "$workload" --seed "$seed" \
    --out "$out" "${pass[@]}"
fi

status=0
for name in beam_ingest diffraction_ingest_f32x4 diffraction_snapshot \
            diffraction_batch; do
  for ((i = 0; i < runs; i++)); do
    "$build/arams_e2e" --workload "$name" --seed $((seed + i)) \
      --out "$out" "${pass[@]}" || status=1
  done
done
echo "results in $out" >&2
exit $status
