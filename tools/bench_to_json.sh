#!/usr/bin/env bash
# Runs a google-benchmark suite and records the results as JSON at the repo
# root, so perf changes land with a checked-in before/after baseline.
#
# Usage:
#   tools/bench_to_json.sh [bench_name] [build_dir] [output.json] [extra benchmark args...]
#
# `bench_name` is a benchmark binary under <build_dir>/bench/ (default
# micro_kernels). For backwards compatibility, a first argument containing a
# '/' or naming an existing directory is treated as build_dir instead. The
# default output file is BENCH_<name-without-micro_>.json.
#
# Examples:
#   tools/bench_to_json.sh                          # micro_kernels -> BENCH_kernels.json
#   tools/bench_to_json.sh micro_distance build BENCH_downstream.json
#   tools/bench_to_json.sh build /tmp/after.json --benchmark_filter='BM_Gemm.*'
#   tools/bench_to_json.sh ablation_baselines       # -> BENCH_sketchers.json
#   tools/bench_to_json.sh fig2_scaling             # -> BENCH_merge.json
#
# `ablation_baselines` and `fig2_scaling` are not google-benchmark binaries;
# they are special-cased below onto their own --json-out flag (default
# outputs BENCH_sketchers.json and BENCH_merge.json).
#
# Every output file is stamped with a top-level "provenance" object: the
# host's `nproc`, the shared-pool size the run used (ARAMS_POOL_THREADS,
# else nproc), and the `arams_build_info` line of the build that produced
# it (read from <build_dir>/tools/arams; "unknown" when the CLI is not
# built), including its git describe.
set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"

bench_name="micro_kernels"
if [[ $# -gt 0 && "$1" != */* && ! -d "$1" ]]; then
  bench_name="$1"
  shift
fi

default_out="BENCH_${bench_name#micro_}.json"
if [[ "${bench_name}" == "ablation_baselines" ]]; then
  default_out="BENCH_sketchers.json"
elif [[ "${bench_name}" == "fig2_scaling" ]]; then
  default_out="BENCH_merge.json"
fi

build_dir="${1:-${repo_root}/build}"
out_file="${2:-${repo_root}/${default_out}}"
shift $(( $# > 2 ? 2 : $# )) || true

bench_bin="${build_dir}/bench/${bench_name}"
if [[ ! -x "${bench_bin}" ]]; then
  echo "error: ${bench_bin} not found or not executable." >&2
  echo "Build it first:  cmake -B ${build_dir} -S ${repo_root} && cmake --build ${build_dir} -j" >&2
  exit 1
fi

stamp() {
  local build_line="unknown"
  if [[ -x "${build_dir}/tools/arams" ]]; then
    build_line="$("${build_dir}/tools/arams" backends | sed -n 's/^# arams //p')"
  fi
  python3 - "${out_file}" "$(nproc)" "${ARAMS_POOL_THREADS:-$(nproc)}" \
    "${build_line}" <<'EOF'
import json
import sys

path, nproc, pool, build = sys.argv[1:5]
with open(path) as f:
    doc = json.load(f)
fields = dict(kv.split("=", 1) for kv in build.split() if "=" in kv)
doc["provenance"] = {
    "nproc": int(nproc),
    "pool_threads": int(pool),
    "arams_build_info": build,
    "git": fields.get("git", "unknown"),
}
with open(path, "w") as f:
    json.dump(doc, f, indent=2)
    f.write("\n")
EOF
}

echo "Running ${bench_bin} -> ${out_file}" >&2
if [[ "${bench_name}" == "ablation_baselines" || "${bench_name}" == "fig2_scaling" ]]; then
  # Hand-rolled harnesses: they emit their own JSON via --json-out instead
  # of the google-benchmark reporter flags.
  "${bench_bin}" --json-out="${out_file}" "$@"
else
  "${bench_bin}" \
    --benchmark_out="${out_file}" \
    --benchmark_out_format=json \
    --benchmark_repetitions=1 \
    "$@"
fi
stamp
echo "Wrote ${out_file}" >&2
