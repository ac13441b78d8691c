#!/usr/bin/env bash
# Merge-scaling gate over the measured fig2_scaling harness, in two halves:
#
#   check_merge_scaling.sh            deterministic (tier-1 `merge_scaling`)
#       * tree_merge on the shared pool is bitwise identical to the inline
#         tree_merge at every shard count, and
#       * with a pool of >= 2 threads, merges at P >= 4 shards dispatch at
#         least one group to the pool (parallel_groups > 0).
#       Neither assertion reads a clock, so CPU contention from parallel
#       test processes cannot fail it.
#
#   check_merge_scaling.sh --timing   wall-clock (`merge_scaling_perf`,
#                                     ctest label `perf`)
#       * 4-shard ingest throughput >= 1.5x the single-shard rate, and
#       * parallel tree-merge wall < the serial fold wall at P >= 4 shards.
#       Both claims need real cores, so below 4 the check SKIPS (exit 0
#       with a notice): a 1-core container runs every shard and merge group
#       inline, where the columns are flat by construction. ctest runs it
#       RUN_SERIAL so no other test competes for those cores.
#
# Run the timing half on its own with
#   ctest --test-dir build -L perf --output-on-failure
#
# FIG2_BENCH must point at the fig2_scaling binary.
set -euo pipefail

BIN="${FIG2_BENCH:?FIG2_BENCH must point at the fig2_scaling bench binary}"
MODE="${1:-}"
DIR="$(mktemp -d)"
trap 'rm -rf "$DIR"' EXIT

if [[ "${MODE}" != "--timing" ]]; then
  "$BIN" --n=2048 --d=64 --ell=16 --max-shards=8 --reps=1 \
    --json-out="$DIR/merge.json" >/dev/null
  python3 - "$DIR/merge.json" <<'EOF'
import json
import sys

with open(sys.argv[1]) as f:
    report = json.load(f)
pool = int(report["pool_threads"])
status = 0
for row in report["benchmarks"]:
    shards = row["shards"]
    if shards < 2:
        continue
    ok = row["parallel_merge_bitwise"] is True
    print(f"[{'ok' if ok else 'FAIL'}] merge @{shards} shards: parallel tree "
          f"merge bitwise equal to the serial tree merge")
    status |= 0 if ok else 1
    if shards >= 4 and pool >= 2:
        groups = int(row["parallel_groups"])
        ok = groups > 0
        print(f"[{'ok' if ok else 'FAIL'}] merge @{shards} shards: "
              f"{groups} groups dispatched to a {pool}-thread pool")
        status |= 0 if ok else 1
sys.exit(status)
EOF
  echo "merge structure OK"
  exit 0
fi

CORES="$(nproc 2>/dev/null || echo 1)"
if [[ "${CORES}" -lt 4 ]]; then
  echo "SKIP: merge scaling needs >= 4 cores, host has ${CORES}" \
       "(shards and merge groups run inline below that)"
  exit 0
fi

"$BIN" --n=8192 --d=256 --ell=32 --max-shards=8 --reps=3 \
  --json-out="$DIR/merge.json" >/dev/null

python3 - "$DIR/merge.json" <<'EOF'
import json
import sys

with open(sys.argv[1]) as f:
    report = json.load(f)
rows = {b["shards"]: b for b in report["benchmarks"]}
if 1 not in rows or 4 not in rows:
    print("missing 1-shard or 4-shard row in the report", file=sys.stderr)
    sys.exit(1)

status = 0

base = float(rows[1]["ingest_rows_per_s"])
rate4 = float(rows[4]["ingest_rows_per_s"])
speedup = rate4 / base if base > 0 else 0.0
ok = speedup >= 1.5
print(f"[{'ok' if ok else 'FAIL'}] ingest: 4-shard {rate4:.0f} rows/s vs "
      f"1-shard {base:.0f} rows/s = {speedup:.2f}x (floor 1.5x)")
if not ok:
    status = 1

for shards, row in sorted(rows.items()):
    if shards < 4:
        continue
    serial = float(row["serial_merge_s"])
    par = float(row["parallel_merge_s"])
    ok = 0.0 < par < serial
    print(f"[{'ok' if ok else 'FAIL'}] merge @{shards} shards: parallel "
          f"{par:.6f}s vs serial {serial:.6f}s")
    if not ok:
        status = 1

sys.exit(status)
EOF

echo "merge scaling OK"
