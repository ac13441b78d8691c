#!/usr/bin/env python3
"""Functional check of the end-to-end benchmark; no timing assertions.

    python3 bench/e2e/smoke.py ARAMS_E2E_BINARY BENCHMARK_JSON

Runs every workload of BENCHMARK.json at --scale smoke, untraced and
traced, and fails unless each run exits 0, prints a last-line result JSON
with "correct": true whose metrics are exactly the end-to-end (untraced) or
per-layer (traced) metrics, and prints each of them as a line too.
"""

import json
import subprocess
import sys


def main(argv):
    binary, bench_path = argv[1], argv[2]
    with open(bench_path, encoding="utf-8") as f:
        bench = json.load(f)
    failures = []
    for workload in [w["name"] for w in bench["workloads"]]:
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            run = subprocess.run(
                [binary, "--workload", workload, "--scale", "smoke", "--seed", "1",
                 "--seconds", "0", "--trace", str(trace)],
                capture_output=True, text=True, check=False)
            where = f"{workload} --trace {trace}"
            if run.returncode != 0:
                failures.append(f"{where}: exit {run.returncode}: {run.stderr.strip()}")
                continue
            lines = run.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            if not result["correct"] or result["attempted"] < 1:
                failures.append(f"{where}: {result}")
            printed = {line.split()[1] for line in lines[:-1]}
            expected = {metric["name"] for metric in bench[kind]}
            if set(result["metrics"]) != expected or not expected <= printed:
                failures.append(f"{where}: metrics differ from BENCHMARK.json "
                                f"{kind}: {sorted(set(result['metrics']) ^ expected)}")
            print(f"{where}: ok, {len(result['metrics'])} metrics")
    for failure in failures:
        print(f"FAIL {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
