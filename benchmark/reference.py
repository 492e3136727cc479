"""Regenerate the reference figures of `benchmark/README.md`.

Run from the repository root (about 45 minutes):

    python3 benchmark/reference.py

For each workload it makes two sets of ten runs of `benchmark/run.py`, one
run after another, and prints the median and quartiles of every end-to-end
metric, the spread (quartile distance over median) against the metric's
bound in `BENCHMARK.json`, and the shift of each median from the first set.
Then it makes two traced runs per workload, prints their per-layer
metrics, flagging any counter that differs between the two, and the
tracing overhead: a traced run calls each command once in a fresh process,
so the sum of its scaled calls is compared with the sum of the scaled first
calls of the untraced runs, which are also the first in a fresh process.  Every result line is
also appended to ``.bench_work/reference.jsonl``.
"""

from __future__ import annotations

import json
import os
import re
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SETS = 2
RUNS = 10
FIRST_CALL = re.compile(r"^\w+/(\w+): \d+ calls, first \S+ s \(scaled (\S+) s\)",
                        re.M)


def bench(workload: str, seed: int, seconds: int, trace: int, log) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, check=True,
    )
    result = json.loads(proc.stdout.splitlines()[-1])
    # the scaled first call of each command, interpreter starts aside
    result["first_calls_s"] = sum(float(t) for name, t in
                                  FIRST_CALL.findall(proc.stdout)
                                  if name != "setup")
    log.write(json.dumps({"workload": workload, "seed": seed, "trace": trace,
                          **result}) + "\n")
    log.flush()
    if not result["correct"] or result["failed"]:
        print(f"{workload} seed {seed}: {result['failed']} of "
              f"{result['attempted']} failed\n{proc.stderr}", file=sys.stderr)
    return result


def main() -> int:
    with open("BENCHMARK.json") as handle:
        spec = json.load(handle)
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    os.makedirs(".bench_work", exist_ok=True)

    with open(os.path.join(".bench_work", "reference.jsonl"), "a") as log:
        for w in spec["workloads"]:
            name = w["name"]
            medians: dict[str, float] = {}
            first_calls: list[float] = []
            print(f"\n### {name}\n")
            print("| set | metric | median | q1 | q3 | spread | bound | shift |")
            print("| --- | --- | --- | --- | --- | --- | --- | --- |")
            for s in range(SETS):
                runs = [bench(name, 100 * (s + 1) + i, seconds, 0, log)
                        for i in range(RUNS)]
                first_calls += [r["first_calls_s"] for r in runs]
                failed = sum(r["failed"] for r in runs)
                attempted = sum(r["attempted"] for r in runs)
                for metric, bound in bounds.items():
                    values = [r["metrics"][metric]["value"] for r in runs]
                    q1, med, q3 = statistics.quantiles(values, n=4)
                    first = medians.setdefault(metric, med)
                    print(f"| {s + 1} | {metric} | {med:.4g} | {q1:.4g} | "
                          f"{q3:.4g} | {(q3 - q1) / med:.3f} | {bound} | "
                          f"{med / first - 1:+.3f} |")
                print(f"| {s + 1} | failed / attempted | {failed} / {attempted} "
                      "| | | | | |")
            traced = [bench(name, 1, seconds, 1, log) for _ in range(2)]
            print(f"\n| {name} traced | run 1 | run 2 |\n| --- | --- | --- |")
            for metric, entry in traced[0]["metrics"].items():
                a, b = entry["value"], traced[1]["metrics"][metric]["value"]
                if entry["unit"] == "count":
                    flag = " DIFFERS" if a != b else ""
                    print(f"| {metric} | {a} | {b}{flag} |")
                else:
                    print(f"| {metric} | {a:.4g} | {b:.4g} |")
            total = statistics.median(t["first_calls_s"] for t in traced)
            q1, untraced, q3 = statistics.quantiles(first_calls, n=4)
            print(f"\ntracing overhead on {name}: {total:.4g} s traced (scaled, "
                  f"median of 2) - {untraced:.4g} s untraced first calls (scaled, "
                  f"median of {len(first_calls)}, quartiles {q1:.4g}-{q3:.4g}) "
                  f"= {total - untraced:+.4g} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
