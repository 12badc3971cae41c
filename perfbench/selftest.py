"""Self-test of the benchmark, on tiny inputs; about half a minute.

    python3 perfbench/selftest.py

Run from the repository root. For every workload it checks that:

1. ``run.py`` emits every metric named in ``BENCHMARK.json`` with its unit,
   untraced (end-to-end metrics) and traced (per-layer metrics), with no
   failed op, and that the traced run meets the workload's isolation facts
   (layer metrics that must read 0, or above 0, on it);
2. the traced rounds, replayed untraced, give identical checked outputs;
3. the same seed gives the same inputs and another seed different ones.

Exits 1 if any check fails.
"""

from __future__ import annotations

import fnmatch
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROUNDS = 3
TIMEOUT_S = 170


def bench_config() -> dict:
    with open(os.path.join(os.getcwd(), "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def run_tiny(workload: str, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        capture_output=True, text=True, timeout=TIMEOUT_S)
    if done.returncode != 0:
        raise AssertionError(f"run.py exited {done.returncode}: {done.stderr[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def metric_problems(result: dict, declared: list) -> list[str]:
    problems = []
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        problems.append(f"correct={result['correct']} attempted={result['attempted']} "
                        f"failed={result['failed']}")
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    wanted = {m["name"]: m["unit"] for m in declared}
    if emitted != wanted:
        missing = sorted(set(wanted) - set(emitted))
        extra = sorted(set(emitted) - set(wanted))
        units = sorted(n for n in set(wanted) & set(emitted) if wanted[n] != emitted[n])
        problems.append(f"metrics missing {missing}, extra {extra}, wrong unit {units}")
    return problems


def isolation_problems(workload, layer: dict) -> list[str]:
    problems = []
    for pattern in workload.zero:
        names = fnmatch.filter(layer, pattern)
        if not names:
            problems.append(f"zero pattern {pattern!r} matches no metric")
        problems += [f"{n} = {layer[n]['value']}, expected 0"
                     for n in names if layer[n]["value"] != 0]
    for name in workload.nonzero:
        if name not in layer or not layer[name]["value"] > 0:
            problems.append(f"{name} = {layer.get(name, {}).get('value')}, expected > 0")
    for pattern in workload.moves:
        if not fnmatch.filter(layer, pattern):
            problems.append(f"moves pattern {pattern!r} matches no metric")
    return problems


def inputs(cls, seed: int) -> list:
    workload = cls(seed, tiny=True)
    return [op.inputs for i in range(ROUNDS) for op in workload.round(i)]


def main() -> int:
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    from workloads import WORKLOADS

    config = bench_config()
    declared = [w["name"] for w in config["workloads"]]
    failures = 0

    def report(label: str, problems: list[str]) -> None:
        nonlocal failures
        failures += bool(problems)
        print(f"{'FAIL' if problems else 'ok  '} {label}")
        for p in problems:
            print(f"     {p}")

    report("BENCHMARK.json names exactly the workloads in workloads.py",
           [] if sorted(declared) == sorted(WORKLOADS) else [f"{declared} vs {sorted(WORKLOADS)}"])
    for name in declared:
        cls = WORKLOADS[name]
        plain = run_tiny(name, 0)
        report(f"{name}: untraced run emits the end-to-end metrics",
               metric_problems(plain, config["end_to_end"]))
        traced = run_tiny(name, 1)
        report(f"{name}: traced run emits the per-layer metrics",
               metric_problems(traced, config["per_layer"]))
        report(f"{name}: isolation facts hold", isolation_problems(cls, traced["metrics"]))
        # run.py replays the traced rounds untraced; `correct` with no failed
        # op means both gave identical outputs.
        report(f"{name}: traced and untraced outputs are identical",
               [] if traced["correct"] or traced["failed"] else ["outputs differ"])
        seeded = inputs(cls, 1)
        problems = []
        if inputs(cls, 1) != seeded:
            problems.append("seed 1 twice gave different inputs")
        if inputs(cls, 2) == seeded:
            problems.append("seeds 1 and 2 gave the same inputs")
        report(f"{name}: inputs follow the seed", problems)
    print("selftest:", "FAILED" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
