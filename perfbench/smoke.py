"""Smoke test of the benchmark itself at tiny sizes (grids 3 to 5).

Run from the repository root; it takes a few seconds:

    python3 perfbench/smoke.py

For every workload it checks that each metric named in BENCHMARK.json is
reported with its unit in both modes, that every output check passes, that
call counts and computed byte counters repeat exactly between two traced
runs, and that a deliberately wrong program output is counted as failed
without stopping the run.  Last, it checks that the benchmark exits non-zero
without a result in a directory that holds only the benchmark.
"""
from __future__ import annotations

import itertools
import json
import math
import shutil
import subprocess
import sys
from unittest import mock

import run


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"smoke test failed: {message}")


def _negative_score(generate):
    def wrong(config):
        sc = generate(config)
        sc.impact.z_scores[0] = -1.0
        return sc
    return wrong


def _overspend(to_json):
    def wrong(*args):
        doc = json.loads(to_json(*args))
        doc["p_d"] = [repr(2.0 * float(x) + 1.0) for x in doc["p_d"]]
        return json.dumps(doc)
    return wrong


def _unstable_csv(to_csv):
    calls = itertools.count()

    def wrong(table):
        return to_csv(table) + f"# call {next(calls)}\n"
    return wrong


def faults() -> dict:
    """One wrong output per workload: (object, attribute, wrapper of the original)."""
    from icisim import cli, experiments, scenario
    return {
        "build-grid30": (scenario, "generate", _negative_score),
        "cli-grid20": (cli, "solution_to_json", _overspend),
        "sweep-grid9": (experiments, "table_to_csv", _unstable_csv),
        "game-grid20": (experiments, "pick_attack_source", lambda f: lambda *a: -1),
    }


def check_metrics(name: str, result: dict, wanted: list[dict]) -> None:
    got = result["metrics"]
    expect([m["name"] for m in wanted] == list(got), f"{name}: metric names {list(got)}")
    for m in wanted:
        entry = got[m["name"]]
        expect(entry["unit"] == m["unit"], f"{name}: {m['name']} unit {entry['unit']}")
        expect(isinstance(entry["value"], (int, float)) and math.isfinite(entry["value"]),
               f"{name}: {m['name']} value {entry['value']}")


def counters(result: dict) -> dict:
    return {k: v["value"] for k, v in result["metrics"].items()
            if k.endswith(".calls") or k.endswith("_bytes")}


def smoke_workload(name: str, spec: dict) -> None:
    plain = run.run_workload(name, 0, 0.1, False, small=True)["result"]
    expect(plain["correct"] and plain["failed"] == 0, f"{name}: checks failed: {plain}")
    check_metrics(name, plain, spec["end_to_end"])
    expect(all(m["value"] > 0 for m in plain["metrics"].values()),
           f"{name}: an end-to-end metric is 0")

    traced = [run.run_workload(name, 0, 0.1, True, small=True)["result"] for _ in range(2)]
    for result in traced:
        expect(result["correct"], f"{name}: traced checks failed: {result}")
        check_metrics(name, result, spec["per_layer"])
    expect(counters(traced[0]) == counters(traced[1]),
           f"{name}: counters differ between traced runs")

    owner, attr, fault = faults()[name]
    with mock.patch.object(owner, attr, fault(getattr(owner, attr))):
        wrong = run.run_workload(name, 0, 0.1, False, small=True)["result"]
    expect(not wrong["correct"] and wrong["failed"] >= 1 and wrong["attempted"] >= 2,
           f"{name}: wrong output not counted: {wrong}")
    print(f"{name}: ok ({plain['attempted']} ops; fault counted in "
          f"{wrong['failed']} of {wrong['attempted']})")


def smoke_without_program() -> None:
    bare = run.OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        (bare / run.HERE.name).mkdir(parents=True)
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        for path in run.HERE.glob("*.py"):
            shutil.copy(path, bare / run.HERE.name)
        done = subprocess.run(
            [sys.executable, f"{run.HERE.name}/run.py", "--workload", "build-grid30",
             "--seed", "0", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180, check=False)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    expect(done.returncode != 0 and '"correct"' not in done.stdout,
           f"without src/ the benchmark exited {done.returncode} with {done.stdout!r}")
    print("without the program: exits", done.returncode)


def main() -> int:
    workloads, _ = run.import_program()
    spec = run.load_spec()
    for name in workloads.WORKLOADS:
        smoke_workload(name, spec)
    smoke_without_program()
    print("smoke test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
