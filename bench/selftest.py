"""Self-test of the benchmark's own checks.

Run from the root of a checkout::

    python3 bench/selftest.py

It checks that every name in BENCHMARK.json is a valid metric or workload
name and matches the workloads ``bench/run.py`` defines, that the degeneracy
guard tells equal bounds from distinct ones, and that a tampered reference
answer makes every timed run count as failed (``ok_share`` drops to 0) while
the stored reference passes. The last part runs heuristic-n20 twice, about
35 s on a 2-core machine.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import sys
import tempfile

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run as bench  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def check_names(spec: dict) -> None:
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer") for m in spec[key]]
    bad = [n for n in names if not NAME.fullmatch(n)]
    if bad:
        raise AssertionError(f"invalid metric or workload names: {bad}")
    if len(names) != len(set(names)):
        raise AssertionError("a name is used twice in BENCHMARK.json")
    declared = {w["name"] for w in spec["workloads"]}
    if declared != set(bench.WORKLOADS):
        raise AssertionError(f"workloads differ: {sorted(declared ^ set(bench.WORKLOADS))}")


def check_degeneracy_guard() -> None:
    if not bench.degenerate({"EV": "433.8", "EEV": "433.8", "LB": "433.8", "UB": "433.8"}):
        raise AssertionError("equal bounds must be flagged degenerate")
    if bench.degenerate({"EV": "433.8", "EEV": "439.9", "LB": "435.8", "UB": "437.2"}):
        raise AssertionError("distinct bounds must not be flagged degenerate")


def check_reference(root: str) -> None:
    workload = bench.WORKLOADS["heuristic-n20"]
    stored = os.path.join(bench.REFERENCE_DIR, workload.name)
    result, metrics, _ = bench.run(root, workload, 0, False, workload.instance_seed, stored)
    if result["failed"] or metrics["ok_share"] != 1.0:
        raise AssertionError(f"stored reference should pass: {result}")
    work = os.path.join(root, ".bench_work")
    os.makedirs(work, exist_ok=True)
    tampered = tempfile.mkdtemp(prefix="tampered-", dir=work)
    try:
        shutil.copytree(stored, tampered, dirs_exist_ok=True)
        path = os.path.join(tampered, "stdout.txt")
        with open(path, encoding="utf-8") as handle:
            lines = handle.read().splitlines()
        key, _, value = lines[0].partition(" = ")
        lines[0] = f"{key} = {float(value) + 1e-9!r}"
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("\n".join(lines) + "\n")
        result, metrics, _ = bench.run(root, workload, 0, False, workload.instance_seed, tampered)
    finally:
        shutil.rmtree(tampered, ignore_errors=True)
    if result["correct"] or result["failed"] != result["attempted"] or metrics["ok_share"] != 0.0:
        raise AssertionError(f"a tampered reference must fail every run: {result} {metrics}")


def main() -> int:
    root = os.getcwd()
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    check_names(spec)
    check_degeneracy_guard()
    check_reference(root)
    print("bench selftest: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
