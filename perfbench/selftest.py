#!/usr/bin/env python3
"""Fast self-test of the benchmark.

    python3 perfbench/selftest.py

Checks that the default seed gives the default grids and that other
seeds keep the known-failure strata; that known failures may pass and
exit codes follow the records; that the partition check catches time
no span covers or covers twice; that a short run of each pass
prints a correct result naming every metric of BENCHMARK.json with its
unit; and that a wrong right-hand side, injected into a benchmark
worker, is reported as a failed operation.  Exits 0 when all hold.
"""

from __future__ import annotations

import contextlib
import json
import subprocess
import sys

import build
import run
import workloads


def check_workloads() -> None:
    fourier = workloads.invocations("fourier_sweep", 0)
    assert [inv.points for inv in fourier] == [tuple(50.0 * k for k in range(1, 9))] * 4
    mellin = workloads.invocations("mellin_sweep", 0)
    assert sum(len(inv.points) for inv in mellin) == 40
    assert mellin[0].points[0] == 1e-9 and mellin[0].may_fail == {1e-9}
    assert [inv.may_fail for inv in fourier] == [{200.0, 250.0, 300.0, 350.0, 400.0}] * 2 + [set()] * 2
    for seed in range(1, 50):
        assert workloads.invocations("fourier_sweep", seed) == fourier
        eq7 = workloads.invocations("mellin_sweep", seed)[0]
        assert eq7.may_fail == {eq7.points[0]} and 1e-13 <= eq7.points[0] <= 1e-11
    print("workloads: default grids and failure strata hold")


def check_known_failures() -> None:
    # EQ8 on the fourier grid: a known failure that passes (as after an
    # engine fix) is correct and makes the process exit 0; a failure at
    # any other point is not correct.
    inv = workloads.invocations("fourier_sweep", 0)[0]

    def output(code: int, failing: set) -> tuple[int, str, str]:
        recs = [{"id": inv.identity, "params": {inv.param: y}, "lhs": 1.0, "rhs": 1.0,
                 "evals": 15, "status": "fail" if y in failing else "pass"} for y in inv.points]
        return code, json.dumps({"suite": {"backend": "compiled"}, "records": recs}), ""

    cases = [(0, set(), True), (1, {200.0}, True), (0, {200.0}, False), (1, set(), False),
             (1, {100.0}, False)]
    for code, failing, ok in cases:
        check = run.Checker([inv])
        got = check.cli_outputs("case", "compiled", [output(code, failing)])
        assert got == ok, (code, failing, ok)
    print("known failures may pass; exit codes follow the records; other failures count")


def check_partition() -> None:
    # Self times must cover the separately timed loop, up to its bookkeeping.
    assert run.partition_problems([10.0, 20.0, 10.0], [10.05, 35.0, 10.04]) == []
    assert run.partition_problems([10.0, 10.0, 10.0], [15.0, 15.0, 15.0])  # time no span covers
    assert run.partition_problems([10.0, 10.0, 10.0], [9.0, 9.0, 9.0])  # time counted twice
    print("layer self times must cover the traced loop")


def check_short_runs() -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        proc = subprocess.run(
            [sys.executable, str(run.HERE / "run.py"), "--workload", "suite", "--seconds", "1",
             "--trace", str(trace)],
            capture_output=True, text=True, timeout=170,
        )
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert proc.returncode == 0 and result["correct"] and result["failed"] == 0, proc.stderr
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        want = {m["name"]: m["unit"] for m in spec[key]}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        assert got == want, f"trace {trace}: metrics {got} != {want}"
        print(f"trace {trace}: correct, {len(got)} metrics with their units")


def check_injected_fault() -> None:
    lib, _ = build.ensure_built(run.ROOT)
    invs = workloads.invocations("suite", 0)
    check = run.Checker(invs)
    with contextlib.ExitStack() as stack:
        worker = run.WorkerProc("compiled", lib)
        stack.callback(worker.close)
        worker.request("prepare", workload="suite", seed=0)
        check.records("clean", worker.request("compute")["records"])
        worker.request("inject_wrong_rhs", identity="EQ9")
        check.records("injected", worker.request("compute")["records"])
    assert (check.attempted, check.failed) == (2, 1), (check.attempted, check.failed)
    print("a wrong EQ9 right-hand side is reported as a failed operation")


if __name__ == "__main__":
    check_workloads()
    check_known_failures()
    check_partition()
    check_short_runs()
    check_injected_fault()
    print("selftest passed")
