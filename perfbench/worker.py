"""Benchmark worker: runs a workload in-process on one etaint backend.

The parent starts one worker per backend (``ETAINT_PURE=1`` selects the
pure one) with the staged build first on ``PYTHONPATH``, then sends one
JSON request per line on stdin and reads one JSON reply per line on
stdout; each request runs to completion before the next is sent.

Requests: ``hello``, ``prepare`` (workload, seed), ``compute`` (the
workload's verification calls, exactly as the CLI makes them, timed raw
and at the reference speed; optionally counting kernel panel calls),
``cli_pass`` (the workload's CLI invocations through ``etaint.cli.main``,
traced or not),
``micro`` (kernel point and panel microbenchmarks), ``inject_wrong_rhs``
(make one identity's right-hand side wrong, for the self-test),
``write_spans`` and ``exit``.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time
import traceback

import calib
import workloads
from tracer import Tracer, summarize

import etaint
from etaint import _backend, _forms, cli, closed_forms, verify

SEGMENT_S = 0.05  # well inside the few hundred ms a machine-speed state lasts


def _as_dict(rec) -> dict:
    return {
        "id": rec.id,
        "params": rec.params,
        "lhs": rec.lhs_value,
        "rhs": rec.rhs_value,
        "evals": rec.evals,
        "status": rec.status,
    }


class Worker:
    def __init__(self):
        self.invs: list[workloads.Invocation] = []
        self.specs: dict = {}
        self.tracer: Tracer | None = None

    def hello(self) -> dict:
        return {
            "backend": etaint.backend_name(),
            "package": etaint.__file__,
            "python": sys.version.split()[0],
        }

    def prepare(self, workload: str, seed: int) -> dict:
        self.invs = workloads.invocations(workload, seed)
        self.specs = {spec.id: spec for spec in verify.default_registry()}
        return {"invocations": len(self.invs)}

    def _calls(self):
        """The verification calls `etaint run --all` and `etaint table` make,
        in order, as (invocation index, call returning its records)."""
        for i, inv in enumerate(self.invs):
            if inv.identity is None:
                specs = list(self.specs.values())
                yield i, lambda: list(verify.run_suite(specs, None).records)
            else:
                spec = self.specs[inv.identity]
                for p in inv.points:
                    yield i, lambda p=p: [verify.verify_identity(spec, {inv.param: p}, None)]

    def compute(self, count: bool = False) -> dict:
        """Run the workload's verification calls once, timed raw and at the
        reference speed: the calibration task (calib.py) runs before the
        first call and after each call that completes a segment of at least
        SEGMENT_S, so short passes stay back to back."""
        panel = _backend.panel
        calls = 0
        if count:
            def counting(*args):
                nonlocal calls
                calls += 1
                return panel(*args)

            _backend.panel = counting
        recs = [[] for _ in self.invs]
        raw = at_ref = segment = 0.0
        try:
            before = calib.task_s()
            for i, call in self._calls():
                t0 = time.perf_counter()
                recs[i] += call()
                elapsed = time.perf_counter() - t0
                raw += elapsed
                segment += elapsed
                if segment >= SEGMENT_S:
                    after = calib.task_s()
                    at_ref += calib.scaled(segment, before, after, calib.TASK_REF_S)
                    before, segment = after, 0.0
            if segment:
                at_ref += calib.scaled(segment, before, calib.task_s(), calib.TASK_REF_S)
        finally:
            _backend.panel = panel
        reply = {"s": raw, "ref_s": at_ref, "records": [[_as_dict(r) for r in rs] for rs in recs]}
        if count:
            reply["panels"] = calls
        return reply

    def cli_pass(self, traced: bool) -> dict:
        """The workload's CLI invocations through `etaint.cli.main`,
        in-process; with `traced`, every layer is wrapped (tracer.py)."""
        tracer = Tracer()
        if traced:
            self.tracer = tracer
            tracer.install("etaint")
        outputs = []
        t0 = time.perf_counter()
        try:
            for inv in self.invs:
                buf = io.StringIO()
                with contextlib.redirect_stdout(buf):
                    code = tracer.call("cli", "main", cli.main, list(inv.argv))
                outputs.append({"exit": code, "stdout": buf.getvalue()})
        finally:
            loop_s = time.perf_counter() - t0
            tracer.uninstall()
        summary = summarize(tracer.spans)
        return {"outputs": outputs, "wall_s": summary["wall_s"], "loop_s": loop_s,
                "summary": summary}

    def write_spans(self, path: str) -> dict:
        self.tracer.write(path)
        return {"spans": len(self.tracer.spans)}

    def micro(self) -> dict:
        # The point and panel cases of benchmarks/bench_backends.py: x runs
        # over [0.05, 10.05), covering the modular (x < 1) and direct paths.
        eta, eta3, panel = _backend.eta_point, _backend.eta3_point, _backend.panel
        clock = time.perf_counter
        acc = 0.0
        t0 = clock()
        for i in range(20_000):
            acc += eta(0.05 + i * 5e-4)
        t1 = clock()
        for i in range(20_000):
            acc += eta3(0.05 + i * 5e-4)
        t2 = clock()
        for i in range(2_000):
            acc += panel(_forms.FORM_COS, 1, 5.0, 0.0, 0.1 + i * 1e-3, 0.2 + i * 1e-3)[0]
        t3 = clock()
        return {
            "eta_point_ns": (t1 - t0) / 20_000 * 1e9,
            "eta3_point_ns": (t2 - t1) / 20_000 * 1e9,
            "panel_us": (t3 - t2) / 2_000 * 1e6,
        }

    def inject_wrong_rhs(self, identity: str) -> dict:
        right = closed_forms.closed_form

        def wrong(ident, params=None, tol=1e-11):
            value = right(ident, params, tol)
            return value * (1.0 + 1e-3) if ident == identity else value

        closed_forms.closed_form = wrong
        return {}


def main() -> int:
    proto = sys.stdout
    worker = Worker()
    for line in sys.stdin:
        req = json.loads(line)
        op = req.pop("op")
        if op == "exit":
            return 0
        try:
            reply = getattr(worker, op)(**req)
        except Exception:  # reported to the parent as a failed operation
            reply = {"error": traceback.format_exc()}
        proto.write(json.dumps(reply) + "\n")
        proto.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
