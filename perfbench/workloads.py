"""The benchmark's workloads: seeded `etaint` CLI invocations and the
statuses every record they produce may have.

Each workload is a list of CLI invocations run one after another by one
client (a closed loop).  `--seed 0` gives the default grids; another seed
draws the mellin_sweep points within fixed strata that keep the known
failures.  A known failure is a point where today's engine fails; it may
fail or pass (an engine fix turns it into a pass), while every other
record must have exactly its expected status:

* ``mellin_sweep``: one `table` per identity for EQ7, A3, A15, A5, A8, A9
  and A10.  The EQ7 sweep starts at s in [1e-13, 1e-11] (log-uniform),
  where the right-hand side loses about 1e-16/s of relative precision
  and the record fails (near 1e-9 the rounding error sometimes cancels
  below the tolerance, so the default point 1e-9 is not redrawn there);
  its step stays in [0.28, 0.32], so no later point comes near the s = 1/2
  and s = 1 limit paths.  A15 needs integers and is the same for every
  seed.  A10 is flagged by the registry.
* ``fourier_sweep``: y = 50:400:50 for EQ8, EQ10, A11 and A12.  EQ8 and
  EQ10 fail to converge from y = 200 on (evaluation budget), so 10 of
  the 32 records fail.  The grid is the same for every seed: between
  grid points the cos/sin eta^3 kernels have narrow spikes where the
  quadrature's error estimate misses its true error and the record
  fails (A12 at y = 112.9 and 121.2, A11 at y = 224.6, 252.267, 281.8
  and 304.4), so drawn points would make the known failures a matter
  of chance.

`suite` is the registry itself (`etaint run --all`) and ignores the seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

WORKLOADS = ("suite", "fourier_sweep", "mellin_sweep")

# The registry as the suite workload expects it: 71 records, of which
# only A10 (3 records) is flagged and none fails.
SUITE_IDS = (
    "EQ5 EQ7 EQ8 EQ9 EQ10 EQ11 EQ13 EQ14 EQ16 EQ17 A1 A2 A3 A4 A5 A6 A7"
    " A8 A9 A10 A11 A12 A13 A14 A15"
).split()
SUITE_RECORDS = 71
FLAGGED = frozenset({"A10"})


@dataclass(frozen=True)
class Invocation:
    """One CLI process of a workload and what its records must be."""

    argv: tuple[str, ...]  # arguments after the program name
    identity: str | None = None  # None: the whole registry
    param: str = ""
    points: tuple[float, ...] = ()  # sweep values in CLI order
    may_fail: frozenset = frozenset()  # known failures: points that may fail

    def allowed_statuses(self, record: dict) -> tuple[str, ...]:
        if record["id"] in FLAGGED:
            return ("flagged",)
        if self.identity is not None and record["params"].get(self.param) in self.may_fail:
            return ("fail", "pass")
        return ("pass",)


def _table(identity: str, param: str, lo: float, step: float, count: int, may_fail=()):
    # The CLI computes its points as lo + k * step; so does this.
    points = tuple(lo + k * step for k in range(count))
    hi = lo + (count - 1) * step
    argv = (
        "table",
        "--identity",
        identity,
        "--param",
        f"{param}={lo!r}:{hi!r}:{step!r}",
        "--format",
        "json",
    )
    return Invocation(argv, identity, param, points, frozenset(may_fail))


def _fourier() -> list[Invocation]:
    fails = [50.0 * k for k in range(4, 9)]
    return [
        _table(identity, "y", 50.0, 50.0, 8, fails if identity in ("EQ8", "EQ10") else ())
        for identity in ("EQ8", "EQ10", "A11", "A12")
    ]


def _mellin(rng: random.Random | None) -> list[Invocation]:
    if rng is None:
        s0, s_step, nu0, a0 = 1e-9, 0.3, 0.25, 0.25
    else:
        s0 = float(f"{10.0 ** rng.uniform(-13.0, -11.0):.4g}")
        s_step = round(rng.uniform(0.28, 0.32), 4)
        nu0 = round(rng.uniform(0.25, 0.35), 4)
        a0 = round(rng.uniform(0.25, 0.5), 4)
    out = [
        _table("EQ7", "s", s0, s_step, 12, [s0]),
        _table("A3", "nu", nu0, 0.5, 6),
        _table("A15", "n", 0.0, 1.0, 6),
    ]
    for identity in ("A5", "A8", "A9", "A10"):
        out.append(_table(identity, "b" if identity == "A9" else "a", a0, 5.25, 4))
    return out


def invocations(workload: str, seed: int) -> list[Invocation]:
    """The CLI invocations of a workload, in the order they run."""
    if workload == "suite":
        return [Invocation(("run", "--all", "--format", "json"))]
    if workload == "fourier_sweep":
        return _fourier()
    if workload == "mellin_sweep":
        return _mellin(None if seed == 0 else random.Random(seed))
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")


def check_records(invs: list[Invocation], records: list[list[dict]]) -> list[str]:
    """Problems with the records each invocation produced (empty: correct)."""
    problems = []
    for inv, recs in zip(invs, records, strict=True):
        if inv.identity is None:
            ids = sorted({r["id"] for r in recs})
            if len(recs) != SUITE_RECORDS or ids != sorted(SUITE_IDS):
                problems.append(f"suite has {len(recs)} records over ids {ids}")
        else:
            got = [(r["id"], r["params"]) for r in recs]
            want = [(inv.identity, {inv.param: p}) for p in inv.points]
            if got != want:
                problems.append(f"{inv.identity}: records {got} != expected {want}")
        for r in recs:
            allowed = inv.allowed_statuses(r)
            if r["status"] not in allowed:
                problems.append(f"{r['id']} {r['params']}: status {r['status']} not in {allowed}")
    return problems
