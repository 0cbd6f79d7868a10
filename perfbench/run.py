#!/usr/bin/env python3
"""etaint benchmark: one workload on both backends, end to end or traced.

    python3 perfbench/run.py --workload suite|fourier_sweep|mellin_sweep \\
        [--seed N] [--seconds S] [--trace 0|1]

The package is staged from this checkout's sources first (see build.py).
One client runs each workload in a closed loop: every call starts after
the previous one returned, from this one process, with no threads, all
pinned to one CPU.  Samples of both backends are interleaved over the
whole run, alternating which backend goes first.  On a shared 2-vCPU
cloud VM (Intel Xeon) the speed flips between states every few hundred
milliseconds and drifts by up to 2x over minutes, so every timed sample is bracketed by a calibration
task and the times below are seconds at a fixed reference speed
(calib.py); the report also prints the raw medians.

``--trace 0`` (untraced pass) reports the end-to-end metrics:

* ``setup_s``: fresh interpreter until ``import etaint`` returns,
  compiled backend;
* ``wall_s.<backend>``: the workload's CLI processes run one after
  another, from interpreter start through rendered output;
* ``compute_s.<backend>``: the same verification calls in a warmed
  process;
* ``evals``: integrand evaluations made, 15 per kernel panel call;
* ``nonfail_frac``: records that did not fail over records attempted;
* ``peak_rss_mb``: peak RSS of the workload's largest CLI process.

``--trace 1`` (traced pass) runs the CLI invocations in-process with a
span at every layer boundary (tracer.py) and reports per-layer counts
and self times, kernel microbenchmarks, ``-X importtime`` figures and
the tracing overhead.  Every run checks every record: statuses must be
the expected ones (the known failures stay in the workloads), both
backends must agree bit for bit, and each CLI process must exit with the
expected code and no traceback.  A report goes to stdout, spans and
samples to ``perfbench/out/``; the last stdout line is the JSON result.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import selectors
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

import build
import calib
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
BACKENDS = ("compiled", "python")
EVALS_PER_PANEL = 15
# In-process compute is repeated for at least this long per CLI sample: a
# short compute (5 ms on mellin_sweep, compiled) then gets ten samples or
# more for each CLI sample, at little cost to the CLI samples.
COMPUTE_BATCH_S = 0.1
# The traced loop's time outside the layers' spans: output redirection and
# the root span's own set-up, a few microseconds per CLI call.
PARTITION_SLACK_MS, PARTITION_SLACK_FRAC = 1.0, 0.01

CLI_CODE = "import sys; from etaint.cli import main; sys.exit(main())"
SETUP_CODE = (
    "import time; import etaint; t = time.clock_gettime_ns(time.CLOCK_MONOTONIC); "
    "print(t, etaint.backend_name())"
)
IMPORT_CODE = "import sys, etaint; sys.exit(etaint.backend_name() != sys.argv[1])"
IMPORT_MODULES = {
    "etaint": "import.total_ms",
    "etaint.verify": "import.verify_ms",
    "etaint.quad": "import.quad_ms",
    "etaint.closed_forms": "import.closed_forms_ms",
    "etaint._pykernels": "import._pykernels_ms",
    "etaint.dedekind": "import.dedekind_ms",
}
UNITS = (("_mb", "MB"), ("ms", "ms"), ("_ns", "ns"), ("ns_per_eval", "ns"), ("_us", "us"),
         ("_s", "s"), ("_frac", "ratio"))


def unit_of(name: str) -> str:
    base = name.removesuffix(".compiled").removesuffix(".python")
    return next((unit for suffix, unit in UNITS if base.endswith(suffix)), "count")


# ---------------------------------------------------------------- processes


def child_env(lib: Path, backend: str) -> dict:
    drop = {"ETAINT_PURE", "ETAINT_TOL", "PYTHONPATH"}
    env = {k: v for k, v in os.environ.items() if k not in drop}
    env["PYTHONPATH"] = str(lib)
    if backend == "python":
        env["ETAINT_PURE"] = "1"
    return env


@dataclass
class Child:
    wall_s: float
    start_ns: int
    code: int
    stdout: str
    stderr: str
    rss_mb: float


def run_child(argv: list[str], env: dict) -> Child:
    """Run a process to completion; its wall time and peak RSS."""
    t0 = time.perf_counter()
    start_ns = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
    proc = subprocess.Popen(
        argv, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    chunks = {proc.stdout: [], proc.stderr: []}
    with selectors.DefaultSelector() as sel:
        for f in chunks:
            sel.register(f, selectors.EVENT_READ)
        while sel.get_map():
            for key, _ in sel.select():
                data = os.read(key.fd, 1 << 16)
                if data:
                    chunks[key.fileobj].append(data)
                else:
                    sel.unregister(key.fileobj)
                    key.fileobj.close()
    # wait4 rather than wait: it also returns the child's resource usage.
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    out, err = (b"".join(chunks[f]).decode() for f in (proc.stdout, proc.stderr))
    return Child(wall, start_ns, proc.returncode, out, err, usage.ru_maxrss / 1024.0)


class WorkerError(RuntimeError):
    pass


class WorkerProc:
    """Parent side of worker.py: one request at a time."""

    def __init__(self, backend: str, lib: Path):
        self.backend = backend
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py")], cwd=ROOT, env=child_env(lib, backend),
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def request(self, op: str, **kwargs) -> dict:
        self.proc.stdin.write(json.dumps({"op": op, **kwargs}) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise WorkerError(f"{self.backend} worker exited during {op!r}")
        reply = json.loads(line)
        if "error" in reply:
            raise WorkerError(f"{self.backend} worker, {op!r}:\n{reply['error']}")
        return reply

    def close(self) -> None:
        with contextlib.suppress(OSError):
            self.proc.stdin.write('{"op": "exit"}\n')
            self.proc.stdin.close()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def start_workers(stack: contextlib.ExitStack, lib: Path, workload: str, seed: int) -> dict:
    workers = {}
    for backend in BACKENDS:
        w = WorkerProc(backend, lib)
        stack.callback(w.close)
        hello = w.request("hello")
        if hello["backend"] != backend or not hello["package"].startswith(str(lib)):
            raise WorkerError(f"{backend} worker runs {hello['backend']} from {hello['package']}")
        w.request("prepare", workload=workload, seed=seed)
        workers[backend] = w
    return workers


# ---------------------------------------------------------------- checks


def normalized(records: list[list[dict]]) -> list[tuple]:
    """Records as exact tuples: floats by repr, so NaN compares equal."""
    return [
        (r["id"], tuple(sorted(r["params"].items())), repr(float(r["lhs"])),
         repr(float(r["rhs"])), int(r["evals"]), r["status"])
        for recs in records for r in recs
    ]


class Checker:
    """Counts operations and checks every result against the expectations
    and against the first compiled result (the twin contract)."""

    def __init__(self, invs: list[workloads.Invocation]):
        self.invs = invs
        self.reference: list[tuple] | None = None
        self.attempted = 0
        self.failed = 0

    def op(self, what: str, problems: list[str]) -> bool:
        self.attempted += 1
        if problems:
            self.failed += 1
            print(f"FAILED {what}: " + "; ".join(problems[:5]), file=sys.stderr)
        return not problems

    def records(self, what: str, records: list[list[dict]]) -> bool:
        problems = workloads.check_records(self.invs, records)
        flat = normalized(records)
        if self.reference is None:
            self.reference = flat
        elif flat != self.reference:
            first = [(a, b) for a, b in zip(flat, self.reference) if a != b][:1]
            problems.append(
                f"{len(flat)} records differ from the {len(self.reference)} of the compiled"
                f" reference; first difference {first}"
            )
        return self.op(what, problems)

    def cli_outputs(self, what: str, backend: str, outputs: list[tuple[int, str, str]]) -> bool:
        """outputs: (exit code, stdout, stderr) per invocation.  A process
        must exit 1 if one of its records failed and 0 otherwise."""
        problems, records = [], []
        for inv, (code, out, err) in zip(self.invs, outputs, strict=True):
            label = " ".join(inv.argv[:3])
            if "Traceback" in err:
                problems.append(f"{label}: traceback on stderr: {err[-300:]}")
            try:
                payload = json.loads(out)
                reported, recs = payload["suite"]["backend"], payload["records"]
                want = int(any(r["status"] == "fail" for r in recs))
            except (ValueError, KeyError, TypeError) as exc:
                problems.append(f"{label}: exit {code}, stdout is not a JSON report ({exc!r})")
                continue
            if code != want:
                problems.append(f"{label}: exit {code} != {want}")
            if reported != backend:
                problems.append(f"{label}: backend {reported} != {backend}")
            records.append(recs)
        if problems:
            return self.op(what, problems)
        return self.records(what, records)


# ---------------------------------------------------------------- stats


def summary(values: list[float]) -> dict:
    """Median, the highest percentile with >= 10 samples above it, count."""
    xs = sorted(values)
    n = len(xs)
    out = {"median": statistics.median(xs), "n": n}
    if n > 10:
        out["tail_pct"] = 100.0 * (n - 10) / n
        out["tail"] = xs[n - 11]
    return out


def environment(build_info: dict) -> dict:
    commit = "unknown"
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                timeout=30,
            ).stdout.strip() or commit
    cpu = platform.processor() or "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "commit": commit,
        "source_hash": build_info["source_hash"],
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "build": build_info["compiled_by"],
        "build_s": build_info["build_s"],
    }


# ---------------------------------------------------------------- passes


def rounds(seconds: float):
    """Yield round numbers while the next round should end by `seconds`,
    give or take half a round."""
    t_end = time.perf_counter() + seconds
    last = 0.0
    r = 0
    while r == 0 or time.perf_counter() + last / 2 <= t_end:
        t0 = time.perf_counter()
        yield r
        last = time.perf_counter() - t0
        r += 1


def order(r: int) -> tuple[str, ...]:
    return BACKENDS if r % 2 == 0 else BACKENDS[::-1]


def ask(check: Checker, worker: WorkerProc, what: str, op: str, **kwargs) -> dict | None:
    """A worker request; a worker that fails counts as a failed operation."""
    try:
        return worker.request(op, **kwargs)
    except (WorkerError, OSError) as exc:
        check.op(what, [str(exc)])
        return None


def timed_children(argvs: list[list[str]], env: dict) -> list[tuple[Child, float]]:
    """Run processes back to back with calibrations between them (see
    calib.py); (child, its wall seconds at the reference speed) for each."""
    cals = [(calib.spawn_s(env), calib.task_s())]
    children = []
    for argv in argvs:
        children.append(run_child(argv, env))
        cals.append((calib.spawn_s(env), calib.task_s()))
    task = statistics.mean(t for _, t in cals)
    return [
        (c, calib.scaled_process(c.wall_s, (cals[i][0], cals[i + 1][0]), task))
        for i, c in enumerate(children)
    ]


def setup_samples(lib: Path, count: int, check: Checker, samples: dict) -> None:
    for child, at_ref in timed_children([[sys.executable, "-c", SETUP_CODE]] * count,
                                        child_env(lib, "compiled")):
        fields = child.stdout.split()
        ok = child.code == 0 and fields[1:] == ["compiled"]
        if check.op("setup", [] if ok else [f"exit {child.code}: {child.stdout!r} {child.stderr[-300:]!r}"]):
            raw = (int(fields[0]) - child.start_ns) / 1e9
            samples["raw/setup_s"].append(raw)
            samples["setup_s"].append(raw * at_ref / child.wall_s)


def cli_sample(lib: Path, backend: str, invs, check: Checker, samples: dict) -> float:
    """Run the workload's CLI processes once; their largest peak RSS."""
    runs = timed_children([[sys.executable, "-c", CLI_CODE, *inv.argv] for inv in invs],
                          child_env(lib, backend))
    children = [c for c, _ in runs]
    if not check.cli_outputs(f"{backend} cli", backend, [(c.code, c.stdout, c.stderr) for c in children]):
        return 0.0
    samples[f"raw/wall_s.{backend}"].append(sum(c.wall_s for c in children))
    samples[f"wall_s.{backend}"].append(sum(at_ref for _, at_ref in runs))
    return max(c.rss_mb for c in children)


def untraced_pass(workers, invs, lib, seconds, check, info) -> dict:
    samples = info["samples"] = defaultdict(list)
    panels = {}
    for b in BACKENDS:  # warm-up, counting kernel calls
        reply = ask(check, workers[b], f"{b} warm-up", "compute", count=True)
        if reply and check.records(f"{b} warm-up", reply["records"]):
            panels[b] = reply["panels"]
    if len(set(panels.values())) != 1 or len(panels) != len(BACKENDS):
        check.op("evals", [f"kernel panel calls per backend: {panels}"])
        return {}
    statuses = [rec[-1] for rec in check.reference]  # as measured in this run
    info["records"] = {s: statuses.count(s) for s in ("pass", "fail", "flagged")}
    info["known_failures"] = sum(len(inv.may_fail) for inv in invs)
    repeats = dict.fromkeys(BACKENDS, 1)
    for r in rounds(seconds):
        t_round = time.perf_counter()
        cost = {}
        rss = 0.0
        for b in order(r):
            t0 = time.perf_counter()
            for _ in range(repeats[b]):
                t_batch = time.perf_counter()
                while True:
                    reply = ask(check, workers[b], f"{b} compute", "compute")
                    if reply and check.records(f"{b} compute", reply["records"]):
                        samples[f"raw/compute_s.{b}"].append(reply["s"])
                        samples[f"compute_s.{b}"].append(reply["ref_s"])
                    if not reply or time.perf_counter() - t_batch >= COMPUTE_BATCH_S:
                        break
                rss = max(rss, cli_sample(lib, b, invs, check, samples))
            cost[b] = (time.perf_counter() - t0) / repeats[b]
        if rss:
            samples["peak_rss_mb"].append(rss)
        # Sample the cheaper backend more often, by the square root of the
        # cost ratio (Neyman allocation), so it is not starved of samples;
        # at most twice, because the dear backend's samples are the scarce
        # ones (python on fourier_sweep: 8 s each, 2-3 in a 35 s run).
        cheap, dear = sorted(BACKENDS, key=cost.get)
        repeats = {dear: 1, cheap: max(1, min(2, round(math.sqrt(cost[dear] / cost[cheap]))))}
        setup_samples(lib, max(1, int(time.perf_counter() - t_round)), check, samples)  # 1/s
    metrics = {name: summary(values) for name, values in samples.items() if "/" not in name}
    metrics["evals"] = {"median": EVALS_PER_PANEL * panels["compiled"], "n": 1}
    n = len(statuses)
    metrics["nonfail_frac"] = {"median": (n - info["records"]["fail"]) / n, "n": 1}
    return metrics


def cli_pass(check: Checker, worker: WorkerProc, traced: bool) -> dict | None:
    """The workload's CLI invocations in the worker's process, checked."""
    what = f"{worker.backend} {'traced' if traced else 'in-process'} cli"
    reply = ask(check, worker, what, "cli_pass", traced=traced)
    outputs = [(o["exit"], o["stdout"], "") for o in reply["outputs"]] if reply else []
    return reply if reply and check.cli_outputs(what, worker.backend, outputs) else None


def import_sample(lib: Path, backend: str, check: Checker, samples: dict) -> None:
    child = run_child(
        [sys.executable, "-X", "importtime", "-c", IMPORT_CODE, backend], child_env(lib, backend)
    )
    if not check.op(f"{backend} import", [] if child.code == 0 else [child.stderr[-300:]]):
        return
    found = dict.fromkeys(IMPORT_MODULES.values(), 0.0)
    for line in child.stderr.splitlines():
        parts = line.split("|")
        if line.startswith("import time:") and len(parts) == 3:
            name = parts[2].strip()
            if name in IMPORT_MODULES:
                found[IMPORT_MODULES[name]] = int(parts[1]) / 1e3
    for name, ms in found.items():
        samples[f"{name}.{backend}"].append(ms)


def layer_figures(s: dict, outputs: list[dict]) -> tuple[dict, dict]:
    """(counts, times in ms) of one traced pass from its span summary."""
    self_ms = {layer: 1e3 * s["self_s"].get(layer, 0.0) for layer in
               ("cli", "verify", "quad", "closed_forms", "specfun", "kernel")}
    panels = s.get("kernel.panel_calls", 0)
    reported = sum(r["evals"] for o in outputs for r in json.loads(o["stdout"])["records"])
    counts = {
        "verify.records": s.get("verify.records", 0),
        "quad.calls": s["calls"].get("quad", 0),
        "quad.panels": s.get("quad.panels", 0),
        "quad.evals_reported": reported,
        "quad.nonconverged": s.get("quad.nonconverged", 0),
        "quad.wasted_evals_frac": s.get("wasted_panels", 0) / panels if panels else 0.0,
        "kernel.panel_calls": panels,
        "closed_forms.calls": s["calls"].get("closed_forms", 0),
        "closed_forms.quad_panels": s.get("closed_forms.quad_panels", 0),
        "specfun.calls": s["calls"].get("specfun", 0),
    }
    times = {
        "cli.self_ms": self_ms["cli"],
        "verify.self_ms": self_ms["verify"],
        "verify.registry_ms": 1e3 * s.get("verify.registry_s", 0.0),
        "quad.self_ms": self_ms["quad"],
        "kernel.panel_ms": self_ms["kernel"],
        "kernel.ns_per_eval": 1e6 * self_ms["kernel"] / (EVALS_PER_PANEL * panels) if panels else 0.0,
        "closed_forms.ms": self_ms["closed_forms"],
        "specfun.ms": self_ms["specfun"],
    }
    return counts, {**times, "self_sum_ms": sum(self_ms.values()), "wall_ms": 1e3 * s["wall_s"]}


def partition_problems(self_sum_ms: list[float], loop_ms: list[float]) -> list[str]:
    """The layers' self times must cover the separately timed loop over the
    traced CLI calls, up to the loop's own bookkeeping.  A span that misses
    time misses it in every pass, so the median pass is checked; a pause
    that happens to fall between two calls does not count."""
    gap = statistics.median(lp - ss for ss, lp in zip(self_sum_ms, loop_ms))
    loop = statistics.median(loop_ms)
    if 0.0 <= gap <= PARTITION_SLACK_MS + PARTITION_SLACK_FRAC * loop:
        return []
    return [f"layer self times miss {gap:.3f} ms of the {loop:.3f} ms traced loop (medians)"]


def traced_pass(workers, lib, seconds, check, info, workload) -> dict:
    samples = info["samples"] = defaultdict(list)
    ref_counts = None
    for b in BACKENDS:  # warm-up
        cli_pass(check, workers[b], traced=False)
    for r in rounds(seconds):
        for b in order(r):
            w = workers[b]
            plain = cli_pass(check, w, traced=False)
            if plain:
                samples[f"untraced_wall_s.{b}"].append(plain["wall_s"])
            traced = cli_pass(check, w, traced=True)
            if traced:
                counts, times = layer_figures(traced["summary"], traced["outputs"])
                times["loop_ms"] = 1e3 * traced["loop_s"]
                problems = []
                if traced["summary"]["min_self_s"] < -1e-9:  # a child outside its parent
                    problems.append(f"a span has self time {traced['summary']['min_self_s']} s")
                ref_counts = ref_counts or counts
                if counts != ref_counts:
                    problems.append(f"counts differ between passes: {counts} != {ref_counts}")
                if check.op(f"{b} trace", problems):
                    for name, value in times.items():
                        samples[f"{name}.{b}"].append(value)
            micro = ask(check, w, f"{b} micro", "micro")
            for name, value in (micro or {}).items():
                samples[f"kernel.{name}.{b}"].append(value)
            import_sample(lib, b, check, samples)
    for b in BACKENDS:
        ask(check, workers[b], f"{b} spans", "write_spans", path=str(OUT / f"spans-{workload}-{b}.csv"))
    partition = []
    for b in BACKENDS:
        sums, loops = samples.get(f"self_sum_ms.{b}"), samples.get(f"loop_ms.{b}")
        if sums:
            check.op(f"{b} partition", partition_problems(sums, loops))
            partition.append((b, statistics.median(sums), statistics.median(loops)))
    metrics = {name: summary(values) for name, values in samples.items()
               if not name.startswith(("self_sum_ms", "wall_ms", "loop_ms", "untraced"))}
    for name, value in (ref_counts or {}).items():
        metrics[name] = {"median": value, "n": 1}
    for b in BACKENDS:
        traced = [ms / 1e3 for ms in samples.get(f"wall_ms.{b}", [])]
        plain = samples.get(f"untraced_wall_s.{b}")
        if traced and plain:
            metrics[f"trace.overhead_frac.{b}"] = {
                "median": statistics.median(traced) / statistics.median(plain) - 1.0,
                "n": min(len(traced), len(plain)),
            }
    info["partition_ms"] = partition
    return metrics


# ---------------------------------------------------------------- main


def report(metrics: dict, info: dict, names: list[str]) -> None:
    env = info["env"]
    print(f"etaint benchmark: workload={info['workload']} seed={info['seed']} "
          f"trace={info['trace']} seconds={info['seconds']:g}")
    print(f"  commit {env['commit']}  sources {env['source_hash']}  python {env['python']}  "
          f"nproc {env['nproc']}  cpu {env['cpu']}")
    print(f"  build: {env['build']} in {env['build_s']:.2f} s (build_s, once per checkout)")
    if "records" in info:
        c = info["records"]
        n = sum(c.values())
        print(f"  records {n}: pass {c['pass']}  fail {c['fail']}  flagged {c['flagged']}  "
              f"fail_frac {c['fail']}/{n} = {c['fail'] / n:.4f}  "
              f"(known failures, which may fail or pass: {info['known_failures']})")
    for b, self_sum, loop in info.get("partition_ms", []):
        print(f"  {b}: layer self times sum to {self_sum:.3f} ms of the {loop:.3f} ms"
              " traced loop (medians)")
    print(f"  {'metric':<32} {'median':>14} {'tail':>20} {'n':>4}  {'unit':<6} raw median")
    for name in names:
        m = metrics[name]
        tail = f"p{m['tail_pct']:.0f} {m['tail']:.6g}" if "tail" in m else "-"
        raw = info["samples"].get(f"raw/{name}")
        raw = f"{statistics.median(raw):.6g}" if raw else ""
        print(f"  {name:<32} {m['median']:>14.6g} {tail:>20} {m['n']:>4}  {unit_of(name):<6} {raw}")


def metric_names(trace: int) -> list[str]:
    """The metrics BENCHMARK.json names for this pass, in its order."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    names = metric_names(args.trace)
    # One CPU for this process and every process it starts, so that the
    # calibration task runs where the sample it brackets runs.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    try:
        lib, build_info = build.ensure_built(ROOT)
    except build.BuildError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    invs = workloads.invocations(args.workload, args.seed)
    info = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
            "seconds": args.seconds, "env": environment(build_info)}
    OUT.mkdir(exist_ok=True)
    check = Checker(invs)
    with contextlib.ExitStack() as stack:
        workers = start_workers(stack, lib, args.workload, args.seed)
        if args.trace:
            metrics = traced_pass(workers, lib, args.seconds, check, info, args.workload)
        else:
            metrics = untraced_pass(workers, invs, lib, args.seconds, check, info)
    missing = [n for n in names if n not in metrics]
    if missing:
        check.op("metrics", [f"missing metrics {missing}"])
    names = [n for n in names if n in metrics]
    report(metrics, info, names)
    info["metrics"] = metrics
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(info, indent=1))
    correct = check.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": check.attempted,
        "failed": check.failed,
        "metrics": {n: {"value": metrics[n]["median"], "unit": unit_of(n)} for n in names},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
