"""Spans at etaint's layer boundaries, recorded from outside the package.

`Tracer.install` replaces the public functions of each layer with
wrappers that record a span per call: layer, function, start, end,
parent span and record id (the identity and parameters a
`verify_identity` call works on; every span below it inherits that id).
Callers reach these functions through module attributes, so patching
the attribute is enough; nothing under ``src/`` changes.  Spans stay in
memory until `write` is called.
"""

from __future__ import annotations

import time
from collections import defaultdict

# layer -> (module name under etaint, wrapped functions).  The specfun
# functions are the ones closed_forms calls.
TARGETS = {
    "verify": ("verify", ("run_suite", "verify_identity", "default_registry")),
    "quad": ("quad", ("integrate", "integrate_glaisher", "integrate_rhs_aux")),
    "closed_forms": ("closed_forms", ("closed_form",)),
    "specfun": (
        "specfun",
        ("log_gamma", "gamma", "digamma", "hurwitz_zeta_combo", "dirichlet_beta"),
    ),
    "kernel": ("_backend", ("panel",)),
}

LAYER, NAME, START, END, PARENT, RECORD, ERROR = range(7)


def _record_id(spec, params=None, *_, **__) -> str:
    items = ",".join(f"{k}={v!r}" for k, v in (params or {}).items())
    return f"{spec.id}[{items}]"


class Tracer:
    """Records spans; one instance per traced pass."""

    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []
        self._record: str | None = None
        self._saved: list = []

    def install(self, package) -> None:
        import importlib

        for layer, (mod_name, names) in TARGETS.items():
            module = importlib.import_module(f"{package}.{mod_name}")
            for name in names:
                fn = getattr(module, name)
                self._saved.append((module, name, fn))
                if layer == "kernel":
                    wrapper = self._leaf(layer, name, fn)
                else:
                    record_of = _record_id if name == "verify_identity" else None
                    wrapper = self._wrap(layer, name, fn, record_of)
                setattr(module, name, wrapper)

    def uninstall(self) -> None:
        while self._saved:
            module, name, fn = self._saved.pop()
            setattr(module, name, fn)

    def call(self, layer: str, name: str, fn, *args):
        """Run fn(*args) inside a span of its own (the root of a request)."""
        return self._wrap(layer, name, fn, None)(*args)

    def _wrap(self, layer, name, fn, record_of):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            outer = self._record
            if record_of is not None:
                self._record = record_of(*args, **kwargs)
            span = [layer, name, 0.0, 0.0, stack[-1] if stack else -1, self._record, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                span[ERROR] = type(exc).__name__
                raise
            finally:
                span[END] = clock()
                stack.pop()
                self._record = outer

        return wrapper

    def _leaf(self, layer, name, fn):
        # Kernel calls have no children: record the span once they return.
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def leaf(*args):
            t0 = clock()
            try:
                return fn(*args)
            finally:
                spans.append((layer, name, t0, clock(), stack[-1], self._record, None))

        return leaf

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span,parent,layer,name,start_s,end_s,record,error\n")
            for i, s in enumerate(self.spans):
                fh.write(
                    f"{i},{s[PARENT]},{s[LAYER]},{s[NAME]},{s[START]!r},{s[END]!r},"
                    f"\"{s[RECORD] or ''}\",{s[ERROR] or ''}\n"
                )


def summarize(spans: list) -> dict:
    """Per-layer counts and self times (seconds) of one traced pass.

    A span's self time is its duration minus the durations of its direct
    children, so the self times of all spans add up to the root spans'
    durations.  Children run inside their parent, one after another, so
    no self time is negative; ``min_self_s`` is the smallest one, or 0.
    """
    n = len(spans)
    child = [0.0] * n
    for s in spans:
        if s[PARENT] >= 0:
            child[s[PARENT]] += s[END] - s[START]
    self_s: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    under_cf = [False] * n  # below a closed_forms span
    quad_root = [-1] * n  # the outermost quad span above, if any
    out = defaultdict(int)  # counts, and durations in seconds (the *_s keys)
    out["min_self_s"] = 0.0
    for i, s in enumerate(spans):
        layer, parent = s[LAYER], s[PARENT]
        dur = s[END] - s[START]
        self_s[layer] += dur - child[i]
        out["min_self_s"] = min(out["min_self_s"], dur - child[i])
        p_layer = spans[parent][LAYER] if parent >= 0 else None
        if p_layer != layer:
            calls[layer] += 1
        if parent >= 0:
            under_cf[i] = under_cf[parent] or p_layer == "closed_forms"
            quad_root[i] = quad_root[parent]
        if layer == "quad" and p_layer != "quad":
            quad_root[i] = i
            if s[ERROR] == "NonConvergenceError":
                out["quad.nonconverged"] += 1
        if layer == "cli":
            out["wall_s"] += dur
        elif layer == "verify":
            if s[NAME] == "default_registry":
                out["verify.registry_s"] += dur
            if s[NAME] == "verify_identity":
                out["verify.records"] += 1
        elif layer == "kernel":
            out["kernel.panel_calls"] += 1
            out["closed_forms.quad_panels" if under_cf[i] else "quad.panels"] += 1
            root = quad_root[i]
            if root >= 0 and spans[root][ERROR] is not None:
                out["wasted_panels"] += 1
    out["self_s"] = dict(self_s)
    out["calls"] = dict(calls)
    return dict(out)
