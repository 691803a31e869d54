"""Span tracing of symrank's public functions, installed from outside.

The tracer replaces module attributes and class methods with timing
wrappers and restores the originals on :meth:`Tracer.uninstall`, so the
program itself carries no instrumentation. A call made through a module
attribute (``ffield.enumerate_rank_counts``, also from inside ``ffield``)
or through the polynomial class (``a * b``) passes through the wrapper;
calls to private helpers are attributed to the public caller.

Spans are kept in memory as ``(name, start, end, parent, run_id)`` and
turned into per-layer metrics at the end. ``parent`` is the index of the
enclosing span or -1. Enumeration spans carry their shape in the name
(``ffield.enumerate_rank_counts:n3_p13``).
"""

from __future__ import annotations

import functools
import re
from time import perf_counter

#: Public functions traced, by layer (module) name. Entry points that no
#: workload calls yet are listed too, so that a layer's share keeps
#: counting all of its time when a caller starts using them.
MODULE_TARGETS = {
    "cli": ("main",),
    "verify": (
        "run_full_suite",
        "verify_formula_vs_recursion",
        "verify_point_counts",
        "verify_fibers",
        "verify_projective",
        "summary_table",
    ),
    "ffield": (
        "enumerate_rank_counts",
        "fiber_census",
        "projective_count",
        "completions_census",
        "partitioned_enumeration",
    ),
    "motivic": (
        "class_exact",
        "class_at_most",
        "class_range",
        "closed_form",
        "full_rank_product",
        "projective_full_rank",
        "point_count",
        "euler_characteristic",
        "tate_decomposition",
    ),
}

#: Methods of the class that holds motivic values -> traced name.
#: Reflected operators share the name of the forward one.
POLYNOMIAL_METHODS = {
    "__add__": "add",
    "__radd__": "add",
    "__sub__": "sub",
    "__rsub__": "sub",
    "__neg__": "neg",
    "__mul__": "mul",
    "__rmul__": "mul",
    "__pow__": "pow",
    "__eq__": "eq",
    "div_exact": "div_exact",
    "eval_int": "eval_int",
    "__str__": "str",
    "latex": "latex",
    "to_json_dict": "to_json_dict",
}

#: Enumerating functions, whose spans are named by (n, p).
SHAPED = ("ffield.enumerate_rank_counts", "ffield.fiber_census", "ffield.projective_count")

#: Metric name -> traced function whose inclusive time it reports.
ALIASES = {
    "verify.formula_vs_recursion_s": "verify.verify_formula_vs_recursion",
    "verify.point_counts_s": "verify.verify_point_counts",
    "verify.fibers_s": "verify.verify_fibers",
    "verify.projective_s": "verify.verify_projective",
    "verify.to_json_s": "verify.to_json",
}

_SHAPE = re.compile(r"n(\d+)_p(\d+)$")


def _shaped_name(name: str):
    def name_of(args, kwargs):
        n = args[0] if args else kwargs["n"]
        field = args[1] if len(args) > 1 else kwargs["field"]
        return f"{name}:n{n}_p{field.p}"

    return name_of


def matrices(n: int, p: int) -> int:
    """Number of symmetric n x n matrices over F_p."""
    return p ** (n * (n + 1) // 2)


class Tracer:
    """Timing wrappers over symrank's public functions, with an in-memory
    span list that outlives :meth:`uninstall`."""

    def __init__(self) -> None:
        self.spans: list = []
        self.installed: set[str] = set()
        self.run_id = 0
        self._stack: list[int] = []
        self._saved: list = []

    def _wrap(self, fn, name):
        spans, stack, tracer = self.spans, self._stack, self
        name_of = _shaped_name(name) if name in SHAPED else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name_of(args, kwargs) if name_of else name
            parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (label, start, end, parent, tracer.run_id)

        return traced

    def _install(self, owner, attr: str, name: str) -> None:
        original = vars(owner).get(attr)
        if original is None:
            return  # gone from the program: its metrics are reported absent
        self._saved.append((owner, attr, original))
        setattr(owner, attr, self._wrap(original, name))
        self.installed.add(name)

    def install(self, modules: dict) -> None:
        """Wrap the targets in ``modules`` (layer name -> module). The
        polynomial class is found from a value, not by its name."""
        poly_cls = type(modules["motivic"].class_exact(1, 1).value)
        for layer, attrs in MODULE_TARGETS.items():
            for attr in attrs:
                self._install(modules[layer], attr, f"{layer}.{attr}")
        report_cls = getattr(modules["verify"], "VerificationReport", None)
        if report_cls is not None:
            self._install(report_cls, "to_json", "verify.to_json")
        for attr, short in POLYNOMIAL_METHODS.items():
            self._install(poly_cls, attr, f"laurent.{short}")

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        self._stack.clear()


def span_metrics(spans: list, run_id: int, installed: set[str], run_s: float) -> dict:
    """Per-layer metrics of one traced iteration.

    ``X.calls`` counts every call of X; ``X.s`` is the time inside X not
    already inside an outer call of X; a layer's share is its inclusive
    time (spans with no ancestor in the same layer) over ``run_s``.
    Rates are matrices per second inside one function, per (n, p) shape.
    """
    idx = [i for i, s in enumerate(spans) if s is not None and s[4] == run_id]
    child = {}
    for i in idx:
        _, start, end, parent, _ = spans[i]
        if parent >= 0:
            child[parent] = child.get(parent, 0.0) + (end - start)

    def ancestors(i):
        parent = spans[i][3]
        while parent >= 0:
            yield spans[parent][0]
            parent = spans[parent][3]

    calls: dict[str, int] = {name: 0 for name in installed}
    inclusive: dict[str, float] = {name: 0.0 for name in installed}
    layer_incl: dict[str, float] = {}
    layer_self: dict[str, float] = {}
    rates: dict[str, list] = {}  # rate metric -> [matrices, seconds]
    visits = 0
    distinct_shapes: set[tuple[int, int]] = set()

    for i in idx:
        label, start, end, _, _ = spans[i]
        dur = end - start
        base = label.split(":")[0]
        layer = base.split(".")[0]
        up = [a.split(":")[0] for a in ancestors(i)]
        calls[base] = calls.get(base, 0) + 1
        if base not in up:
            inclusive[base] = inclusive.get(base, 0.0) + dur
        if not any(a.split(".")[0] == layer for a in up):
            layer_incl[layer] = layer_incl.get(layer, 0.0) + dur
        layer_self[layer] = layer_self.get(layer, 0.0) + dur - child.get(i, 0.0)
        shape = _SHAPE.search(label)
        if shape is None or base == "ffield.projective_count":
            continue
        n, p = int(shape[1]), int(shape[2])
        if base == "ffield.enumerate_rank_counts":
            spaces, rate = [(n, p)], f"ffield.hist_rate.n{n}_p{p}"
        else:  # fiber census: the minor space, then the full space
            spaces, rate = [(n - 1, p), (n, p)], f"ffield.fiber_rate.n{n}_p{p}"
        work = sum(matrices(*s) for s in spaces)
        acc = rates.setdefault(rate, [0, 0.0])
        acc[0] += work
        acc[1] += dur
        distinct_shapes.update(spaces)
        if not any(a in ("ffield.enumerate_rank_counts", "ffield.fiber_census") for a in up):
            visits += work

    out: dict[str, float | int] = {}
    for name in installed:
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.s"] = inclusive[name]
    for layer in MODULE_TARGETS.keys() | {"laurent"}:
        out[f"{layer}.share"] = layer_incl.get(layer, 0.0) / run_s
        out[f"{layer}.self_s"] = layer_self.get(layer, 0.0)
    for alias, name in ALIASES.items():
        if name in installed:
            out[alias] = inclusive[name]
    render = [f"laurent.{m}" for m in ("str", "latex", "to_json_dict")]
    if all(m in installed for m in render):
        out["laurent.render.s"] = sum(inclusive[m] for m in render)
    if "ffield.enumerate_rank_counts" in installed:
        distinct = sum(matrices(*s) for s in distinct_shapes)
        out["ffield.visits"] = visits
        out["verify.visits_per_distinct"] = visits / distinct if distinct else 0.0
    for rate, (work, seconds) in rates.items():
        out[rate] = work / seconds
    return out
