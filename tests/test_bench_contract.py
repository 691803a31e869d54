"""The names the benchmark traces exist in the program, with the shape it
reads them by.

``perfbench/spans.py`` wraps module functions and methods of the
polynomial class by name, and ``perfbench/run.py`` reports a metric whose
function has left the program as absent rather than failing. So a rename
or a removal in ``src/`` would silently drop a per-layer metric that
``BENCHMARK.json`` declares. These tests resolve every such metric the way
``Tracer.install`` looks its function up. The harness file is read, never
imported from its directory or written to.
"""

import inspect
import json
import types
from pathlib import Path

import pytest

from symrank import cli, ffield, motivic, verify

ROOT = Path(__file__).resolve().parents[1]
MODULES = {"cli": cli, "verify": verify, "ffield": ffield, "motivic": motivic}


def load_spans() -> types.ModuleType:
    path = ROOT / "perfbench" / "spans.py"
    module = types.ModuleType("perfbench_spans")
    exec(compile(path.read_text(), str(path), "exec"), module.__dict__)
    return module


SPANS = load_spans()
PER_LAYER = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]
POLY_CLS = type(motivic.class_exact(1, 1).value)


def traced_names() -> set[str]:
    """Every traced name the harness can install."""
    names = {f"{layer}.{attr}" for layer, attrs in SPANS.MODULE_TARGETS.items() for attr in attrs}
    names |= {f"laurent.{short}" for short in SPANS.POLYNOMIAL_METHODS.values()}
    return names | {"verify.to_json"}


def functions_read(metric: str) -> list[str]:
    """The traced names whose spans a per-layer metric is computed from."""
    if metric in SPANS.ALIASES:
        return [SPANS.ALIASES[metric]]
    if metric == "laurent.render.s":
        return ["laurent.str", "laurent.latex", "laurent.to_json_dict"]
    if metric.startswith("ffield.hist_rate.") or metric in ("ffield.visits", "verify.visits_per_distinct"):
        return ["ffield.enumerate_rank_counts"]
    if metric.startswith("ffield.fiber_rate."):
        return ["ffield.fiber_census"]
    for suffix in (".calls", ".s"):
        if metric.endswith(suffix):
            base = metric[: -len(suffix)]
            assert base in traced_names(), f"{metric}: the harness traces no {base}"
            return [base]
    return []  # shares, self times and workload totals


def owners(name: str) -> list[tuple[object, str]]:
    """(owner, attribute) pairs that ``Tracer.install`` wraps for a traced name."""
    layer, attr = name.split(".", 1)
    if name == "verify.to_json":
        return [(verify.VerificationReport, "to_json")]
    if layer == "laurent":
        return [(POLY_CLS, a) for a, short in SPANS.POLYNOMIAL_METHODS.items() if short == attr]
    return [(MODULES[layer], attr)]


CONTRACT = sorted({name for metric in PER_LAYER for name in functions_read(metric)})


def test_contract_covers_every_layer():
    layers = {name.split(".")[0] for name in CONTRACT}
    assert layers == {"verify", "ffield", "motivic", "laurent"}
    assert "ffield.projective_count" in CONTRACT


@pytest.mark.parametrize("name", CONTRACT)
def test_traced_function_resolves(name):
    pairs = owners(name)
    assert pairs
    for owner, attr in pairs:
        # Looked up in the owner's own namespace, as the tracer does: an
        # inherited or forwarded attribute would not be wrapped.
        assert callable(vars(owner).get(attr)), f"{name}: no {attr} in {owner!r}"


@pytest.mark.parametrize("name", SPANS.SHAPED)
def test_shaped_functions_take_n_and_field_first(name):
    layer, attr = name.split(".")
    params = list(inspect.signature(vars(MODULES[layer])[attr]).parameters)
    assert params[:2] == ["n", "field"]
