"""Cross-checks between the symbolic layer and the counting oracle.

Each verifier walks a deterministic parameter grid and emits one result
per grid point: pass, fail (with both rendered values) or skipped (with
the reason, always a budget or precondition). Whether a counting check
runs is decided purely by the arithmetic size p^(n(n+1)/2) against the
budget, never by wall clock, so identical invocations produce identical
reports on any machine.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from . import ffield, motivic
from .laurent import L, ZERO, monomial

#: Symbolic identities are cheap; check them this deep by default.
SYMBOLIC_MAX_N = 12
#: Counting checks run as far as the budget lets them at these sizes.
COUNTING_MAX_N = 5
DEFAULT_PRIMES = (3, 5, 7)

STATUS_PASS = "pass"
STATUS_FAIL = "fail"
STATUS_SKIPPED = "skipped"


@dataclass(frozen=True)
class CheckResult:
    check_id: str
    params: dict[str, int]
    status: str
    expected: str = ""
    actual: str = ""
    reason: str = ""

    def to_json_dict(self) -> dict:
        return {
            "check_id": self.check_id,
            "params": dict(self.params),
            "status": self.status,
            "expected": self.expected,
            "actual": self.actual,
            "reason": self.reason,
        }


@dataclass
class VerificationReport:
    results: list[CheckResult]
    config: dict = field(default_factory=dict)

    @property
    def summary(self) -> dict[str, int]:
        out = {STATUS_PASS: 0, STATUS_FAIL: 0, STATUS_SKIPPED: 0}
        for r in self.results:
            out[r.status] += 1
        return out

    @property
    def has_failures(self) -> bool:
        return any(r.status == STATUS_FAIL for r in self.results)

    def to_json_dict(self) -> dict:
        return {
            "config": dict(self.config),
            "summary": self.summary,
            "results": [r.to_json_dict() for r in self.results],
        }

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_json_dict(), indent=indent)


def _check(check_id: str, params: dict[str, int], expected, actual) -> CheckResult:
    expected_s, actual_s = str(expected), str(actual)
    status = STATUS_PASS if expected == actual else STATUS_FAIL
    return CheckResult(check_id, params, status, expected_s, actual_s)


def _skip(check_id: str, params: dict[str, int], reason: str) -> CheckResult:
    return CheckResult(check_id, params, STATUS_SKIPPED, reason=reason)


def _counting_grid(ns, fields, budget: int, check_ids, results: list[CheckResult]):
    """The (n, field, params) points of the grid ``ns`` x ``fields`` whose
    space fits ``budget``, in grid order. Each other point instead gets
    one skip result per check in ``check_ids``, appended to ``results``."""
    for n in ns:
        for f in fields:
            params = {"n": n, "p": f.p}
            try:
                ffield._space_size(n, f.p, budget)
            except ffield.BudgetExceeded as exc:
                reason = f"requires {exc.required} matrix visits, budget is {exc.budget}"
                results.extend(_skip(check_id, params, reason) for check_id in check_ids)
                continue
            yield n, f, params


def _validate_primes(primes) -> list[ffield.PrimeField]:
    return [ffield.PrimeField(p) for p in primes]


#: Rank histograms already enumerated, by (n, p).
Histograms = dict[tuple[int, int], ffield.RankHistogram]


def _rank_counts(
    histograms: Histograms, n: int, f: ffield.PrimeField, budget: int
) -> ffield.RankHistogram:
    """The (n, p) histogram, enumerated on first use."""
    key = (n, f.p)
    if key not in histograms:
        histograms[key] = ffield.enumerate_rank_counts(n, f, budget)
    return histograms[key]


def expected_fiber_table(n: int, p: int, minor_counts) -> dict[tuple[int, int], int]:
    """The (minor rank, full rank) census that the minor histogram
    predicts: each of the N_r rank-r minors has p^r, p^r (p-1) and
    p^n - p^(r+1) completions of full rank r, r+1 and r+2. Empty buckets
    are omitted."""
    table: dict[tuple[int, int], int] = {}
    for r, n_r in enumerate(minor_counts):
        if n_r == 0:
            continue
        for s, per_minor in (
            (r, p**r),
            (r + 1, p**r * (p - 1)),
            (r + 2, p**n - p ** (r + 1)),
        ):
            if s <= n and per_minor * n_r:
                table[(r, s)] = per_minor * n_r
    return table


def verify_formula_vs_recursion(max_n: int) -> VerificationReport:
    """Closed form == recursion for every stratum, the full-rank product
    identity, and the partition of affine space, all as exact polynomial
    equalities up to size ``max_n``."""
    if max_n < 0:
        raise ValueError(f"max_n must be >= 0, got {max_n}")
    results: list[CheckResult] = []
    for n in range(0, max_n + 1):
        stratum_sum = ZERO
        for k in range(0, n + 1):
            rec = motivic.class_exact(n, k).value
            closed = motivic.closed_form(n, k).value
            results.append(_check("closed_form_equals_recursion", {"n": n, "k": k}, rec, closed))
            stratum_sum = stratum_sum + rec
        affine = monomial(1, n * (n + 1) // 2)
        results.append(_check("strata_sum_to_affine_space", {"n": n}, affine, stratum_sum))
        if n >= 1:
            results.append(
                _check(
                    "full_rank_product_equals_recursion",
                    {"n": n},
                    motivic.class_exact(n, n).value,
                    motivic.full_rank_product(n).value,
                )
            )
    return VerificationReport(results, {"max_n": max_n})


def verify_point_counts(
    max_n: int,
    primes,
    budget: int = ffield.DEFAULT_BUDGET,
    histograms: Histograms | None = None,
) -> VerificationReport:
    """Exhaustive rank histograms against the polynomial values at L = p
    for every in-budget (n, p). Histograms found in ``histograms`` are
    reused and new ones are added to it."""
    fields = _validate_primes(primes)
    histograms = {} if histograms is None else histograms
    results: list[CheckResult] = []
    checks = ("point_count_histogram",)
    for n, f, params in _counting_grid(range(max_n + 1), fields, budget, checks, results):
        counted = list(_rank_counts(histograms, n, f, budget).counts)
        predicted = [motivic.point_count(motivic.class_exact(n, k), f.p) for k in range(n + 1)]
        results.append(_check("point_count_histogram", params, predicted, counted))
    return VerificationReport(results, {"max_n": max_n, "primes": [f.p for f in fields], "budget": budget})


def verify_fibers(
    max_n: int,
    primes,
    budget: int = ffield.DEFAULT_BUDGET,
    histograms: Histograms | None = None,
) -> VerificationReport:
    """Fiber census bucket and marginal checks for every in-budget (n, p).

    Buckets: with N_r the enumerated count of rank-r minors, the census
    must read p^r * N_r, p^r (p-1) * N_r and (p^n - p^(r+1)) * N_r at
    full ranks r, r+1, r+2. Marginals: summing the census over minor
    rank reproduces the full histogram; summing over full rank gives
    p^n * N_r. The census is always enumerated afresh, with the whole-
    matrix kernel, while the histograms use bordered elimination, so the
    marginals compare two independent walks and two rank kernels; the
    histograms come from (and go to) ``histograms``.
    """
    fields = _validate_primes(primes)
    histograms = {} if histograms is None else histograms
    results: list[CheckResult] = []
    checks = ("fiber_buckets", "fiber_marginals")
    for n, f, params in _counting_grid(range(1, max_n + 1), fields, budget, checks, results):
        p = f.p
        census = ffield.fiber_census(n, f, budget)
        minor_hist = _rank_counts(histograms, n - 1, f, budget)
        expected_table = expected_fiber_table(n, p, minor_hist.counts)
        results.append(
            _check("fiber_buckets", params, sorted(expected_table.items()), sorted(census.table.items()))
        )
        full_hist = _rank_counts(histograms, n, f, budget)
        full_marginal = [0] * (n + 1)
        minor_marginal = [0] * n
        for (r, s), c in census.table.items():
            full_marginal[s] += c
            minor_marginal[r] += c
        expected_marginals = (
            list(full_hist.counts),
            [p**n * n_r for n_r in minor_hist.counts],
        )
        results.append(
            _check(
                "fiber_marginals",
                params,
                expected_marginals,
                (full_marginal, minor_marginal),
            )
        )
    return VerificationReport(results, {"max_n": max_n, "primes": [f.p for f in fields], "budget": budget})


def verify_projective(
    max_n: int,
    primes,
    budget: int = ffield.DEFAULT_BUDGET,
    histograms: Histograms | None = None,
) -> VerificationReport:
    """(L - 1) divides the full-rank class symbolically for every n, and
    the quotient evaluated at p matches the enumerated projective count
    for every in-budget (n, p), read off the (shared) histogram."""
    fields = _validate_primes(primes)
    histograms = {} if histograms is None else histograms
    results: list[CheckResult] = []
    for n in range(1, max_n + 1):
        value = motivic.class_exact(n, n).value
        try:
            quotient = value.div_exact(L - 1)
            results.append(
                _check(
                    "projective_divisibility",
                    {"n": n},
                    value,
                    quotient * (L - 1),
                )
            )
        except Exception as exc:  # NonzeroRemainder would be a formula bug
            results.append(
                CheckResult(
                    "projective_divisibility",
                    {"n": n},
                    STATUS_FAIL,
                    expected="exact division by L - 1",
                    actual=f"{type(exc).__name__}: {exc}",
                )
            )
    checks = ("projective_count",)
    for n, f, params in _counting_grid(range(1, max_n + 1), fields, budget, checks, results):
        predicted = motivic.point_count(motivic.projective_full_rank(n), f.p)
        counted = _rank_counts(histograms, n, f, budget).projective_count()
        results.append(_check("projective_count", params, predicted, counted))
    return VerificationReport(results, {"max_n": max_n, "primes": [f.p for f in fields], "budget": budget})


def run_full_suite(
    symbolic_max_n: int = SYMBOLIC_MAX_N,
    counting_max_n: int = COUNTING_MAX_N,
    primes=DEFAULT_PRIMES,
    budget: int = ffield.DEFAULT_BUDGET,
) -> VerificationReport:
    """All verifiers merged into one report, in a fixed order.

    The counting verifiers share one histogram per (n, p), enumerated
    once in this call and dropped when it returns; the fiber census
    still walks its space on its own, with its own rank kernel, so the
    fiber marginals compare two walks and two kernels.
    """
    histograms: Histograms = {}
    parts = [
        verify_formula_vs_recursion(symbolic_max_n),
        verify_point_counts(counting_max_n, primes, budget, histograms),
        verify_fibers(counting_max_n, primes, budget, histograms),
        verify_projective(symbolic_max_n, primes, budget, histograms),
    ]
    merged: list[CheckResult] = []
    for part in parts:
        merged.extend(part.results)
    config = {
        "symbolic_max_n": symbolic_max_n,
        "counting_max_n": counting_max_n,
        "primes": list(primes),
        "budget": budget,
    }
    return VerificationReport(merged, config)


def summary_table(report: VerificationReport) -> str:
    """Human-readable per-check-family tallies plus failure details."""
    order: list[str] = []
    tallies: dict[str, dict[str, int]] = {}
    for r in report.results:
        if r.check_id not in tallies:
            order.append(r.check_id)
            tallies[r.check_id] = {STATUS_PASS: 0, STATUS_FAIL: 0, STATUS_SKIPPED: 0}
        tallies[r.check_id][r.status] += 1
    width = max([len(c) for c in order] + [len("total")])
    lines = [f"{'check':<{width}}  pass  fail  skip"]
    for check_id in order:
        t = tallies[check_id]
        lines.append(
            f"{check_id:<{width}}  {t[STATUS_PASS]:>4}  {t[STATUS_FAIL]:>4}  {t[STATUS_SKIPPED]:>4}"
        )
    s = report.summary
    lines.append(
        f"{'total':<{width}}  {s[STATUS_PASS]:>4}  {s[STATUS_FAIL]:>4}  {s[STATUS_SKIPPED]:>4}"
    )
    for r in report.results:
        if r.status == STATUS_FAIL:
            lines.append(
                f"FAIL {r.check_id} {r.params}: expected {r.expected}, got {r.actual}"
            )
    lines.append("result: FAIL" if report.has_failures else "result: PASS")
    return "\n".join(lines) + "\n"
