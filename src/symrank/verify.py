"""Cross-checks between the symbolic layer and the counting oracle.

Each verifier walks a deterministic parameter grid and emits one result
per grid point: pass, fail (with both rendered values) or skipped (with
the reason, always a budget or precondition). Whether a counting check
runs is decided purely by the arithmetic size p^(n(n+1)/2) against the
budget, never by wall clock, so identical invocations produce identical
reports on any machine.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from json import dumps
from json.encoder import encode_basestring_ascii as enc

from . import ffield, motivic
from .laurent import L, ZERO, NonzeroRemainder, monomial, shifted_sum

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
            "results": [asdict(r) for r in self.results],
        }

    def to_json(self) -> str:
        """``json.dumps(self.to_json_dict(), indent=2)``, built as text like
        :meth:`motivic.MotivicClass.to_json`: string leaves take the C
        ``encode_basestring_ascii`` that ``json.dumps`` of a str ends in,
        params the ``d`` format; no leaf pays for a ``json.dumps`` call."""
        head = dumps({"config": dict(self.config), "summary": self.summary}, indent=2)
        rows = []
        for r in self.results:
            params = ",\n        ".join(f"{enc(k)}: {v:d}" for k, v in r.params.items())
            params = f"{{\n        {params}\n      }}" if params else "{}"
            rows.append(
                f'    {{\n      "check_id": {enc(r.check_id)},\n      "params": {params},\n'
                f'      "status": {enc(r.status)},\n      "expected": {enc(r.expected)},\n'
                f'      "actual": {enc(r.actual)},\n      "reason": {enc(r.reason)}\n    }}'
            )
        results = "[\n" + ",\n".join(rows) + "\n  ]" if rows else "[]"
        return f'{head[:-2]},\n  "results": {results}\n}}'


def _check(check_id: str, params: dict[str, int], expected, actual) -> CheckResult:
    # Equal values of the same kind render alike: a pass renders once.
    expected_s = str(expected)
    if expected == actual:
        return CheckResult(check_id, params, STATUS_PASS, expected_s, expected_s)
    return CheckResult(check_id, params, STATUS_FAIL, expected_s, str(actual))


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
    """Closed form == recursion for every stratum, the bundle identity
    of the rank-<=k locus for 0 < k < n, the full-rank product identity,
    and the partition of affine space, all as exact polynomial
    equalities up to size ``max_n``. Bundles sum the kept row n - 1 by running
    prefix; the at-most side is still :func:`motivic.class_at_most`. A
    closed form whose divisions leave a remainder fails its check."""
    if max_n < 0:
        raise ValueError(f"max_n must be >= 0, got {max_n}")
    results: list[CheckResult] = []
    row: list = []  # row n's recursion values, by rank
    for n in range(0, max_n + 1):
        prev, row = row, []
        for k in range(0, n + 1):
            rec = motivic.class_exact(n, k).value
            try:
                closed = motivic.closed_form(n, k).value
            except NonzeroRemainder as exc:  # a mistranscribed formula
                closed = f"{type(exc).__name__}: {exc}"
            results.append(_check("closed_form_equals_recursion", {"n": n, "k": k}, rec, closed))
            row.append(rec)
        affine = monomial(1, n * (n + 1) // 2)
        stratum_sum = shifted_sum((rec, 0, 1) for rec in row)
        results.append(_check("strata_sum_to_affine_space", {"n": n}, affine, stratum_sum))
        below = ZERO  # [n - 1, <= k - 2], the running prefix of row n - 1
        for k in range(1, n):
            # The minor projection splits the rank-<=k locus into three
            # affine bundles over the strata of size n - 1.
            bundles = shifted_sum(((below, n, 1), (prev[k - 1], k, 1), (prev[k], k, 1)))
            at_most = motivic.class_at_most(n, k).value
            results.append(_check("at_most_bundle", {"n": n, "k": k}, at_most, bundles))
            below = below + prev[k - 1]
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
    fields = [ffield.PrimeField(p) for p in primes]
    histograms = {} if histograms is None else histograms
    results: list[CheckResult] = []
    checks = ("point_count_histogram",)
    for n, f, params in _counting_grid(range(max_n + 1), fields, budget, checks, results):
        counted = list(_rank_counts(histograms, n, f, budget).counts)
        predicted = [motivic.point_count(motivic.class_exact(n, k), f.p) for k in range(n + 1)]
        results.append(_check("point_count_histogram", params, predicted, counted))
    return VerificationReport(results, {"max_n": max_n, "primes": [f.p for f in fields], "budget": budget})


def fiber_rows(
    n: int, f: ffield.PrimeField, budget: int, histograms: Histograms
) -> list[tuple[int, int, int, int]]:
    """(minor rank, full rank, counted, expected) for every bucket that the
    (n, p) fiber census, enumerated afresh, or :func:`expected_fiber_table`
    fills, in key order; the minor histogram is read from or added to ``histograms``."""
    census = ffield.fiber_census(n, f, budget)
    expected = expected_fiber_table(n, f.p, _rank_counts(histograms, n - 1, f, budget).counts)
    return [
        (r, s, census.table.get((r, s), 0), expected.get((r, s), 0))
        for r, s in sorted(census.table.keys() | expected.keys())
    ]


def verify_fibers(
    max_n: int,
    primes,
    budget: int = ffield.DEFAULT_BUDGET,
    histograms: Histograms | None = None,
) -> VerificationReport:
    """Fiber census bucket and marginal checks for every in-budget (n, p).

    Buckets pass when every row of :func:`fiber_rows` has counted ==
    expected. Marginals: summing the census over minor rank reproduces
    the full histogram; summing over full rank gives p^n times the minor
    histogram. The census and the histograms (from and to
    ``histograms``) differ in walk and kernel; see :mod:`symrank.ffield`.
    """
    fields = [ffield.PrimeField(p) for p in primes]
    histograms = {} if histograms is None else histograms
    results: list[CheckResult] = []
    checks = ("fiber_buckets", "fiber_marginals")
    for n, f, params in _counting_grid(range(1, max_n + 1), fields, budget, checks, results):
        rows = fiber_rows(n, f, budget, histograms)
        expected = [((r, s), e) for r, s, _, e in rows if e]
        counted = [((r, s), c) for r, s, c, _ in rows if c]
        results.append(_check("fiber_buckets", params, expected, counted))
        full_marginal = [0] * (n + 1)
        minor_marginal = [0] * n
        for r, s, c, _ in rows:
            full_marginal[s] += c
            minor_marginal[r] += c
        expected_marginals = (
            list(_rank_counts(histograms, n, f, budget).counts),
            [f.p**n * n_r for n_r in _rank_counts(histograms, n - 1, f, budget).counts],
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
    for every in-budget (n, p), read off the (shared) histogram. Both read
    one :func:`motivic.projective_full_rank` per n; an n without one fails
    divisibility and skips its counts. A full-rank count that p - 1 does
    not divide fails its ``projective_count`` point."""
    fields = [ffield.PrimeField(p) for p in primes]
    histograms = {} if histograms is None else histograms
    results: list[CheckResult] = []
    quotients: dict[int, motivic.MotivicClass] = {}
    for n in range(1, max_n + 1):
        try:
            quotients[n] = motivic.projective_full_rank(n)
        except NonzeroRemainder as exc:  # a formula bug; anything else propagates
            expected, actual = "exact division by L - 1", f"{type(exc).__name__}: {exc}"
        else:
            expected, actual = motivic.class_exact(n, n).value, quotients[n].value * (L - 1)
        results.append(_check("projective_divisibility", {"n": n}, expected, actual))
    checks = ("projective_count",)
    for n, f, params in _counting_grid(range(1, max_n + 1), fields, budget, checks, results):
        if n not in quotients:
            results.append(_skip("projective_count", params, "[n, n] is not divisible by L - 1"))
            continue
        predicted = motivic.point_count(quotients[n], f.p)
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

    A budget out of range raises :class:`ffield.InvalidBudget`, a modulus
    that is not a supported odd prime :class:`ffield.OddPrimeRequired`, and
    a prime given twice ``ValueError``, before any check runs. The counting
    verifiers share one histogram per (n, p), enumerated once in this call
    and dropped when it returns.
    """
    ffield._check_budget(budget)
    for p in primes:
        ffield.PrimeField(p)
    repeated = sorted({p for p in primes if primes.count(p) > 1})
    if repeated:
        raise ValueError(f"primes repeat {', '.join(map(str, repeated))}")
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
    tallies: dict[str, dict[str, int]] = {}  # in order of first appearance
    for r in report.results:
        t = tallies.setdefault(r.check_id, {STATUS_PASS: 0, STATUS_FAIL: 0, STATUS_SKIPPED: 0})
        t[r.status] += 1
    width = max([len(c) for c in tallies] + [len("total")])
    lines = [f"{'check':<{width}}  pass  fail  skip"]
    for check_id, t in [*tallies.items(), ("total", report.summary)]:
        lines.append(
            f"{check_id:<{width}}  {t[STATUS_PASS]:>4}  {t[STATUS_FAIL]:>4}  {t[STATUS_SKIPPED]:>4}"
        )
    for r in report.results:
        if r.status == STATUS_FAIL:
            lines.append(
                f"FAIL {r.check_id} {r.params}: expected {r.expected}, got {r.actual}"
            )
    lines.append("result: FAIL" if report.has_failures else "result: PASS")
    return "\n".join(lines) + "\n"
