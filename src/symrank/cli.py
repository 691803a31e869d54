"""Command-line interface.

Subcommands: class, table, count, fibers, decompose, verify. All output
is deterministic (identical invocations produce identical bytes) and is
emitted from a single writer after computation finishes.

Exit status: 0 success, 1 verification failure, 2 usage error, 3 budget
refusal. The enumeration budget defaults to the library's cap and can be
raised with --budget or the SYMRANK_BUDGET environment variable.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import ffield, motivic, verify

BUDGET_ENV = "SYMRANK_BUDGET"

EXIT_OK = 0
EXIT_VERIFICATION_FAILURE = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3


class UsageError(ValueError):
    pass


def _default_budget() -> int:
    raw = os.environ.get(BUDGET_ENV)
    if raw is None:
        return ffield.DEFAULT_BUDGET
    try:
        return int(raw)
    except ValueError:
        raise UsageError(f"{BUDGET_ENV} must be an integer, got {raw!r}")


def _budget(args) -> int:
    if args.budget < 0:
        raise UsageError(f"budget must be >= 0, got {args.budget}")
    if args.budget > ffield.MAX_BUDGET:
        raise UsageError(f"budget must be <= {ffield.MAX_BUDGET}, got {args.budget}")
    return args.budget


def _add_rank_flags(parser: argparse.ArgumentParser) -> None:
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--k", type=int, help="exact rank k")
    group.add_argument("--at-most", type=int, metavar="K", help="rank at most K")
    group.add_argument(
        "--range", type=int, nargs=2, metavar=("K", "L"), help="rank between K and L"
    )
    group.add_argument(
        "--projective-full", action="store_true", help="full-rank matrices up to scalar"
    )


def _exact_via(route: str, n: int, k: int) -> motivic.MotivicClass:
    if route == "closed-form":
        return motivic.closed_form(n, k)
    return motivic.class_exact(n, k)


def _class_from_args(args) -> motivic.MotivicClass:
    n = args.n
    if n < 0:
        raise UsageError(f"--n must be >= 0, got {n}")
    if args.projective_full:
        if n < 1:
            raise UsageError(f"--projective-full needs --n >= 1, got {n}")
        return motivic.projective_full_rank(n)
    if args.range is not None:
        k, l = args.range
        return motivic.class_range(n, k, l, route=args.route)
    if args.at_most is not None:
        return motivic.class_at_most(n, args.at_most, route=args.route)
    return _exact_via(args.route, n, args.k)


def cmd_class(args) -> int:
    cls = _class_from_args(args)
    if args.format == "json":
        print(json.dumps(cls.to_json_dict(), indent=2))
    elif args.format == "latex":
        print(cls.value.latex())
    else:
        print(cls.value)
    return EXIT_OK


def cmd_table(args) -> int:
    if args.max_n < 0:
        raise UsageError("--max-n must be >= 0")
    rows = [
        (n, k, _exact_via(args.route, n, k))
        for n in range(0, args.max_n + 1)
        for k in range(0, n + 1)
    ]
    if args.format == "json":
        print(json.dumps([c.to_json_dict() for _, _, c in rows], indent=2))
    elif args.format == "csv":
        lines = ["n,k,polynomial"]
        lines += [f"{n},{k},{c.value}" for n, k, c in rows]
        print("\n".join(lines))
    elif args.format == "latex":
        lines = [r"\begin{tabular}{rrl}", r"$n$ & $k$ & class \\", r"\hline"]
        lines += [rf"{n} & {k} & ${c.value.latex()}$ \\" for n, k, c in rows]
        lines.append(r"\end{tabular}")
        print("\n".join(lines))
    else:
        for n, k, c in rows:
            print(f"({n},{k}): {c.value}")
    return EXIT_OK


def cmd_count(args) -> int:
    if args.q < 2:
        raise UsageError(f"--q must be >= 2, got {args.q}")
    cls = _class_from_args(args)
    formula = motivic.point_count(cls, args.q)
    if not args.brute_force:
        print(formula)
        return EXIT_OK
    try:
        field = ffield.PrimeField(args.q)
    except ffield.OddPrimeRequired as exc:
        raise ffield.OddPrimeRequired(
            f"brute force needs an odd prime q (the formula itself is fine at q={args.q}): {exc}"
        )
    budget = _budget(args)
    if args.projective_full:
        brute = ffield.projective_count(args.n, field, budget)
    else:
        hist = ffield.enumerate_rank_counts(args.n, field, budget)
        if args.range is not None:
            k, l = args.range
            brute = sum(hist.counts[m] for m in range(max(k, 0), min(l, args.n) + 1))
        elif args.at_most is not None:
            brute = sum(hist.counts[m] for m in range(0, min(args.at_most, args.n) + 1))
        else:
            brute = hist.counts[args.k] if 0 <= args.k <= args.n else 0
    verdict = "MATCH" if brute == formula else "MISMATCH"
    print(f"formula: {formula}")
    print(f"brute-force: {brute}")
    print(f"verdict: {verdict}")
    return EXIT_OK if verdict == "MATCH" else EXIT_VERIFICATION_FAILURE


def _fiber_rows(n: int, field: ffield.PrimeField, budget: int):
    census = ffield.fiber_census(n, field, budget)
    minor_hist = ffield.enumerate_rank_counts(n - 1, field, budget)
    expected = verify.expected_fiber_table(n, field.p, minor_hist.counts)
    rows = []
    for key in sorted(set(census.table) | set(expected)):
        counted = census.table.get(key, 0)
        predicted = expected.get(key, 0)
        rows.append((key[0], key[1], counted, predicted, "MATCH" if counted == predicted else "MISMATCH"))
    return rows


def cmd_fibers(args) -> int:
    field = ffield.PrimeField(args.p)
    if args.n < 1:
        raise UsageError(f"--n must be >= 1, got {args.n}")
    rows = _fiber_rows(args.n, field, _budget(args))
    if args.format == "json":
        payload = {
            "n": args.n,
            "p": args.p,
            "rows": [
                {
                    "minor_rank": r,
                    "full_rank": s,
                    "count": c,
                    "expected": e,
                    "verdict": v,
                }
                for r, s, c, e, v in rows
            ],
        }
        print(json.dumps(payload, indent=2))
    elif args.format == "csv":
        lines = ["n,p,minor_rank,full_rank,count,expected,verdict"]
        lines += [f"{args.n},{args.p},{r},{s},{c},{e},{v}" for r, s, c, e, v in rows]
        print("\n".join(lines))
    else:
        print("minor_rank  full_rank  count  expected  verdict")
        for r, s, c, e, v in rows:
            print(f"{r:>10}  {s:>9}  {c:>5}  {e:>8}  {v}")
    ok = all(v == "MATCH" for *_, v in rows)
    return EXIT_OK if ok else EXIT_VERIFICATION_FAILURE


def cmd_decompose(args) -> int:
    if not 0 <= args.k <= args.n:
        raise UsageError(f"need 0 <= k <= n, got k={args.k}, n={args.n}")
    cls = motivic.class_exact(args.n, args.k)
    summands = motivic.tate_decomposition(cls)
    status = "exact" if args.n <= 1 else "candidate"
    if args.format == "json":
        payload = {
            "n": args.n,
            "k": args.k,
            "status": status,
            "summands": [
                {"twist": s.twist, "shift": s.shift, "multiplicity": s.multiplicity}
                for s in summands
            ],
        }
        print(json.dumps(payload, indent=2))
    else:
        for s in summands:
            print(s)
        if status == "candidate":
            print("note: convention-based candidate decomposition")
    return EXIT_OK


def cmd_verify(args) -> int:
    if args.max_n is not None:
        if args.max_n < 0:
            raise UsageError("--max-n must be >= 0")
        symbolic_max_n = counting_max_n = args.max_n
    else:
        symbolic_max_n = verify.SYMBOLIC_MAX_N
        counting_max_n = verify.COUNTING_MAX_N
    report = verify.run_full_suite(symbolic_max_n, counting_max_n, args.primes, _budget(args))
    if args.format == "json":
        print(report.to_json())
    else:
        print(verify.summary_table(report), end="")
    return EXIT_VERIFICATION_FAILURE if report.has_failures else EXIT_OK


def build_parser(default_budget: int) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="symrank",
        description=(
            "Exact classes of symmetric-matrix rank strata as polynomials in L, "
            "with a brute-force finite-field counting oracle."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_class = sub.add_parser("class", help="one class as a polynomial in L")
    p_class.add_argument("--n", type=int, required=True, help="matrix size")
    _add_rank_flags(p_class)
    p_class.add_argument("--route", choices=["recursion", "closed-form"], default="recursion")
    p_class.add_argument("--format", choices=["text", "json", "latex"], default="text")
    p_class.set_defaults(func=cmd_class)

    p_table = sub.add_parser("table", help="all exact-rank classes up to a size")
    p_table.add_argument("--max-n", type=int, required=True)
    p_table.add_argument("--route", choices=["recursion", "closed-form"], default="recursion")
    p_table.add_argument("--format", choices=["text", "json", "csv", "latex"], default="text")
    p_table.set_defaults(func=cmd_table)

    p_count = sub.add_parser("count", help="point count at L = q, optionally brute-forced")
    p_count.add_argument("--n", type=int, required=True)
    _add_rank_flags(p_count)
    p_count.add_argument("--q", type=int, required=True, help="field size to evaluate at")
    p_count.add_argument(
        "--brute-force",
        action="store_true",
        help="also enumerate (odd prime q only) and compare",
    )
    p_count.add_argument("--route", choices=["recursion", "closed-form"], default="recursion")
    p_count.add_argument("--budget", type=int, default=default_budget)
    p_count.set_defaults(func=cmd_count)

    p_fibers = sub.add_parser("fibers", help="(minor rank, full rank) census with verdicts")
    p_fibers.add_argument("--n", type=int, required=True)
    p_fibers.add_argument("--p", type=int, required=True, help="odd prime modulus")
    p_fibers.add_argument("--format", choices=["text", "json", "csv"], default="text")
    p_fibers.add_argument("--budget", type=int, default=default_budget)
    p_fibers.set_defaults(func=cmd_fibers)

    p_dec = sub.add_parser("decompose", help="candidate Tate summands of an exact-rank class")
    p_dec.add_argument("--n", type=int, required=True)
    p_dec.add_argument("--k", type=int, required=True)
    p_dec.add_argument("--format", choices=["text", "json"], default="text")
    p_dec.set_defaults(func=cmd_decompose)

    p_verify = sub.add_parser("verify", help="run the full verification suite")
    p_verify.add_argument("--max-n", type=int, default=None, help="cap both symbolic and counting depth")
    p_verify.add_argument("--primes", type=int, nargs="+", default=list(verify.DEFAULT_PRIMES))
    p_verify.add_argument("--budget", type=int, default=default_budget)
    p_verify.add_argument("--format", choices=["text", "json"], default="text")
    p_verify.set_defaults(func=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        parser = build_parser(_default_budget())
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except ffield.BudgetExceeded as exc:
        print(f"error: {exc} (raise it with --budget or {BUDGET_ENV})", file=sys.stderr)
        return EXIT_BUDGET
    except (UsageError, ffield.OddPrimeRequired, motivic.InvalidRange) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
