"""Command-line interface.

Subcommands: class, table, count, fibers, decompose, verify. All output
is deterministic (identical invocations produce identical bytes) and
starts only after computation finishes. Class, table and verify JSON is
written as text (:meth:`motivic.MotivicClass.to_json`, the table row by
row, and :meth:`verify.VerificationReport.to_json`); the rest takes ``json.dumps``.

Exit status: 0 success, 1 verification failure, 2 usage error, 3 budget
refusal, 4 output not written (quietly for a closed pipe). Only the
commands that enumerate (count --brute-force, fibers, verify) read the
budget: --budget if given, else the SYMRANK_BUDGET environment variable,
else the library default. The oracle rejects a budget below 0 or above
2^63 - 1.
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
EXIT_OUTPUT = 4


class UsageError(ValueError):
    pass


def _budget(args) -> int:
    """--budget if given, else SYMRANK_BUDGET, else the library default;
    :mod:`ffield` checks its range."""
    if args.budget is not None:
        return args.budget
    raw = os.environ.get(BUDGET_ENV)
    if raw is None:
        return ffield.DEFAULT_BUDGET
    try:
        return int(raw)
    except ValueError:
        raise UsageError(f"{BUDGET_ENV} must be an integer, got {raw!r}")


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


def _class_from_args(args) -> motivic.MotivicClass:
    n = args.n
    if n < 0:
        raise UsageError(f"--n must be >= 0, got {n}")
    if args.projective_full:
        if args.route is not None:
            raise UsageError("--route does not apply to --projective-full")
        if n < 1:
            raise UsageError(f"--projective-full needs --n >= 1, got {n}")
        return motivic.projective_full_rank(n)
    route = args.route or motivic.ROUTE_RECURSION
    if args.range is not None:
        k, l = args.range
        return motivic.class_range(n, k, l, route=route)
    if args.at_most is not None:
        return motivic.class_at_most(n, args.at_most, route=route)
    return motivic.class_exact(n, args.k, route)


def cmd_class(args) -> int:
    cls = _class_from_args(args)
    if args.format == "json":
        print(cls.to_json())
    elif args.format == "latex":
        print(cls.value.latex())
    else:
        print(cls.value)
    return EXIT_OK


def cmd_table(args) -> int:
    if args.max_n < 0:
        raise UsageError("--max-n must be >= 0")
    rows = [
        (n, k, motivic.class_exact(n, k, args.route))
        for n in range(0, args.max_n + 1)
        for k in range(0, n + 1)
    ]
    if args.format == "json":
        out = sys.stdout
        out.write("[\n")
        for i, (_, _, c) in enumerate(rows):
            if i:
                out.write(",\n")
            out.write(c.to_json("  "))
        out.write("\n]\n")
    elif args.format == "csv":
        print("n,k,polynomial")
        for n, k, c in rows:
            print(f"{n},{k},{c.value}")
    elif args.format == "latex":
        print(r"\begin{tabular}{rrl}", r"$n$ & $k$ & class \\", r"\hline", sep="\n")
        for n, k, c in rows:
            print(rf"{n} & {k} & ${c.value.latex()}$ \\")
        print(r"\end{tabular}")
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
        brute = sum(hist.counts[m] for m in cls.descriptor.ranks())
    verdict = "MATCH" if brute == formula else "MISMATCH"
    print(f"formula: {formula}")
    print(f"brute-force: {brute}")
    print(f"verdict: {verdict}")
    return EXIT_OK if verdict == "MATCH" else EXIT_VERIFICATION_FAILURE


def cmd_fibers(args) -> int:
    field = ffield.PrimeField(args.p)
    if args.n < 1:
        raise UsageError(f"--n must be >= 1, got {args.n}")
    rows = verify.fiber_rows(args.n, field, _budget(args), {})
    rows = [(*row, "MATCH" if row[2] == row[3] else "MISMATCH") for row in rows]
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
        # Numbers right-aligned, each column as wide as its widest entry.
        table = [("minor_rank", "full_rank", "count", "expected", "verdict")]
        table += [tuple(map(str, row)) for row in rows]
        widths = [max(len(line[i]) for line in table) for i in range(4)]
        for line in table:
            print("  ".join([cell.rjust(w) for cell, w in zip(line, widths)] + [line[4]]))
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
    repeated = sorted({p for p in args.primes if args.primes.count(p) > 1})
    if repeated:
        raise UsageError(f"--primes repeats {', '.join(map(str, repeated))}")
    report = verify.run_full_suite(symbolic_max_n, counting_max_n, args.primes, _budget(args))
    if args.format == "json":
        print(report.to_json())
    else:
        print(verify.summary_table(report), end="")
    return EXIT_VERIFICATION_FAILURE if report.has_failures else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
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
    p_class.add_argument("--route", choices=motivic.ROUTES)
    p_class.add_argument("--format", choices=["text", "json", "latex"], default="text")
    p_class.set_defaults(func=cmd_class)

    p_table = sub.add_parser("table", help="all exact-rank classes up to a size")
    p_table.add_argument("--max-n", type=int, required=True)
    p_table.add_argument("--route", choices=motivic.ROUTES, default="recursion")
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
    p_count.add_argument("--route", choices=motivic.ROUTES)
    p_count.add_argument("--budget", type=int)
    p_count.set_defaults(func=cmd_count)

    p_fibers = sub.add_parser("fibers", help="(minor rank, full rank) census with verdicts")
    p_fibers.add_argument("--n", type=int, required=True)
    p_fibers.add_argument("--p", type=int, required=True, help="odd prime modulus")
    p_fibers.add_argument("--format", choices=["text", "json", "csv"], default="text")
    p_fibers.add_argument("--budget", type=int)
    p_fibers.set_defaults(func=cmd_fibers)

    p_dec = sub.add_parser("decompose", help="candidate Tate summands of an exact-rank class")
    p_dec.add_argument("--n", type=int, required=True)
    p_dec.add_argument("--k", type=int, required=True)
    p_dec.add_argument("--format", choices=["text", "json"], default="text")
    p_dec.set_defaults(func=cmd_decompose)

    p_verify = sub.add_parser("verify", help="run the full verification suite")
    p_verify.add_argument("--max-n", type=int, default=None, help="cap both symbolic and counting depth")
    p_verify.add_argument("--primes", type=int, nargs="+", default=list(verify.DEFAULT_PRIMES))
    p_verify.add_argument("--budget", type=int)
    p_verify.add_argument("--format", choices=["text", "json"], default="text")
    p_verify.set_defaults(func=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        status = args.func(args)
        sys.stdout.flush()  # here, not at exit, so that a failure is caught
        return status
    except BrokenPipeError:
        try:  # the reader is gone: the flush at exit goes to the null device
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        except (AttributeError, OSError, ValueError):
            pass  # no file descriptor behind this stdout
        return EXIT_OUTPUT
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return EXIT_OUTPUT
    except ffield.BudgetExceeded as exc:
        # An explicit --budget wins over the variable, so only it can help then.
        hint = "--budget" if args.budget is not None else f"--budget or {BUDGET_ENV}"
        print(f"error: {exc} (raise it with {hint})", file=sys.stderr)
        return EXIT_BUDGET
    except (UsageError, ffield.OddPrimeRequired, ffield.InvalidBudget, motivic.InvalidRange) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
