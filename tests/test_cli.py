import errno
import hashlib
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from reference import class_json_dict
from symrank import ffield, motivic, verify
from symrank.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestClassCommand:
    def test_exact_text(self, capsys):
        code, out, _ = run(capsys, "class", "--n", "2", "--k", "2")
        assert code == 0
        assert out == "L^3 - L^2\n"

    def test_at_most_json_single_term(self, capsys):
        code, out, _ = run(capsys, "class", "--n", "3", "--at-most", "3", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["polynomial"] == {"6": "1"}
        assert payload["rank"] == {"kind": "at_most", "k": 3}

    def test_range_is_sum_of_exact_classes(self, capsys):
        code, out, _ = run(capsys, "class", "--n", "4", "--range", "1", "2")
        assert code == 0
        from symrank import motivic

        expected = motivic.class_exact(4, 1).value + motivic.class_exact(4, 2).value
        assert out == f"{expected}\n"

    def test_routes_agree(self, capsys):
        _, via_recursion, _ = run(capsys, "class", "--n", "5", "--k", "3")
        _, via_closed, _ = run(
            capsys, "class", "--n", "5", "--k", "3", "--route", "closed-form"
        )
        assert via_recursion == via_closed

    def test_deep_row_by_recursion(self, capsys):
        motivic.clear_caches()
        code, out, err = run(capsys, "class", "--n", "1000", "--k", "2")
        assert (code, err) == (0, "")
        assert out == run(capsys, "class", "--n", "1000", "--k", "2", "--route", "closed-form")[1]

    def test_projective_full(self, capsys):
        code, out, _ = run(capsys, "class", "--n", "3", "--projective-full")
        assert code == 0
        assert out == "L^5 - L^2\n"

    def test_latex_format(self, capsys):
        code, out, _ = run(capsys, "class", "--n", "2", "--k", "2", "--format", "latex")
        assert code == 0
        assert out == "L^{3} - L^{2}\n"

    def test_invalid_range_is_usage_error(self, capsys):
        code, _, err = run(capsys, "class", "--n", "4", "--range", "2", "1")
        assert code == 2
        assert "range" in err

    def test_missing_rank_condition_is_usage_error(self, capsys):
        code, _, _ = run(capsys, "class", "--n", "4")
        assert code == 2

    def test_negative_size_is_usage_error(self, capsys):
        code, _, err = run(capsys, "class", "--n", "-1", "--k", "0")
        assert code == 2
        assert err == "error: --n must be >= 0, got -1\n"
        code, _, err = run(capsys, "class", "--n", "0", "--projective-full")
        assert code == 2
        assert err.startswith("error: ")


class TestTableCommand:
    def test_small_table(self, capsys):
        code, out, _ = run(capsys, "table", "--max-n", "2")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 6
        assert lines[0] == "(0,0): 1"
        assert lines[-1] == "(2,2): L^3 - L^2"

    def test_single_row(self, capsys):
        code, out, _ = run(capsys, "table", "--max-n", "0")
        assert code == 0
        assert out == "(0,0): 1\n"

    def test_csv(self, capsys):
        code, out, _ = run(capsys, "table", "--max-n", "1", "--format", "csv")
        assert code == 0
        assert out == "n,k,polynomial\n0,0,1\n1,0,1\n1,1,L - 1\n"

    @pytest.mark.parametrize("route", motivic.ROUTES)
    def test_json_rows_are_class_objects(self, capsys, route):
        code, out, _ = run(capsys, "table", "--max-n", "12", "--route", route, "--format", "json")
        assert code == 0
        assert json.loads(out) == [
            class_json_dict(motivic.class_exact(n, k, route))
            for n in range(13)
            for k in range(n + 1)
        ]

    def test_latex(self, capsys):
        code, out, _ = run(capsys, "table", "--max-n", "3", "--format", "latex")
        assert code == 0
        assert out.startswith("\\begin{tabular}")
        assert "$L^{3} - L^{2}$" in out
        assert out.endswith("\\end{tabular}\n")

    def test_negative_max_n_is_usage_error(self, capsys):
        code, out, err = run(capsys, "table", "--max-n", "-1")
        assert code == 2
        assert out == ""
        assert err == "error: --max-n must be >= 0\n"


def test_closed_form_route_calls_the_module_attribute(capsys, monkeypatch):
    # Fault injection and per-function tracing both replace motivic.closed_form.
    argvs = (
        ("class", "--n", "2", "--k", "1", "--route", "closed-form"),
        ("table", "--max-n", "2", "--route", "closed-form"),
    )
    before = [run(capsys, *argv)[1] for argv in argvs]
    closed_form = motivic.closed_form

    def plus_one(n, k):
        c = closed_form(n, k)
        return motivic.MotivicClass(c.descriptor, c.value + 1, c.route)

    monkeypatch.setattr(motivic, "closed_form", plus_one)
    after = [run(capsys, *argv)[1] for argv in argvs]
    assert before[0] == "L^2 - 1\n"
    assert after[0] == "L^2\n"
    assert after[1] != before[1]


class TestCountCommand:
    def test_brute_force_match(self, capsys):
        code, out, _ = run(capsys, "count", "--n", "2", "--k", "2", "--q", "3", "--brute-force")
        assert code == 0
        assert out == "formula: 18\nbrute-force: 18\nverdict: MATCH\n"

    @pytest.mark.parametrize("ranks,count", [(("--range", "-1", "2"), 261), (("--k", "5"), 0)])
    def test_brute_force_clips_ranks_to_size(self, capsys, ranks, count):
        code, out, _ = run(capsys, "count", "--n", "3", *ranks, "--q", "3", "--brute-force")
        assert code == 0
        assert out == f"formula: {count}\nbrute-force: {count}\nverdict: MATCH\n"

    def test_prime_power_formula_only(self, capsys):
        code, out, _ = run(capsys, "count", "--n", "2", "--k", "2", "--q", "9")
        assert code == 0
        assert out == "648\n"

    def test_prime_power_brute_force_refused(self, capsys):
        code, _, err = run(capsys, "count", "--n", "2", "--k", "2", "--q", "9", "--brute-force")
        assert code == 2
        assert "odd prime" in err

    def test_trivial(self, capsys):
        code, out, _ = run(capsys, "count", "--n", "5", "--k", "0", "--q", "7")
        assert code == 0
        assert out == "1\n"

    def test_budget_refusal(self, capsys):
        code, _, err = run(
            capsys,
            "count", "--n", "6", "--k", "6", "--q", "3", "--brute-force", "--budget", "100",
        )
        assert code == 3
        assert str(3**21) in err

    def test_at_most_brute_force(self, capsys):
        code, out, _ = run(
            capsys, "count", "--n", "2", "--at-most", "1", "--q", "3", "--brute-force"
        )
        assert code == 0
        assert out == "formula: 9\nbrute-force: 9\nverdict: MATCH\n"

    def test_projective_brute_force(self, capsys):
        code, out, _ = run(
            capsys, "count", "--n", "2", "--projective-full", "--q", "5", "--brute-force"
        )
        assert code == 0
        assert out == "formula: 25\nbrute-force: 25\nverdict: MATCH\n"

    def test_q_below_two_is_usage_error(self, capsys):
        code, _, _ = run(capsys, "count", "--n", "2", "--k", "1", "--q", "1")
        assert code == 2

    def test_brute_force_mismatch_is_verification_failure(self, capsys, monkeypatch):
        enumerate_rank_counts = ffield.enumerate_rank_counts

        def off_by_one(n, field, budget=ffield.DEFAULT_BUDGET):
            hist = enumerate_rank_counts(n, field, budget)
            counts = list(hist.counts)
            counts[1] += 1
            return ffield.RankHistogram(hist.n, hist.p, tuple(counts))

        monkeypatch.setattr(ffield, "enumerate_rank_counts", off_by_one)
        code, out, _ = run(capsys, "count", "--n", "2", "--k", "1", "--q", "3", "--brute-force")
        assert code == 1
        assert out == "formula: 8\nbrute-force: 9\nverdict: MISMATCH\n"

    def test_negative_size_is_usage_error(self, capsys):
        code, _, err = run(capsys, "count", "--n", "-2", "--k", "0", "--q", "3")
        assert code == 2
        assert err == "error: --n must be >= 0, got -2\n"


class TestFibersCommand:
    def test_text_verdicts(self, capsys):
        code, out, _ = run(capsys, "fibers", "--n", "2", "--p", "3")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "minor_rank  full_rank  count  expected  verdict"
        assert len(lines) == 6
        assert all(line.endswith("MATCH") for line in lines[1:])

    def test_text_columns_fit_their_widest_entry(self, capsys):
        # At (3, 13) counts reach 7 digits, wider than "count": every
        # number must sit right-aligned in its column, under its label,
        # and every verdict start where "verdict" starts.
        code, out, _ = run(capsys, "fibers", "--n", "3", "--p", "13")
        assert code == 0
        header, *lines = out.splitlines()
        ends = [header.index(label) + len(label) for label in header.split()]
        starts = [0] + [end + 2 for end in ends[:-1]]
        assert len(lines) == 8
        for line in lines:
            fields = line.split()
            for field, start, end in zip(fields, starts, ends[:-1]):
                assert line[start : end + 2] == field.rjust(end - start) + "  "
            assert line[starts[-1] :] == fields[-1] == "MATCH"

    def test_csv(self, capsys):
        code, out, _ = run(capsys, "fibers", "--n", "2", "--p", "3", "--format", "csv")
        assert code == 0
        assert out == (
            "n,p,minor_rank,full_rank,count,expected,verdict\n"
            "2,3,0,0,1,1,MATCH\n"
            "2,3,0,1,2,2,MATCH\n"
            "2,3,0,2,6,6,MATCH\n"
            "2,3,1,1,6,6,MATCH\n"
            "2,3,1,2,12,12,MATCH\n"
        )

    def test_degenerate(self, capsys):
        code, out, _ = run(capsys, "fibers", "--n", "1", "--p", "3", "--format", "csv")
        assert code == 0
        assert out == (
            "n,p,minor_rank,full_rank,count,expected,verdict\n"
            "1,3,0,0,1,1,MATCH\n"
            "1,3,0,1,2,2,MATCH\n"
        )

    def test_bigger_field(self, capsys):
        code, out, _ = run(capsys, "fibers", "--n", "3", "--p", "5", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert all(row["verdict"] == "MATCH" for row in payload["rows"])

    def test_rejects_even_p(self, capsys):
        code, _, err = run(capsys, "fibers", "--n", "2", "--p", "2")
        assert code == 2
        assert "odd prime" in err

    def test_size_zero_is_usage_error(self, capsys):
        code, _, err = run(capsys, "fibers", "--n", "0", "--p", "3")
        assert code == 2
        assert err == "error: --n must be >= 1, got 0\n"

    def test_budget_refusal(self, capsys):
        code, out, err = run(capsys, "fibers", "--n", "5", "--p", "5", "--budget", "10")
        assert code == 3
        assert out == ""
        assert err.startswith(f"error: enumeration needs {5**15} matrix visits")

    def test_census_disagreement_is_verification_failure(self, capsys, monkeypatch):
        expected_fiber_table = verify.expected_fiber_table

        def off_by_one(n, p, minor_counts):
            table = expected_fiber_table(n, p, minor_counts)
            table[(0, 0)] += 1
            return table

        monkeypatch.setattr(verify, "expected_fiber_table", off_by_one)
        code, out, _ = run(capsys, "fibers", "--n", "2", "--p", "3", "--format", "csv")
        assert code == 1
        assert "2,3,0,0,1,2,MISMATCH\n" in out


    def test_each_space_walked_once(self, capsys, monkeypatch):
        walks = Counter()

        def counting(kind, fn):
            def shim(n, field, budget=ffield.DEFAULT_BUDGET):
                walks[(kind, n, field.p)] += 1
                return fn(n, field, budget)

            return shim

        monkeypatch.setattr(
            ffield, "enumerate_rank_counts", counting("histogram", ffield.enumerate_rank_counts)
        )
        monkeypatch.setattr(ffield, "fiber_census", counting("census", ffield.fiber_census))
        assert run(capsys, "fibers", "--n", "2", "--p", "3")[0] == 0
        assert walks == {("census", 2, 3): 1, ("histogram", 1, 3): 1}


class TestDecomposeCommand:
    def test_anchor(self, capsys):
        code, out, _ = run(capsys, "decompose", "--n", "1", "--k", "1")
        assert code == 0
        assert out == "F(1)[2]\nF(0)[1]\n"

    def test_point(self, capsys):
        code, out, _ = run(capsys, "decompose", "--n", "3", "--k", "0")
        assert code == 0
        assert out == "F(0)[0]\nnote: convention-based candidate decomposition\n"

    def test_candidate_flag(self, capsys):
        code, out, _ = run(capsys, "decompose", "--n", "2", "--k", "2")
        assert code == 0
        assert out == (
            "F(3)[6]\nF(2)[5]\nnote: convention-based candidate decomposition\n"
        )

    def test_json_status(self, capsys):
        code, out, _ = run(capsys, "decompose", "--n", "1", "--k", "1", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["status"] == "exact"
        assert payload["summands"] == [
            {"twist": 1, "shift": 2, "multiplicity": 1},
            {"twist": 0, "shift": 1, "multiplicity": 1},
        ]

    def test_out_of_range_is_usage_error(self, capsys):
        code, _, _ = run(capsys, "decompose", "--n", "1", "--k", "2")
        assert code == 2


class TestVerifyCommand:
    def test_small_suite_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--max-n", "2", "--primes", "3")
        assert code == 0
        assert out.endswith("result: PASS\n")

    def test_even_prime_is_usage_error(self, capsys):
        code, _, err = run(capsys, "verify", "--primes", "2")
        assert code == 2
        assert "odd prime" in err

    def test_negative_budget_is_usage_error(self, capsys):
        code, out, err = run(capsys, "verify", "--budget", "-1")
        assert code == 2
        assert out == ""
        assert err == "error: budget must be >= 0, got -1\n"

    def test_budget_above_int64_cap_is_usage_error(self, capsys):
        over = str(ffield.MAX_BUDGET + 1)
        code, out, err = run(capsys, "verify", "--budget", over)
        assert code == 2
        assert out == ""
        assert err == f"error: budget must be <= {ffield.MAX_BUDGET}, got {over}\n"

    def test_repeated_prime_is_usage_error(self, capsys, monkeypatch):
        def no_work(*args, **kwargs):
            raise AssertionError("the suite ran before the repeated prime was refused")

        monkeypatch.setattr(verify, "run_full_suite", no_work)
        assert run(capsys, "verify", "--max-n", "2", "--primes", "3", "3") == (
            2,
            "",
            "error: --primes repeats 3\n",
        )
        assert run(capsys, "verify", "--primes", "5", "3", "7", "5", "3") == (
            2,
            "",
            "error: --primes repeats 3, 5\n",
        )

    def test_failed_check_is_verification_failure(self, capsys, monkeypatch):
        closed_form = motivic.closed_form

        def wrong_at_2_1(n, k):
            c = closed_form(n, k)
            if (n, k) == (2, 1):
                return motivic.MotivicClass(c.descriptor, c.value + 1, c.route)
            return c

        monkeypatch.setattr(motivic, "closed_form", wrong_at_2_1)
        code, out, _ = run(capsys, "verify", "--max-n", "2", "--primes", "3")
        assert code == 1
        assert "FAIL" in out

    def test_bundle_fault_is_verification_failure(self, capsys, monkeypatch):
        class_at_most = motivic.class_at_most

        def wrong_at_3_1(n, k, route=motivic.ROUTE_RECURSION):
            c = class_at_most(n, k, route)
            if (n, k) == (3, 1):
                return motivic.MotivicClass(c.descriptor, c.value + 1, c.route)
            return c

        monkeypatch.setattr(motivic, "class_at_most", wrong_at_3_1)
        code, out, _ = run(capsys, "verify", "--max-n", "4", "--primes", "3")
        assert code == 1
        assert "FAIL at_most_bundle {'n': 3, 'k': 1}" in out

    def test_json_report(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--max-n", "2", "--primes", "3", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["summary"]["fail"] == 0
        assert payload["config"]["primes"] == [3]


@pytest.mark.parametrize(
    "argv",
    [
        "class --n 2 --k 1 --route guess",
        "table --max-n 3 --route guess",
        "count --n 2 --k 1 --q 3 --route guess",
        "decompose --n -1 --k 0",
        "class --n 3 --projective-full --route closed-form",
        "count --n 2 --projective-full --q 5 --route recursion",
    ],
)
def test_bad_argument_is_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv.split())
    assert code == 2
    assert out == ""
    assert err.startswith(("error: ", "usage: "))


def test_budget_env_var(capsys, monkeypatch):
    argv = ("count", "--n", "3", "--k", "3", "--q", "3", "--brute-force")
    monkeypatch.setenv("SYMRANK_BUDGET", "100")
    code, _, err = run(capsys, *argv)
    assert code == 3
    assert str(3**6) in err
    monkeypatch.setenv("SYMRANK_BUDGET", "1000")
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out == "formula: 468\nbrute-force: 468\nverdict: MATCH\n"
    monkeypatch.setenv("SYMRANK_BUDGET", "not-a-number")
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert "SYMRANK_BUDGET" in err
    # Only commands that enumerate read the variable, and --budget wins over it.
    malformed = "error: SYMRANK_BUDGET must be an integer, got 'not-a-number'\n"
    assert err == malformed
    match = "formula: 468\nbrute-force: 468\nverdict: MATCH\n"
    assert run(capsys, *argv, "--budget", "1000") == (0, match, "")
    for command in ("fibers --n 2 --p 3", "verify --max-n 1 --primes 3"):
        assert run(capsys, *command.split()) == (2, "", malformed)
        assert run(capsys, *command.split(), "--budget", "1000")[0] == 0
    quiet = (
        "class --n 3 --k 2",
        "table --max-n 3",
        "decompose --n 2 --k 1",
        "count --n 3 --k 3 --q 3",
    )
    with_malformed = [run(capsys, *command.split()) for command in quiet]
    monkeypatch.delenv("SYMRANK_BUDGET")
    assert with_malformed == [run(capsys, *command.split()) for command in quiet]
    assert all(code == 0 and out and not err for code, out, err in with_malformed)
    monkeypatch.setenv("SYMRANK_BUDGET", str(2**63))
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == f"error: budget must be <= {2**63 - 1}, got {2**63}\n"


def test_refusal_hint_names_only_what_can_help(capsys, monkeypatch):
    argv = ("count", "--n", "3", "--k", "3", "--q", "3", "--brute-force")
    refusal = f"error: enumeration needs {3**6} matrix visits, budget is 100"
    # An explicit --budget wins over the variable, so the variable cannot help.
    monkeypatch.setenv("SYMRANK_BUDGET", "1000000000")
    code, _, err = run(capsys, *argv, "--budget", "100")
    assert (code, err) == (3, f"{refusal} (raise it with --budget)\n")
    monkeypatch.setenv("SYMRANK_BUDGET", "100")
    code, _, err = run(capsys, *argv)
    assert (code, err) == (3, f"{refusal} (raise it with --budget or SYMRANK_BUDGET)\n")


def test_identical_invocations_are_byte_identical(capsys):
    first = run(capsys, "table", "--max-n", "4", "--format", "csv")
    second = run(capsys, "table", "--max-n", "4", "--format", "csv")
    assert first == second


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "symrank", "class", "--n", "2", "--k", "2"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "L^3 - L^2\n"
    # --help reads no budget, so a malformed SYMRANK_BUDGET cannot break it.
    proc = subprocess.run(
        [sys.executable, "-m", "symrank", "--help"],
        capture_output=True,
        text=True,
        env={**os.environ, "SYMRANK_BUDGET": "not-a-number"},
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("usage: symrank")
    assert proc.stderr == ""


class FailingStdout:
    """A stdout with no file descriptor whose ``write`` (or only ``flush``,
    where the interpreter would flush at exit) raises ``error``."""

    def __init__(self, error: OSError, on: str):
        self.error, self.on = error, on

    def write(self, text: str) -> int:
        if self.on == "write":
            raise self.error
        return len(text)

    def flush(self) -> None:
        raise self.error


@pytest.mark.parametrize("on", ["write", "flush"])
@pytest.mark.parametrize(
    "error,err",
    [
        (BrokenPipeError(errno.EPIPE, "Broken pipe"), ""),
        (
            OSError(errno.ENOSPC, "No space left on device"),
            "error: cannot write output: [Errno 28] No space left on device\n",
        ),
    ],
    ids=["broken-pipe", "disk-full"],
)
@pytest.mark.parametrize(
    "argv", ["class --n 1 --k 1", "table --max-n 3 --format json", "verify --max-n 1 --primes 3"]
)
def test_failed_write_is_not_verification_failure(capsys, monkeypatch, argv, error, err, on):
    monkeypatch.setattr(sys, "stdout", FailingStdout(error, on))
    assert main(argv.split()) == 4
    assert capsys.readouterr().err == err  # quiet for a closed pipe, no traceback


def test_failed_write_during_failed_verification_is_output_failure(capsys, monkeypatch):
    # A verification failure exits 1 (test_failed_check_is_verification_failure),
    # but only once its report is written.
    closed_form = motivic.closed_form

    def wrong_at_1_1(n, k):
        c = closed_form(n, k)
        return motivic.MotivicClass(c.descriptor, c.value + 1, c.route) if (n, k) == (1, 1) else c

    monkeypatch.setattr(motivic, "closed_form", wrong_at_1_1)
    assert run(capsys, "verify", "--max-n", "1", "--primes", "3")[0] == 1
    monkeypatch.setattr(sys, "stdout", FailingStdout(OSError(errno.ENOSPC, "full"), "write"))
    assert main(["verify", "--max-n", "1", "--primes", "3"]) == 4


def test_closed_pipe_exits_quietly():
    # As `symrank table --max-n 30 | head -1`: far more output than a pipe holds.
    proc = subprocess.Popen(
        [sys.executable, "-m", "symrank", "table", "--max-n", "30"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    assert proc.stdout.readline() == b"(0,0): 1\n"
    proc.stdout.close()
    assert proc.wait(timeout=60) == 4
    assert proc.stderr.read() == b""
    proc.stderr.close()


#: Lines of the README's CLI block whose output the block states.
README_OUTPUTS = {
    "class --n 2 --k 2": "L^3 - L^2\n",
    "class --n 3 --projective-full": "L^5 - L^2\n",
}


def readme_cli_lines() -> list[str]:
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("## CLI\n\n```sh\n", 1)[1].split("```", 1)[0]
    lines = [line.split("#", 1)[0].split() for line in block.splitlines()]
    return [" ".join(words[1:]) for words in lines if words[:1] == ["symrank"]]


def test_readme_cli_examples_run(capsys):
    lines = readme_cli_lines()
    assert set(README_OUTPUTS) <= set(lines)
    # The two default-grid verify lines take about 2 s each, so they are
    # left out; the same checks run on smaller grids in test_verify.py and
    # in the golden digests below.
    skipped = {"verify", "verify --format json"}
    assert skipped <= set(lines)
    for line in lines:
        if line in skipped:
            continue
        code, out, err = run(capsys, *line.split())
        assert (line, code, err) == (line, 0, "")
        assert out == README_OUTPUTS.get(line, out)


#: SHA-256 of stdout, recorded before the polynomial type moved from a
#: sparse term map to dense coefficients; rendering must not drift. The
#: verify report's digest was recorded when ``at_most_bundle`` joined it,
#: the two n = 30 / 60 closed-form digests while that route still took a
#: single long division, the n = 20 tables and the other three class JSON
#: digests while ``json.dumps`` still rendered class JSON, and the two
#: full verify reports while ``json.dumps`` still rendered the report.
#: Those two add about 0.9 s to the suite: the default grid about 0.85 s,
#: the primes 7 11 13 grid about 0.05 s (2-vCPU Xeon).
GOLDEN_SHA256 = {
    "table --max-n 12":
        "5df763832f5923eb62014919fe074e4ce097fc24faeddf9c783ce2dc6a6e1e7a",
    "table --max-n 12 --format json":
        "eed59d989cb795f906b23f89974d2ceae096edb6376a83ff172dc9871e4c67a3",
    "table --max-n 12 --format csv":
        "12b76eeea621277f516293d0a6c07839598b6ba8cc981e4591e3a54191f26113",
    "table --max-n 12 --format latex":
        "1e7f336e144a576bd3b407f9c767cd981e3e0755dd74dc6b4b35d68d47d2a343",
    "class --n 20 --range 3 9 --route closed-form --format json":
        "3126dc65bdb895bfe99850611f1ef2e63eef80a29580babe22c4b9a15adefade",
    "table --max-n 30 --route closed-form --format csv":
        "05900d8424ac6b12369f97d40867737610d7e4b8787d205a8e1bdcb6dc645cf3",
    "class --n 60 --range 20 40 --route closed-form --format json":
        "cda16d37bc991c95069a69c375802f33afca3a43ddc3a5e8bc8b49738164c95b",
    "class --n 20 --projective-full --format latex":
        "7015456b30147b2692dd74cfdbaa2f2a40d735680549b05aff492a6b1a2e0fb1",
    "fibers --n 3 --p 13 --format csv":
        "b6cf0b547c556418e95369fed2255b741641b1d7b9ab0868ce8798f1cf29bdab",
    "verify --max-n 3 --primes 3 5 --format json":
        "f476034bcc3ffc7e049adbde971662f4b3365f1e46e66b32769021e8eec75923",
    "table --max-n 20 --format json":
        "a1e389ac6748a01f3c4e0a70710c4d3bbe2d72e94d61a82ca0417617da8a5b9e",
    "table --max-n 20 --route closed-form --format json":
        "a2f3e6a244df8150f51de41f704db049e7f4a76fa6a265fff612692e5a4000ac",
    "class --n 3 --at-most -1 --format json":
        "21cce0e40a2c13eef53030b1265e2089a27a9169b73f72402a090490da6047b3",
    "class --n 7 --projective-full --format json":
        "48eee9081b27bd0b909e0d7f9bd310ea0212f1f42ac1f4eda31823ee3cf41513",
    "class --n 60 --at-most 59 --format json":
        "4761f2b0242c9b9f5402788dbf002850426fca606c94b6c3d2ff96d583acc446",
    "verify --format json":
        "fec88c345e54a7b16a7f36e42b6ec0662c994d206b8e5864b699eb3a19cfce47",
    "verify --primes 7 11 13 --format json":
        "1b809c9f475d3a56f4fd75c0b945b82d80737e2810bec35f567e0002a12b23c7",
}


@pytest.mark.parametrize("argv", sorted(GOLDEN_SHA256))
def test_golden_output_digests(capsys, argv):
    code, out, _ = run(capsys, *argv.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_SHA256[argv]
