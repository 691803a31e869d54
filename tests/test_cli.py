import hashlib
import json
import subprocess
import sys

import pytest

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


class TestCountCommand:
    def test_brute_force_match(self, capsys):
        code, out, _ = run(capsys, "count", "--n", "2", "--k", "2", "--q", "3", "--brute-force")
        assert code == 0
        assert out == "formula: 18\nbrute-force: 18\nverdict: MATCH\n"

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

    def test_json_report(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--max-n", "2", "--primes", "3", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["summary"]["fail"] == 0
        assert payload["config"]["primes"] == [3]


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
    monkeypatch.setenv("SYMRANK_BUDGET", str(2**63))
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == f"error: budget must be <= {2**63 - 1}, got {2**63}\n"


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


#: SHA-256 of stdout, recorded before the polynomial type moved from a
#: sparse term map to dense coefficients; rendering must not drift.
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
    "class --n 20 --projective-full --format latex":
        "7015456b30147b2692dd74cfdbaa2f2a40d735680549b05aff492a6b1a2e0fb1",
}


@pytest.mark.parametrize("argv", sorted(GOLDEN_SHA256))
def test_golden_output_digests(capsys, argv):
    code, out, _ = run(capsys, *argv.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_SHA256[argv]
