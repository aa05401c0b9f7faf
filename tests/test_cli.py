"""End-to-end command line coverage, run in-process through cli.main."""

import argparse
import json
import sys

import pytest

from mgbar import cli
from mgbar import koszul


def run_ok(capsys, *argv):
    assert cli.main(list(argv)) == 0
    out = capsys.readouterr()
    assert out.err == ""
    return out.out.rstrip("\n")


def run_err(capsys, *argv):
    assert cli.main(list(argv)) == 1
    out = capsys.readouterr()
    assert out.out == ""
    return out.err.rstrip("\n")


class TestReferenceInvocations:
    """The documented one-liners, byte for byte."""

    def test_canonical_slope(self, capsys):
        assert run_ok(
            capsys, "divclass", "slope", "--class", "canonical", "--g", "22"
        ) == "13/2"

    def test_degeneracy_solve(self, capsys):
        assert run_ok(capsys, "taut", "d22-solve") == (
            "a=862692948 b0=132822768 b1=731180268 slope=17121/2636"
        )

    def test_pand_bound(self, capsys):
        assert run_ok(capsys, "psi", "pand-bound", "--g", "4") == "15/2"

    def test_key_value_token_form(self, capsys):
        assert run_ok(capsys, "psi", "eval", "g=2", "a=2,3") == "29/5760"
        assert run_ok(capsys, "psi", "pand-bound", "g=22") == "30/13"

    def test_rho_positionals(self, capsys):
        assert run_ok(capsys, "bn", "rho", "22", "6", "25") == "1"


class TestDivclass:
    def test_canonical_variants(self, capsys):
        coarse = run_ok(capsys, "divclass", "canonical", "--g", "3")
        assert coarse == "4*lambda - 1*delta_0"
        stack = run_ok(capsys, "divclass", "canonical", "--g", "22", "--stack")
        assert "3*delta_1" not in stack and "2*delta_1" in stack

    def test_named_class_slopes(self, capsys):
        assert run_ok(
            capsys, "divclass", "slope", "--class", "koszul-odd", "--i", "10"
        ) == "13/2"
        assert run_ok(capsys, "divclass", "koszul-even", "--i", "2") == "1665/256"
        assert run_ok(
            capsys, "divclass", "gp-slope", "--r", "2", "--s", "2"
        ) == "47/6"

    def test_custom_coefficients(self, capsys):
        assert run_ok(
            capsys, "divclass", "slope", "--class", "custom",
            "--g", "4", "--coeffs", "13,2,3,2",
        ) == "13/2"

    def test_koszul_odd_class_text(self, capsys):
        assert run_ok(
            capsys, "divclass", "koszul-odd", "--i", "0"
        ) == "9*lambda - 1*delta_0 - 3*delta_1"

    def test_d22_marks_lower_bounds(self, capsys):
        text = run_ok(capsys, "divclass", "d22")
        assert text.startswith("862692948*lambda - 132822768*delta_0")
        assert text.count("(lower bound)") == 10

    def test_k3_check_and_pairings(self, capsys):
        assert run_ok(capsys, "divclass", "k3-check", "--class", "d22") == "true"
        assert run_ok(
            capsys, "divclass", "pair", "--curve", "R",
            "--class", "kappa1", "--g", "22",
        ) == "1"
        assert run_ok(
            capsys, "divclass", "pair", "--curve", "C1", "--class", "d22"
        ) == "29247210720"


class TestPsiAndBn:
    def test_one_point(self, capsys):
        assert run_ok(capsys, "psi", "one-point", "--g", "3") == "1/82944"

    def test_liaison(self, capsys):
        assert run_ok(
            capsys, "bn", "liaison", "--g", "14", "--d", "18", "--r", "6"
        ) == "f=2 d_res=14 g_res=8 intersections=28"
        assert run_ok(
            capsys, "bn", "liaison", "--g", "14", "--d", "18", "--r", "5"
        ) == "INFEASIBLE"

    def test_severi(self, capsys):
        assert run_ok(capsys, "bn", "severi", "--g", "10") == (
            "d_min=9 delta=18 dim_U=36 feasible=true"
        )

    def test_counts(self, capsys):
        assert run_ok(
            capsys, "bn", "hilbert-dim", "--d", "8", "--g", "14", "--r", "6"
        ) == "17"
        assert run_ok(
            capsys, "bn", "quadrics", "--g", "14", "--r", "6", "--d", "18"
        ) == "5"

    def test_limit_check(self, capsys):
        assert run_ok(capsys, "bn", "limit-check", "--g", "5") == "true"


class TestTaut:
    def test_reduce(self, capsys):
        assert run_ok(
            capsys, "taut", "reduce", "--expr", "gamma^2 + 2*eta*theta"
        ) == "0"
        assert run_ok(
            capsys, "taut", "reduce", "--expr", "gamma*gamma"
        ) == "-2*eta*theta"

    def test_integrate(self, capsys):
        assert run_ok(
            capsys, "taut", "integrate", "--expr", "eta*theta^2", "--over", "C"
        ) == "theta^2"
        assert run_ok(
            capsys, "taut", "integrate", "--expr", "theta^3", "--over", "W"
        ) == "698377680"

    def test_table_verify(self, capsys):
        assert run_ok(capsys, "taut", "table-verify") == (
            "pushforward table ok (checksum 624416250b2d)"
        )


class TestKoszulCommands:
    @pytest.fixture
    def module_file(self, tmp_path):
        path = tmp_path / "module.json"
        path.write_text(json.dumps(koszul.module_to_json(
            koszul.veronese_module(3, 3)
        )))
        return str(path)

    def test_betti_table(self, capsys, module_file):
        text = run_ok(
            capsys, "koszul", "betti", "--input", module_file,
            "--max-i", "3", "--max-j", "2",
        )
        assert text.splitlines() == [
            "     i=0 i=1 i=2 i=3",
            "j=0:   1   0   0   0",
            "j=1:   0   3   2   0",
            "j=2:   0   0   0   0",
        ]

    def test_betti_with_modulus(self, capsys, module_file):
        exact = run_ok(
            capsys, "koszul", "betti", "--input", module_file,
            "--max-i", "3", "--max-j", "2",
        )
        modular = run_ok(
            capsys, "koszul", "betti", "--input", module_file,
            "--max-i", "3", "--max-j", "2", "--modulus", "2147483647",
        )
        assert modular == exact

    def test_np(self, capsys, module_file):
        assert run_ok(
            capsys, "koszul", "np", "--input", module_file, "--p", "1"
        ) == "true"

    def test_missing_file_is_a_domain_error(self, capsys, tmp_path):
        message = run_err(
            capsys, "koszul", "np",
            "--input", str(tmp_path / "nope.json"), "--p", "0",
        )
        assert message.startswith("error:")

    def test_deeply_nested_file_is_malformed_data(self, capsys, tmp_path):
        path = tmp_path / "nested.json"
        path.write_text("[" * 100_000)
        message = run_err(
            capsys, "koszul", "betti", "--input", str(path),
            "--max-i", "1", "--max-j", "1",
        )
        assert message.startswith("error: malformed module data: ")


class TestJsonMode:
    def test_record_shape(self, capsys):
        blob = run_ok(capsys, "psi", "eval", "--json", "g=2", "a=2,3")
        record = json.loads(blob)
        assert record == {
            "command": "psi eval",
            "inputs": {"g": 2, "a": [2, 3]},
            "value": "29/5760",
            "provenance": ["dvv-recursion"],
        }

    def test_flag_position_does_not_matter(self, capsys):
        before = run_ok(capsys, "--json", "taut", "d22-solve")
        after = run_ok(capsys, "taut", "d22-solve", "--json")
        assert before == after
        record = json.loads(before)
        assert record["value"]["slope"] == "17121/2636"
        assert "pushforward-table@624416250b2d" in record["provenance"]

    def test_round_trip_is_stable(self, capsys):
        blob = run_ok(capsys, "bn", "rho", "22", "6", "25", "--json")
        assert json.dumps(json.loads(blob)) == blob
        assert json.loads(blob)["value"] == 1


class TestToleranceDisplay:
    def test_decimal_rendering(self, capsys):
        assert run_ok(
            capsys, "divclass", "slope", "--class", "d22",
            "--tolerance", "0.00001",
        ) == "17121/2636 (6.49507)"

    def test_integers_stay_bare(self, capsys):
        assert run_ok(
            capsys, "bn", "rho", "22", "6", "25", "--tolerance", "0.001"
        ) == "1"


class TestExitCodes:
    def test_domain_error(self, capsys):
        message = run_err(capsys, "psi", "one-point", "--g", "0")
        assert message.startswith("error:")

    def test_parser_error_in_expression(self, capsys):
        message = run_err(
            capsys, "taut", "reduce", "--expr", "(1+gamma)^2"
        )
        assert message.startswith("error: cannot tokenize")

    @pytest.mark.parametrize("exps", ["2,x", "2,3/4", "2,", "x"])
    def test_exponent_refusal_names_the_flag(self, capsys, exps):
        message = run_err(capsys, "psi", "eval", "--g", "2", "--a", exps)
        bad = exps.split(",")[-1]
        assert message == f"error: exponent {bad!r} in --a is not an integer"

    def test_exponents_read_as_int_does(self, capsys):
        # spaces, signs, underscores and any script's digits; past Python's
        # digit limit int() keeps its own refusal
        assert run_ok(capsys, "psi", "eval", "--g", "0",
                      "--a", "٠, +0_0,0 ") == "1"
        if hasattr(sys, "get_int_max_str_digits"):
            message = run_err(capsys, "psi", "eval", "--g", "2", "--a",
                              "1" * (sys.get_int_max_str_digits() + 1))
            assert message.startswith("error: Exceeds the limit")

    def test_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["divclass", "no-such-command"])
        assert exc.value.code == 2
        capsys.readouterr()

    def test_missing_required_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["psi", "one-point"])
        assert exc.value.code == 2
        capsys.readouterr()

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["--version"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert out == "mgbar 0.1.0 (pushforward table 624416250b2d)\n"

    @pytest.mark.parametrize("action", [cli._Store, cli._Tolerance])
    @pytest.mark.parametrize("values", [[], "--"])
    def test_flag_equals_double_dash_is_a_missing_value(self, action, values):
        # ``--flag=--`` gives [] before Python 3.13 and "--" from 3.13 on.
        store = action(["--flag"], "flag")
        namespace = argparse.Namespace()
        with pytest.raises(argparse.ArgumentError,
                           match="expected one argument"):
            store(argparse.ArgumentParser(), namespace, values)
        assert not hasattr(namespace, "flag")


class TestUsageWrapping:
    """Long usage lines wrap as Python 3.10-3.12 wrap them, on 3.13 too:
    a line may break between a required option and its value, and a
    long prog takes a line of its own.  The expected text is that of
    3.12's own formatter at 31 columns."""

    @staticmethod
    def usage(monkeypatch, capsys, *argv):
        monkeypatch.setenv("COLUMNS", "31")
        with pytest.raises(SystemExit):
            cli.main(list(argv))
        out = capsys.readouterr()
        lines = (out.out + out.err).splitlines()
        end = next(n for n, line in enumerate(lines) if n and line[:1] != " ")
        return "\n".join(lines[:end])

    def test_a_long_prog_takes_a_line_of_its_own(self, monkeypatch, capsys):
        assert self.usage(monkeypatch, capsys, "divclass", "pair") == (
            "usage: mgbar divclass pair\n"
            "       [-h] [--json]\n"
            "       [--tolerance TOLERANCE]\n"
            "       --class\n"
            "       {canonical,canonical-stack,kappa1,koszul-odd,d22,custom}\n"
            "       [--g G] [--i I]\n"
            "       [--coeffs COEFFS]\n"
            "       --curve {C0,C1,R,B}")

    def test_positionals_follow_a_short_prog(self, monkeypatch, capsys):
        assert self.usage(monkeypatch, capsys, "divclass", "--help") == (
            "usage: mgbar divclass [-h]\n"
            "                      {canonical,slope,k3-check,pair,"
            "koszul-odd,koszul-even,gp-slope,d22}\n"
            "                      ...")
