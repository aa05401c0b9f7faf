"""Random ``mgbar`` argv fails closed, and routing changes no output.

Every argv drawn here -- real and bogus group and subcommand names,
flags of every command with huge, negative, fractional and junk values
(zero denominators and huge decimal exponents among them),
``key=value`` tokens, top-level flags and tokens in any order -- must
end with exit code 0, 1 or 2 and no uncaught exception, within a CPU
budget that stops a runaway case.  Each argv is also run with every
group and subcommand parser built before parsing, and must print
exactly what the tree that builds them on first use prints.
"""

import argparse
import contextlib
import io
import os
import time
from unittest import mock

from hypothesis import HealthCheck, example, given, settings, strategies as st

from mgbar import cli

WORDS = [command.name.split() for command in cli.COMMANDS]
GROUPS = sorted({group for group, _ in WORDS})
SUBCOMMANDS = sorted({name for _, name in WORDS})
FLAGS = sorted(
    {flag for command in cli.COMMANDS for flag, _ in command.flags
     if flag.startswith("--")} | {"--json", "--tolerance", "--version"}
)
CHOICES = sorted(
    {str(choice) for command in cli.COMMANDS for _, spec in command.flags
     for choice in spec.get("choices", ())}
)

# Per-invocation CPU budget, far above any honest command here.
BUDGET_S = 5.0

values = st.one_of(
    st.integers(-10**6, 10**6).map(str),
    st.integers(-10**40, 10**40).map(str),
    st.integers(0, 40).map(lambda k: str(10**k)),
    st.sampled_from([
        "0", "-1", "1/2", "-3/4", "0.5", "1e9", "10" * 30, "x", "", " ",
        "2,3", "0,0,0", "1,-1", "1000000000,0,0", ",", "nan", "inf",
        "theta", "eta^2*c1", "theta^999", "(", "module.json",
        "no-such-file.json", "--", "-h", "1e999999999", "1e-999999999",
        "1/0", "1e999999999,1,1",
    ]),
    st.sampled_from(CHOICES),
)
# Rational text for the two flags that parse it, --tolerance and --coeffs
# (read only under --class custom), drawn far more often than other values
# so the random part reaches the rational parser with a huge exponent or a
# zero denominator.
rationals = st.one_of(
    st.sampled_from(["1/2", "-3/4", "0.5", "7", "1e9", "1e-9", "x", "",
                     "1/0", "1e999999999", "1e-999999999"]),
    st.integers(-9, 9).map(str),
)
RATIONAL_VALUES = {
    "--coeffs": st.lists(rationals, min_size=1, max_size=4).map(",".join),
    "--class": st.just("custom"),
}
tolerances = st.tuples(st.just("--tolerance"), rationals).map(list)
flag_pairs = st.tuples(st.sampled_from(FLAGS), values).map(list)
key_values = st.tuples(st.sampled_from(FLAGS), values).map(
    lambda pair: [f"{pair[0][2:]}={pair[1]}"]
)
bogus_route = st.one_of(
    st.tuples(st.sampled_from(GROUPS), st.sampled_from(SUBCOMMANDS)).map(list),
    st.tuples(st.sampled_from(GROUPS + ["bogus", ""]),
              st.sampled_from(SUBCOMMANDS + ["nope", "-h"])).map(list),
    st.lists(st.sampled_from(GROUPS), max_size=1),
)


@st.composite
def argvs(draw) -> list[str]:
    """Top-level flags, a route, then flags in any order: mostly one
    command's own flags (each present or not, as ``--flag value`` or
    ``flag=value``), sometimes any flag of any command."""
    head = draw(st.lists(st.one_of(flag_pairs, tolerances, st.just(["--json"])),
                         max_size=2))
    command = draw(st.sampled_from(cli.COMMANDS))
    if draw(st.integers(0, 3)):
        route = command.name.split()
        tail = []
        for flag, _ in command.flags:
            if draw(st.integers(0, 5)):
                value = draw(values if flag not in RATIONAL_VALUES
                             else RATIONAL_VALUES[flag] | values)
                if not flag.startswith("--"):
                    tail.append([value])
                elif draw(st.booleans()):
                    tail.append([flag, value])
                else:
                    tail.append([f"{flag[2:]}={value}"])
    else:
        route, tail = draw(bogus_route), []
    tail += draw(st.lists(st.one_of(flag_pairs, key_values, values.map(
        lambda v: [v])), max_size=2))
    tail = draw(st.permutations(tail))
    return [t for pair in head for t in pair] + route + [
        t for pair in tail for t in pair]


def run(argv: list[str]) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            mock.patch.dict(os.environ, {"COLUMNS": "80"}):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def eager_branch(build, **kwargs) -> argparse.ArgumentParser:
    """A group or subcommand parser built when it is added."""
    parser = argparse.ArgumentParser(**kwargs)
    build(parser)
    return parser


@settings(max_examples=300, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(argvs())
# Random draws rarely pair a command with a huge size; these reach the
# genus guards of divisor classes and of the limit-series check.
@example(["divclass", "canonical", "--g", "100000000"])
@example(["divclass", "koszul-odd", "--i", "100000000"])
@example(["bn", "limit-check", "--g", "100000000"])
# A decimal exponent would make Fraction build 10**999999999.
@example(["divclass", "slope", "--class", "custom", "--g", "2",
          "--coeffs", "1e999999999,1,1"])
@example(["--tolerance", "1e-999999999", "bn", "rho", "22", "1", "11"])
def test_random_argv_fails_closed_and_parses_like_the_eager_tree(
        cpu_budget, argv):
    start = time.process_time()
    with cpu_budget(BUDGET_S):
        result = run(argv)
    assert time.process_time() - start < BUDGET_S, argv
    assert result[0] in (0, 1, 2), (argv, result)
    assert "Traceback" not in result[2], (argv, result)
    # A message names a rational as p/q, never as the repr of an exception.
    assert "Fraction(" not in result[2], (argv, result)
    with mock.patch.object(cli, "_Branch", eager_branch):
        assert run(argv) == result, argv
