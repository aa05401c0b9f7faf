"""Random ``taut`` expressions, Koszul module JSON and divisor-class
JSON fail closed.

Every string drawn from the expression grammar's symbols (generator
names, literals, ``^ * + - /``, parentheses and junk) must parse to a
ring element or raise ``ValueError``, and so must every JSON-shaped tree
handed to :func:`mgbar.koszul.module_from_json`: well-formed modules,
modules with one bad size or entry (floats, booleans, ``"1/0"``,
decimal exponents, ``None``, nested containers) and arbitrary trees
(a module whose commutativity check is past its work bound may raise
:class:`mgbar.ResourceLimitError` instead), and so must every
divisor-class record handed to
:meth:`mgbar.divclass.DivisorClass.from_json_dict` with coefficients
drawn from the same rational strings.
Nothing else may escape, and each case must finish within a CPU budget
that stops a runaway case.
"""

import json
import time
from fractions import Fraction

from hypothesis import HealthCheck, example, given, settings, strategies as st

from mgbar import ResourceLimitError, divclass, koszul, tautring

# Per-case CPU budget, far above any honest input here.
BUDGET_S = 2.0

FUZZ = settings(max_examples=300, deadline=None, derandomize=True,
                suppress_health_check=[HealthCheck.too_slow])

# -- taut expressions ----------------------------------------------------

TOKENS = st.one_of(
    st.sampled_from(["eta", "gamma", "theta", "c1", "c2", "c3"]),
    st.sampled_from(["^", "*", "+", "-", "/", "(", ")", " "]),
    st.integers(0, 12).map(str),
    # "\d" also matches other scripts' digits, such as Arabic-Indic 0 and 3.
    st.sampled_from([
        "0", "00", "1/0", "0/0", "7/00", "3/2", "1001", "1000", "10" * 30,
        "9" * 5000, "99999999999999999999", "1/\u0660", "\u0663",
    ]),
    st.sampled_from(["psi", "x", "c4", "eta2", "1.5", "1e5", "$", "\t",
                     "\u00e9", "ETA", "", ",", "**", "^^", "--"]),
)
expressions = st.lists(TOKENS, max_size=12).map("".join) | st.text(max_size=12)


@FUZZ
@given(expressions)
@example("1/0")
@example("9" * 4000 + "^1000*" + "9" * 4000 + "^1000")
def test_random_expressions_parse_or_raise_value_error(cpu_budget, text):
    start = time.process_time()
    try:
        with cpu_budget(BUDGET_S):
            element = tautring.element_from_string(text)
    except ValueError:
        pass
    else:
        assert isinstance(element, tautring.RingElement), text
    assert time.process_time() - start < BUDGET_S, text


# -- module JSON ---------------------------------------------------------

STRINGS = [
    "0", "1", "-1", "1/2", " 3 ", "0.25", "1e5", "1e-2", "1/0", "0/0",
    "-3/000", "1e1001", "1e-1001", "1E+1_000", "1e10000000", "x", "",
    "nan", "inf", "1/2/3", "1_0", "1e", "9" * 5000,
]
leaves = st.one_of(
    st.integers(-3, 3),
    st.integers(-10**30, 10**30),
    st.floats(allow_nan=True, allow_infinity=True),
    st.booleans(),
    st.none(),
    st.sampled_from(STRINGS),
    st.text(max_size=4),
)
trees = st.recursive(
    leaves,
    lambda children: st.lists(children, max_size=3) | st.dictionaries(
        st.sampled_from(["base_dim", "pieces", "mult", "x"]), children,
        max_size=3),
    max_leaves=12,
)
strings = st.sampled_from(STRINGS)
bad = st.one_of(strings, strings, strings, leaves, trees)


@st.composite
def module_data(draw):
    """A well-formed module, then maybe one bad entry, one bad or missing
    key, or a JSON text instead of the mapping; sometimes any tree."""
    if not draw(st.integers(0, 4)):
        return draw(trees)
    base_dim = draw(st.integers(1, 3))
    pieces = draw(st.lists(st.integers(1, 3), min_size=2, max_size=4))
    entry = st.one_of(st.integers(-2, 2), st.sampled_from(["0", "1", "-1/2"]))
    mult = [
        [[[draw(entry) for _ in range(pieces[j + 1])]
          for _ in range(pieces[j])]
         for _ in range(base_dim)]
        for j in range(len(pieces) - 1)
    ]
    data = {"base_dim": base_dim, "pieces": pieces, "mult": mult}
    fault = draw(st.sampled_from(["none", "entry", "entry", "key", "drop"]))
    if fault == "entry":
        j = draw(st.integers(0, len(pieces) - 2))
        row = mult[j][draw(st.integers(0, base_dim - 1))][
            draw(st.integers(0, pieces[j] - 1))]
        row[draw(st.integers(0, len(row) - 1))] = draw(bad)
    elif fault == "key":
        data[draw(st.sampled_from(sorted(data)))] = draw(bad)
    elif fault == "drop":
        del data[draw(st.sampled_from(sorted(data)))]
    return json.dumps(data) if draw(st.booleans()) else data


def _one_entry(text) -> dict:
    return {"base_dim": 1, "pieces": [1, 1], "mult": [[[[text]]]]}


def _one_row(row) -> dict:
    return {"base_dim": 1, "pieces": [1, len(row)], "mult": [[[row]]]}


def _wide(base_dim: int) -> dict:
    return {"base_dim": base_dim, "pieces": [1, 1, 1],
            "mult": [[[[1]]] * base_dim] * 2}


@FUZZ
@given(module_data())
@example(_one_entry("1/0"))
@example(json.dumps(_one_entry("1e10000000")))
# A bad entry after a nonzero one in the same row.
@example(_one_row([0, 1, 0.0]))
@example(_one_row(["1", True]))
@example(_one_row([1, "1/0"]))
@example(_one_row(["2", "1e1001"]))
# A commutativity check of 2 000 * 1 999 product terms.
@example(_wide(2000))
def test_random_module_json_loads_or_raises_value_error(cpu_budget, data):
    start = time.process_time()
    try:
        with cpu_budget(BUDGET_S):
            module = koszul.module_from_json(data)
    except (ValueError, ResourceLimitError):
        pass
    else:
        assert isinstance(module, koszul.GradedModule), data
    assert time.process_time() - start < BUDGET_S, data


# -- divisor-class JSON --------------------------------------------------

# JSON values that are no integer but that int() or repr() would read.
NON_INTEGERS = [4.9, 4.0, 2.5, True, False, "4", "2", None, 1e300]


@st.composite
def divisor_data(draw):
    """A divisor-class record of genus 2..7 whose coefficients are mostly
    rational strings, with one delta coefficient too many or too few at
    times, and now and then a genus, flag or coefficient that is a JSON
    float, a boolean or integer text."""
    genus = draw(st.integers(2, 7))
    size = genus // 2 + 1 + draw(st.sampled_from([0, 0, 0, -1, 1]))
    if not draw(st.integers(0, 4)):
        genus = draw(st.sampled_from(NON_INTEGERS))
    coeff = st.one_of(strings, strings, leaves, st.sampled_from([0.1, 1e300]))
    data = {"genus": genus, "lambda": draw(coeff),
            "delta": draw(st.lists(coeff, min_size=size, max_size=size))}
    if draw(st.booleans()):
        flag = st.one_of(st.integers(0, 4), st.integers(0, 4),
                         st.sampled_from(NON_INTEGERS))
        data["delta_lower_bounds"] = draw(st.lists(flag, max_size=3))
    return data


@FUZZ
@given(divisor_data())
@example({"genus": 2, "lambda": "1/0", "delta": ["1", "1"]})
@example({"genus": 2, "lambda": "1", "delta": ["1e10000000", "1"]})
# No genus 4, flag 1 or coefficient 1/10 may be read from these.
@example({"genus": 4.9, "lambda": "1", "delta": ["1", "1", "1"]})
@example({"genus": 2, "lambda": "1", "delta": ["1", "1"],
          "delta_lower_bounds": [True]})
@example({"genus": 2, "lambda": 0.1, "delta": ["1", "1"]})
# Text or an integer in place of a list: "12" is no list of "1" and "2".
@example({"genus": 2, "lambda": "1", "delta": "12"})
@example({"genus": 2, "lambda": "1", "delta": 12})
@example({"genus": 2, "lambda": "1", "delta": ["1", "1"],
          "delta_lower_bounds": 1})
def test_random_divisor_json_loads_or_raises_value_error(cpu_budget, data):
    start = time.process_time()
    try:
        with cpu_budget(BUDGET_S):
            cls = divclass.DivisorClass.from_json_dict(data)
    except ValueError:
        pass
    else:
        assert isinstance(cls, divclass.DivisorClass), data
        # Only JSON integers and rational text are read, each as written,
        # and the coefficients and flags only from JSON lists.
        assert type(data["delta"]) is list, data
        assert type(data.get("delta_lower_bounds", [])) is list, data
        assert cls.genus == data["genus"], data
        assert all(type(j) is int for j in cls.lower_bound_deltas), data
        assert cls.lambda_coeff == Fraction(data["lambda"]), data
    assert time.process_time() - start < BUDGET_S, data
