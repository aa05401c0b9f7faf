"""Coefficient-ring normal form, pushforwards, and the degeneracy totals."""

import hashlib
import json
import math
import random
import sys
import time
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from mgbar import bn, tautring as tr
from mgbar.tautring import (
    C1,
    C2,
    C3,
    ETA,
    GAMMA,
    ONE,
    THETA,
    ZERO,
    KernelDegreeError,
    KernelPoly,
    RingElement,
    element_from_string,
)

FACT21 = math.factorial(21)
FROZEN_TABLE = Path(__file__).parent / "data" / "w217_pushforward.json"


# -- normal form -------------------------------------------------------


class TestNormalForm:
    @pytest.mark.parametrize("scalar", [True, False, 1.0])
    def test_multiplication_by_a_non_rational_is_refused(self, scalar):
        # A bool is no rational 1 or 0.
        with pytest.raises(TypeError, match="unsupported operand"):
            scalar * THETA
        with pytest.raises(TypeError, match="unsupported operand"):
            THETA * scalar

    @pytest.mark.parametrize("scalar", [True, 1.0])
    def test_division_by_a_non_rational_is_refused(self, scalar):
        with pytest.raises(TypeError, match="unsupported operand"):
            THETA / scalar

    @pytest.mark.parametrize("scalar", [True, False, 1.0])
    def test_addition_of_a_non_rational_is_refused(self, scalar):
        # Subtraction from a non-rational is refused too, not recursed.
        kernel = KernelPoly(linear=ONE)
        for element in (THETA, kernel):
            with pytest.raises(TypeError, match="unsupported operand"):
                element + scalar
            with pytest.raises(TypeError, match="unsupported operand"):
                scalar - element

    def test_an_element_equals_no_text(self):
        assert (THETA == "x") is False

    def test_eta_squared_vanishes(self):
        assert ETA * ETA == ZERO
        assert ETA * GAMMA == ZERO

    def test_gamma_squared_rewrites(self):
        assert GAMMA * GAMMA == -2 * ETA * THETA

    def test_gamma_cubed_vanishes(self):
        assert GAMMA**3 == ZERO

    def test_no_key_keeps_a_gamma_power(self):
        e = (ONE + GAMMA + THETA) ** 4
        for (eta, gamma, *_rest) in e._terms:
            assert gamma <= 1
            assert eta <= 1

    def test_parser_examples(self):
        assert element_from_string("gamma^2 + 2*eta*theta") == ZERO
        assert element_from_string("3/2*theta*c1^2") == Fraction(3, 2) * THETA * C1**2
        assert element_from_string("theta^2*gamma - gamma*theta^2") == ZERO
        assert element_from_string("-eta + eta") == ZERO

    @pytest.mark.parametrize("text, normal_form", [
        ("2theta", "2*theta"), ("theta eta", "eta*theta"), ("2 - - 3", "5"),
        ("*theta", "theta"), ("-*theta", "-theta"),
        ("theta**eta", "eta*theta"), ("٣*theta", "3*theta"),
        ("theta^00", "1"), ("gamma^3", "0"), ("theta+*eta", "theta + eta"),
    ])
    def test_parser_normal_forms(self, text, normal_form):
        # juxtaposed factors multiply, a '*' may open a term, signs
        # accumulate at a term's start only, and "\d" reads any script's digits
        assert str(element_from_string(text)) == normal_form

    @pytest.mark.parametrize("text, message", [
        ("theta*-eta", "unknown symbol '-'"),
        ("*-theta", "unknown symbol '-'"),
        ("theta^2^3", "dangling '^'"), ("theta^", "dangling '^'"),
        ("^2", "dangling '^'"), ("theta*+^", "dangling '^'"),
        ("theta^x", "invalid literal for int() with base 10: 'x'"),
        ("2^3/4", "invalid literal for int() with base 10: '3/4'"),
        ("theta^-1", "invalid literal for int() with base 10: '-'"),
        # the exponent is read before its base is looked up
        ("x^1001", "exponent 1001 exceeds the limit 1000"),
        ("1/٠", "zero denominator in '1/٠'"),
        ("theta+", "trailing operator"), ("+", "trailing operator"),
        ("theta*", "trailing operator"),
        ("theta + $", "cannot tokenize ' $'"), (" ", "empty expression"),
    ])
    def test_parser_refusals(self, text, message):
        with pytest.raises(ValueError) as info:
            element_from_string(text)
        assert str(info.value) == message

    def test_parser_rejects_unknown_symbols(self):
        with pytest.raises(ValueError):
            element_from_string("theta + psi")

    @pytest.mark.parametrize("text, literal", [
        ("1/0", "1/0"), ("0/0", "0/0"), ("theta + 3/00", "3/00"),
        ("1/0^2", "1/0"),
    ])
    def test_parser_names_a_zero_denominator(self, text, literal):
        with pytest.raises(ValueError, match=f"zero denominator in '{literal}'"):
            element_from_string(text)

    def test_parser_caps_the_digits_of_all_literal_powers(self):
        cap = 10 * tr.MAX_EXPONENT
        assert element_from_string("9999999999^1000") == 9999999999**1000
        assert element_from_string("1/99999999^1000") == Fraction(
            1, 99999999**1000)
        assert element_from_string("99999^1000 + 99999^1000*c1") == (
            99999**1000 * (ONE + C1))
        for text in (
            "99999999999^1000", "12345/67890^1000", "9" * (cap + 1),
            "9" * 4000 + "^1000*" + "9" * 4000 + "^1000",
            "*".join(["9999999999^1000"] * 200),
            "99999^1000 + 99999^1000*c1 + 2",
        ):
            start = time.process_time()
            with pytest.raises(ValueError, match=f"exceed {cap} digits"):
                element_from_string(text)
            assert time.process_time() - start < 0.5

    def test_parser_reads_a_denominator_with_leading_zeros(self):
        assert element_from_string("1/01") == ONE

    def test_power_agrees_with_repeated_products(self):
        for base in (ONE + GAMMA + THETA - C2 / 2, ETA + 3 * THETA, GAMMA):
            product = ONE
            for n in range(9):
                assert base**n == product
                product = product * base

    def test_large_powers_take_few_products(self):
        n = 10**6
        assert (THETA**n)._terms == {(0, 0, n, 0, 0, 0): Fraction(1)}

    def test_parser_caps_exponents(self):
        cap = tr.MAX_EXPONENT
        assert element_from_string(f"theta^{cap}") == THETA**cap
        assert element_from_string(f"2^{cap}*c1") == 2**cap * C1
        for text in (
            f"theta^{cap + 1}",
            "theta^99999999999999999999",
            "7/3^99999999999999999999",
        ):
            with pytest.raises(ValueError, match="exceeds the limit"):
                element_from_string(text)

    def test_truediv_by_scalar(self):
        assert (THETA * 3) / 3 == THETA
        assert THETA / Fraction(1, 2) == 2 * THETA

    def test_degrees(self):
        m = ETA * THETA**2 * C3
        assert m.degrees() == {6}
        assert m.is_homogeneous(6)
        assert not (ETA + THETA**2).is_homogeneous(1)


# hypothesis strategies: sparse elements with small exponents
_coeff = st.fractions(
    min_value=-4, max_value=4, max_denominator=6
)
_key = st.tuples(
    st.integers(0, 1),
    st.integers(0, 1),
    st.integers(0, 3),
    st.integers(0, 2),
    st.integers(0, 2),
    st.integers(0, 1),
)


@st.composite
def ring_elements(draw):
    terms = draw(st.lists(st.tuples(_key, _coeff), max_size=4))
    total = ZERO
    for (eta, gamma, theta, a, b, c), q in terms:
        mono = (
            ETA**eta * GAMMA**gamma * THETA**theta
            * C1**a * C2**b * C3**c
        )
        total = total + q * mono
    return total


@given(ring_elements(), ring_elements(), ring_elements())
@settings(max_examples=150, deadline=None)
def test_ring_laws(x, y, z):
    assert (x * y) * z == x * (y * z)
    assert x * y == y * x
    assert x * (y + z) == x * y + x * z
    assert x - x == ZERO


@given(ring_elements())
@settings(max_examples=100, deadline=None)
def test_normal_form_is_idempotent(x):
    rebuilt = RingElement(dict(x._terms))
    assert rebuilt == x
    # and survives a parser round trip when printable
    if x != ZERO:
        assert element_from_string(str(x)) == x


@given(ring_elements(), ring_elements())
@settings(max_examples=100, deadline=None)
def test_product_degrees_add(x, y):
    if x.is_homogeneous() and y.is_homogeneous() and x != ZERO and y != ZERO:
        (dx,) = x.degrees()
        (dy,) = y.degrees()
        p = x * y
        if p != ZERO:
            assert p.is_homogeneous(dx + dy)


# -- integration over the curve factor ---------------------------------


class TestIntegrateOverC:
    def test_picks_the_eta_coefficient(self):
        assert tr.integrate_over_C(ETA * THETA**2 + THETA**3) == THETA**2
        assert tr.integrate_over_C(THETA**3) == ZERO

    def test_gamma_terms_do_not_survive(self):
        # gamma alone integrates to zero; only eta-carrying terms count
        e = GAMMA * THETA + 5 * ETA * C1
        assert tr.integrate_over_C(e) == 5 * C1


# -- the pushforward table ---------------------------------------------


class TestPushforwardTable:
    def test_verify_and_checksum(self):
        table = tr.load_table()
        table.verify()
        assert table.checksum()[:12] == "624416250b2d"

    @staticmethod
    def real_and_tampered():
        real = dict(tr.load_table().entries)
        tampered = dict(real)
        tampered[(0, 2, 0)] += 1
        return real, tampered

    @staticmethod
    def sha256_of_canonical_text(entries):
        text = ";".join(
            f"{e1},{e2},{e3}={q}" for (e1, e2, e3), q in sorted(entries.items())
        )
        return hashlib.sha256(text.encode()).hexdigest()

    def test_checksum_is_the_sha256_of_the_canonical_text(self):
        real, tampered = self.real_and_tampered()
        for entries in (real, tampered):
            assert tr.PushforwardTable(entries).checksum() == (
                self.sha256_of_canonical_text(entries))
        assert tr.PushforwardTable(tampered).checksum() != (
            tr.PushforwardTable(real).checksum())

    def test_checksum_falls_back_to_hashlib(self):
        # Neither builtin module imports, so only hashlib can hash.
        real, tampered = self.real_and_tampered()
        with mock.patch.dict(sys.modules, {"_sha2": None, "_sha256": None}):
            for entries in (real, tampered):
                assert tr.PushforwardTable(entries).checksum() == (
                    self.sha256_of_canonical_text(entries))

    def test_base_entry(self):
        table = tr.load_table()
        assert table.entry(0, 0, 0) == Fraction(1, 73156608000)
        assert table.entry(0, 1, 0) == 0
        assert table.entry(0, 0, 1) == 0

    def test_antisymmetric_pairs(self):
        t = tr.load_table()
        assert t.entry(2, 1, 0) == -t.entry(0, 3, 0)
        assert t.entry(1, 0, 2) == -t.entry(1, 1, 1)
        assert t.entry(0, 2, 1) == -t.entry(1, 1, 1)
        assert t.entry(0, 2, 0) == -t.entry(1, 1, 0)

    def test_unknown_exponent_triple(self):
        with pytest.raises(KeyError):
            tr.load_table().entry(4, 0, 0)

    def test_tampered_table_fails_verification(self):
        table = tr.load_table()
        broken = dict(table.entries)
        broken[(0, 2, 0)] = broken[(0, 2, 0)] + 1
        with pytest.raises(ValueError):
            tr.PushforwardTable(broken).verify()

    def test_generated_table_equals_the_frozen_one(self):
        raw = json.loads(FROZEN_TABLE.read_text())
        frozen = {
            tuple(item["exponents"]): Fraction(item["value"])
            for item in raw["entries"]
        }
        table = tr.load_table()
        assert len(frozen) == 20
        assert set(table.entries) == set(frozen)
        for exps, value in frozen.items():
            assert table.entry(*exps) == value, exps
        assert table.checksum() == tr.PushforwardTable(frozen).checksum() == (
            "624416250b2ddb2dc6299f1e5626d05941e3bd39f8a3d218072fe87c7340063d"
        )


# rho(g, r, d) = 0 exactly when g = (r+1)s and d = g + r - s for some s.
CASTELNUOVO_TRIPLES = [
    ((r + 1) * s, r, (r + 1) * s + r - s)
    for r in range(1, 20)
    for s in range(1, 21)
    if (r + 1) * s <= 20
]
# Catalan numbers C_k: the g^1_{k+1} on a general curve of genus 2k.
CATALAN = [1, 1, 2, 5, 14, 42, 132, 429, 1430, 4862, 16796]


class TestHarrisTuFormula:
    @pytest.mark.parametrize("g, r, d", CASTELNUOVO_TRIPLES)
    def test_castelnuovo_count(self, g, r, d):
        assert bn.rho(g, r, d) == 0
        count = math.factorial(g) * tr._harris_tu((0,) * (r + 1), g, r, d)
        classical = math.factorial(g) * math.prod(
            Fraction(math.factorial(i), math.factorial(g - d + r + i))
            for i in range(r + 1)
        )
        assert count == classical
        assert count.denominator == 1 and count > 0

    @pytest.mark.parametrize("k", range(1, 11))
    def test_pencils_in_even_genus_are_catalan(self, k):
        g, r, d = 2 * k, 1, k + 1
        assert (g, r, d) in CASTELNUOVO_TRIPLES
        assert bn.rho(g, r, d) == 0
        count = math.factorial(g) * tr._harris_tu((0, 0), g, r, d)
        assert count == CATALAN[k]

    def test_every_rho_zero_triple_is_listed(self):
        found = {
            (g, r, d)
            for g in range(1, 21)
            for r in range(1, g)
            for d in range(1, 2 * g - 1)
            if bn.rho(g, r, d) == 0 and g - d + r > 0
        }
        assert found == set(CASTELNUOVO_TRIPLES)


class TestIntegrateOverW:
    def test_theta_cubed(self):
        assert tr.integrate_over_W(THETA**3) == FACT21 // 73156608000

    def test_theta_squared_c1(self):
        # only the x1 root contributes on the linear level
        expected = Fraction(FACT21, 219469824000)
        assert tr.integrate_over_W(THETA**2 * C1) == expected

    def test_degree_above_three_vanishes(self):
        assert tr.integrate_over_W(THETA * C3) == 0
        assert tr.integrate_over_W(THETA**4) == 0

    def test_degree_below_three_is_an_error(self):
        with pytest.raises(ValueError):
            tr.integrate_over_W(THETA**2)

    def test_curve_classes_are_rejected(self):
        with pytest.raises(ValueError):
            tr.integrate_over_W(ETA * THETA**2)

    def test_linearity(self):
        a = tr.integrate_over_W(THETA**3)
        b = tr.integrate_over_W(C1 * THETA**2)
        assert tr.integrate_over_W(2 * THETA**3 + 3 * C1 * THETA**2) == 2 * a + 3 * b

    def test_picard_genus_is_fixed_by_the_table(self):
        # The table is for Pic^21; another cap would silently be wrong.
        with pytest.raises(TypeError):
            tr.integrate_over_W(THETA**3, picard_genus=20)
        # A table for another locus would be capped with 21! as well.
        with pytest.raises(TypeError):
            tr.integrate_over_W(THETA**3, table=tr.load_table())
        assert tr.integrate_over_W(THETA**3) == 698377680


# -- kernel symbol and bundles ------------------------------------------


class TestKernelPoly:
    def test_cubic_powers_are_rejected(self):
        k = KernelPoly.symbol()
        with pytest.raises(KernelDegreeError):
            k * k * k
        with pytest.raises(KernelDegreeError, match="degree >= 3"):
            k * (k * k)

    def test_homogeneity_counts_the_symbol(self):
        k = KernelPoly.symbol()
        expr = k * THETA + KernelPoly.ambient(THETA**2)
        assert expr.is_homogeneous(2)
        assert not expr.is_homogeneous(1)
        assert not (k * k + THETA).is_homogeneous(2)

    def test_scalar_products_from_either_side(self):
        k = KernelPoly.symbol()
        half = Fraction(1, 2) * ONE
        assert Fraction(1, 2) * k == KernelPoly(linear=half)
        assert k * Fraction(1, 2) == KernelPoly(linear=half)
        assert 3 * (k + THETA) == KernelPoly(3 * THETA, 3 * ONE)

    def test_subtraction_and_negation(self):
        k = KernelPoly.symbol()
        assert THETA - k == KernelPoly(THETA, -ONE)
        assert -(k * k) == KernelPoly(square=-ONE)
        assert (k - k) * (k * k) == KernelPoly()

    def test_mixed_arithmetic(self):
        k = KernelPoly.symbol()
        e = (k + THETA) * (k - THETA)
        assert e.square == ONE
        assert e.linear == ZERO
        assert e.const == -(THETA**2)


# The genus-22 bundle data as the literals the pipeline once stored; the
# derived data must reproduce them exactly.
K = KernelPoly.symbol()
OLD_KERNEL_LINES = {
    "C1": (  # U on X
        -(C3 - 6 * ETA * THETA * C1 + (74 * ETA + 2 * GAMMA) * C2),
        (74 * ETA + 2 * GAMMA) * C3 - 6 * ETA * THETA * C2,
    ),
    "C0": (  # V on Y
        -(C3 + (16 * ETA + GAMMA) * C2 - 2 * ETA * THETA * C1),
        (16 * ETA + GAMMA) * C3 - 2 * ETA * THETA * C2,
    ),
}
OLD_E_C1 = KernelPoly.ambient(-THETA + C1) + K
OLD_E_C2 = (
    KernelPoly.ambient(Fraction(1, 2) * THETA * THETA + C2 - THETA * C1)
    + K * C1
    - K * THETA
)
_OLD_A2_C1 = -4 * THETA - 4 * GAMMA - 28 * ETA
_OLD_B2_C1 = -4 * THETA + 7 * ETA - 2 * GAMMA
OLD_F = {
    "C1": (
        KernelPoly.ambient(_OLD_A2_C1) + 2 * K,
        KernelPoly.ambient(
            8 * THETA * THETA + 104 * ETA * THETA + 16 * GAMMA * THETA
        )
        + 2 * (K * _OLD_A2_C1),
    ),
    "C0": (
        KernelPoly.ambient(_OLD_B2_C1) + 2 * K,
        KernelPoly.ambient(
            8 * THETA * THETA - 28 * ETA * THETA + 8 * THETA * GAMMA
        )
        + 2 * (K * _OLD_B2_C1),
    ),
}


def derived_E():
    return tr._with_line(tr.ChernData(6, tr._A_C1, tr._A_C2), K)


def e1_e2(values):
    """First two elementary symmetric functions, in plain integers."""
    e2 = sum(values[i] * values[j] for i in range(len(values)) for j in range(i))
    return sum(values), e2


class TestBundles:
    @pytest.mark.parametrize("side", ["C1", "C0"])
    def test_kernel_lines_are_chern_shifts(self, side):
        surface, _ = tr._SIDES[side]
        pairing, square = OLD_KERNEL_LINES[side]
        assert -tr._shift(surface) == pairing
        assert tr._shift(tr._shift(surface)) == square

    def test_shift_raises_the_chern_index(self):
        assert tr._shift(THETA) == THETA * C1
        assert tr._shift(ETA * C1 + 3 * C2) == ETA * C2 + 3 * C3
        assert tr._shift(GAMMA * C3) == ZERO
        with pytest.raises(ValueError):
            tr._shift(C1 * C1)

    def test_e_is_a_plus_the_kernel_line(self):
        E = derived_E()
        assert E.rank == 7
        assert E.c1 == OLD_E_C1
        assert E.c2 == OLD_E_C2

    @pytest.mark.parametrize("side", ["C1", "C0"])
    def test_f_is_the_base_plus_the_squared_kernel_line(self, side):
        _, base = tr._SIDES[side]
        F = tr._with_line(base, 2 * K)
        assert base.rank == 28 and F.rank == 29
        assert (F.c1, F.c2) == OLD_F[side]

    def test_sym2_of_rank_seven(self):
        E = derived_E()
        S = tr.chern_of_sym2(E)
        assert S.rank == 28
        assert S.c1 == 8 * E.c1
        assert S.c2 == 27 * E.c1 * E.c1 + 9 * E.c2

    @pytest.mark.parametrize("rank", range(1, 9))
    def test_sym2_closed_form_at_every_rank(self, rank):
        rng = random.Random(rank)
        for _ in range(5):
            roots = [rng.randint(-9, 9) for _ in range(rank)]
            e1, e2 = e1_e2(roots)
            # Sym^2 has the roots x_i + x_j with i <= j
            s1, s2 = e1_e2(
                [roots[i] + roots[j] for i in range(rank) for j in range(i, rank)]
            )
            # c_i scaled by theta^i keeps the classes homogeneous
            S = tr.chern_of_sym2(tr.ChernData(rank, e1 * THETA, e2 * THETA**2))
            assert S.rank == rank * (rank + 1) // 2
            assert S.c1 == s1 * THETA
            assert S.c2 == s2 * THETA**2


class TestDegeneracyPipeline:
    def test_totals(self):
        assert tr.degeneracy_total("C1") == 29247210720
        assert tr.degeneracy_total("C0") == 4847375988

    def test_unknown_side(self):
        with pytest.raises(ValueError):
            tr.degeneracy_total("C2")

    def test_solution(self):
        a, b0, b1 = tr.solve_d22()
        assert (a, b0, b1) == (862692948, 132822768, 731180268)
        assert Fraction(a, b0) == Fraction(17121, 2636)
        assert a - 12 * b0 + b1 == 0
