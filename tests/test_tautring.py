"""Coefficient-ring normal form, pushforwards, and the degeneracy totals."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from mgbar import tautring as tr
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


# -- normal form -------------------------------------------------------


class TestNormalForm:
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

    def test_parser_rejects_unknown_symbols(self):
        with pytest.raises(ValueError):
            element_from_string("theta + psi")

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


# -- kernel symbol and bundles ------------------------------------------


class TestKernelPoly:
    def test_cubic_powers_are_rejected(self):
        k = KernelPoly.symbol()
        with pytest.raises(KernelDegreeError):
            k * k * k

    def test_homogeneity_counts_the_symbol(self):
        k = KernelPoly.symbol()
        expr = k * THETA + KernelPoly.ambient(THETA**2)
        assert expr.is_homogeneous(2)

    def test_mixed_arithmetic(self):
        k = KernelPoly.symbol()
        e = (k + THETA) * (k - THETA)
        assert e.square == ONE
        assert e.linear == ZERO
        assert e.const == -(THETA**2)


class TestBundles:
    def test_library_ranks(self):
        assert tr.bundle_library("A2").rank == 28
        assert tr.bundle_library("B2").rank == 28
        assert tr.bundle_library("E_on_X").rank == 7
        assert tr.bundle_library("F_on_X").rank == 29

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            tr.bundle_library("Q9")

    def test_sym2_of_rank_seven(self):
        E = tr.bundle_library("E_on_X")
        S = tr.chern_of_sym2(E)
        assert S.rank == 28
        assert S.c1 == 8 * E.c1
        assert S.c2 == 27 * E.c1 * E.c1 + 9 * E.c2

    def test_sym2_requires_rank_seven(self):
        bad = tr.ChernData(3, KernelPoly.ambient(C1), KernelPoly.ambient(C2))
        with pytest.raises(ValueError):
            tr.chern_of_sym2(bad)

    def test_restriction_shifts(self):
        A2 = tr.bundle_library("A2")
        F = tr.bundle_library("F_on_X")
        k = KernelPoly.symbol()
        assert F.c1 == KernelPoly.ambient(A2.c1) + 2 * k
        assert F.c2 == KernelPoly.ambient(A2.c2) + 2 * (k * A2.c1)


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
