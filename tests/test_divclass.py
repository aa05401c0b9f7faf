"""Divisor-class arithmetic, slopes, and the named classes."""

import json
import random
import re
from fractions import Fraction

import pytest

from mgbar import divclass as dc


def make(g, a, *bs, flags=()):
    """Shorthand: a*lambda - sum(b_j delta_j), b's given positively."""
    return dc.DivisorClass(
        g, Fraction(a), tuple(Fraction(-b) for b in bs), frozenset(flags)
    )


class TestDivisorClass:
    def test_coefficient_count_is_checked(self):
        with pytest.raises(ValueError):
            dc.DivisorClass(4, Fraction(1), (Fraction(0),) * 5)

    def test_addition_requires_same_genus(self):
        with pytest.raises(ValueError):
            dc.canonical_coarse(4) + dc.canonical_coarse(6)

    def test_addition_and_scaling(self):
        k = dc.canonical_coarse(6)
        assert (k + k) == 2 * k
        assert -k == (-1) * k and (-k).lambda_coeff == -13
        assert k - k == dc.DivisorClass.zero(6)
        assert (3 * k).lambda_coeff == 39

    @pytest.mark.parametrize("scalar", [True, False, 1.0])
    def test_scaling_by_a_non_rational_is_refused(self, scalar):
        # A bool is no rational 1 or 0.
        k = dc.kappa1(4)
        with pytest.raises(TypeError, match="unsupported operand"):
            scalar * k
        with pytest.raises(TypeError, match="unsupported operand"):
            k * scalar

    def test_negative_scaling_of_lower_bounds_is_refused(self):
        d = make(6, 1, 1, 1, 1, 1, flags={2})
        with pytest.raises(ValueError):
            (-1) * d
        assert (0 * d).lower_bound_deltas == frozenset()

    def test_flag_union_under_addition(self):
        a = make(6, 1, 1, 1, 1, 1, flags={2})
        b = make(6, 1, 1, 1, 1, 1, flags={3})
        assert (a + b).lower_bound_deltas == {2, 3}

    def test_json_round_trip_preserves_flags(self):
        d = dc.d22_class()
        blob = json.dumps(d.to_json_dict())
        back = dc.DivisorClass.from_json_dict(json.loads(blob))
        assert back == d
        assert back.lower_bound_deltas == d.lower_bound_deltas

    def test_str_marks_lower_bounds(self):
        d = make(6, 5, 1, 2, 3, 4, flags={2})
        assert "(lower bound)" in str(d)
        assert "5*lambda" in str(d)

    def test_genus_guard(self):
        top = dc.MAX_GENUS
        assert len(dc.canonical_stack(top).delta_coeffs) == top // 2 + 1
        message = f"genus {top + 1} exceeds the guard ({top})"
        for build in (dc.canonical_coarse, dc.canonical_stack, dc.kappa1,
                      lambda g: dc.lambda_chern_n(g, 2),
                      lambda g: dc.test_curve("B", g),
                      lambda g: dc.DivisorClass(g, 1, ()),
                      lambda g: dc.CurveNumbers(g, 1, ())):
            with pytest.raises(ValueError, match=re.escape(message)):
                build(top + 1)
        with pytest.raises(ValueError, match="exceeds the guard"):
            dc.koszul_odd_class((top - 2) // 2)
        assert dc.koszul_odd_class((top - 3) // 2).genus <= top


class TestCanonicalClasses:
    def test_genus_three_special_case(self):
        k = dc.canonical_coarse(3)
        assert k.lambda_coeff == 4
        assert k.delta_coeffs == (Fraction(-1), Fraction(0))

    def test_general_shape(self):
        k = dc.canonical_coarse(10)
        assert k.lambda_coeff == 13
        assert k.delta_coeffs == (-2, -3, -2, -2, -2, -2)

    def test_minimum_genus(self):
        with pytest.raises(ValueError):
            dc.canonical_coarse(2)

    def test_stack_minus_coarse_is_delta_one(self):
        diff = dc.canonical_stack(22) + (-1) * dc.canonical_coarse(22)
        expected = dc.DivisorClass(
            22, Fraction(0),
            tuple(Fraction(1 if j == 1 else 0) for j in range(12)),
        )
        assert diff == expected

    def test_kappa_one(self):
        k = dc.kappa1(8)
        assert k.lambda_coeff == 12
        assert set(k.delta_coeffs) == {Fraction(-1)}

    def test_lambda_chern_n(self):
        g = 9
        lam = dc.lambda_chern_n(g, 1)
        assert lam.lambda_coeff == 1 and not any(lam.delta_coeffs)
        # weight C(n,2) on kappa1
        assert dc.lambda_chern_n(g, 3) == lam + 3 * dc.kappa1(g)
        with pytest.raises(ValueError):
            dc.lambda_chern_n(g, 0)


class TestSlope:
    def test_zero_class(self):
        assert dc.slope(dc.DivisorClass.zero(5)) == 0

    def test_canonical_slopes(self):
        for g in range(4, 41):
            assert dc.slope(dc.canonical_coarse(g)) == Fraction(13, 2)

    def test_genus_three_canonical_has_a_zero_coefficient(self):
        assert dc.slope(dc.canonical_coarse(3)) is dc.INFINITE

    def test_negative_lambda_or_delta_gives_infinite(self):
        assert dc.slope(make(6, -1, 1, 1, 1, 1)) is dc.INFINITE
        assert dc.slope(make(6, 1, 1, -1, 1, 1)) is dc.INFINITE

    def test_infinite_compares_above_rationals(self):
        s = dc.slope(make(6, 1, 1, -1, 1, 1))
        assert s > Fraction(10**12)
        assert not (s < Fraction(10**12))
        assert s >= Fraction(10**12) and not s <= Fraction(10**12)
        assert s <= dc.INFINITE and s >= dc.INFINITE

    def test_lower_bound_above_minimum_is_harmless(self):
        d = make(6, 13, 2, 3, 5, 5, flags={2})
        assert dc.slope(d) == Fraction(13, 2)

    def test_lower_bound_below_minimum_is_undetermined(self):
        d = make(6, 13, 2, 3, 1, 3, flags={2})
        with pytest.raises(dc.SlopeUndeterminedError):
            dc.slope(d)

    def test_all_flagged_is_undetermined(self):
        d = make(4, 13, 2, 3, 2, flags={0, 1, 2})
        with pytest.raises(dc.SlopeUndeterminedError):
            dc.slope(d)

    def test_negative_flagged_is_undetermined(self):
        d = make(4, 13, 2, -3, 2, flags={1})
        with pytest.raises(dc.SlopeUndeterminedError):
            dc.slope(d)

    def test_bound_values(self):
        assert dc.slope_conjecture_bound(22) == Fraction(150, 23)
        assert dc.slope_conjecture_bound(10) == Fraction(78, 11)


class TestTestCurves:
    def test_curve_numbers(self):
        g = 22
        c0 = dc.test_curve("C0", g)
        assert (c0.lambda_pairing, c0.delta_pairings[0], c0.delta_pairings[1]) == (
            0, -42, 1,
        )
        c1 = dc.test_curve("C1", g)
        assert c1.delta_pairings[1] == -40
        r = dc.test_curve("R", g)
        assert (r.lambda_pairing, r.delta_pairings[0], r.delta_pairings[1]) == (
            1, 12, -1,
        )
        b = dc.test_curve("B", g)
        assert (b.lambda_pairing, b.delta_pairings[0]) == (23, 150)

    # (lambda, delta_0, delta_1) pairings at g = 3..12; no curve meets a
    # delta_j with j >= 2
    PINNED = {
        "C0": [(0, -4, 1), (0, -6, 1), (0, -8, 1), (0, -10, 1), (0, -12, 1),
               (0, -14, 1), (0, -16, 1), (0, -18, 1), (0, -20, 1), (0, -22, 1)],
        "C1": [(0, 0, -2), (0, 0, -4), (0, 0, -6), (0, 0, -8), (0, 0, -10),
               (0, 0, -12), (0, 0, -14), (0, 0, -16), (0, 0, -18), (0, 0, -20)],
        "R": [(1, 12, -1)] * 10,
        "B": [(4, 36, 0), (5, 42, 0), (6, 48, 0), (7, 54, 0), (8, 60, 0),
              (9, 66, 0), (10, 72, 0), (11, 78, 0), (12, 84, 0), (13, 90, 0)],
    }

    @pytest.mark.parametrize("kind", PINNED)
    def test_pinned_numbers(self, kind):
        for g, (lam, d0, d1) in zip(range(3, 13), self.PINNED[kind]):
            c = dc.test_curve(kind, g)
            assert c == dc.CurveNumbers(
                g, lam, (d0, d1) + (0,) * (g // 2 - 1)), (kind, g)
            assert all(type(x) is Fraction for x in (
                c.lambda_pairing, *c.delta_pairings))

    def test_unknown_kind(self):
        for kind in ("Q", "c0", ["C0"], None):
            message = (f"unknown test curve {kind!r}; "
                       "expected one of ('C0', 'C1', 'R', 'B')")
            with pytest.raises(ValueError, match=re.escape(message)):
                dc.test_curve(kind, 5)

    def test_checks_come_before_the_kind(self):
        # integer, then genus >= 3, then the genus guard, then the kind
        with pytest.raises(TypeError, match="expected an integer"):
            dc.test_curve("Q", 3.0)
        with pytest.raises(ValueError, match=re.escape("need genus >= 3")):
            dc.test_curve("Q", 2)
        with pytest.raises(ValueError, match="exceeds the guard"):
            dc.test_curve("Q", dc.MAX_GENUS + 1)

    @pytest.mark.parametrize("genus", [1, 0, -5])
    def test_curve_numbers_need_genus_two(self, genus):
        # the lambda, delta_0, ..., delta_{g//2} basis rule DivisorClass keeps
        for build in (dc.CurveNumbers, dc.DivisorClass):
            with pytest.raises(ValueError) as info:
                build(genus, 1, [1])
            assert str(info.value) == "genus must be at least 2"

    def test_reference_pairings(self):
        g = 22
        r = dc.test_curve("R", g)
        assert dc.pair(r, dc.kappa1(g)) == 1
        assert dc.pair(r, dc.canonical_stack(g)) == -9

    def test_pair_genus_mismatch(self):
        with pytest.raises(ValueError):
            dc.pair(dc.test_curve("R", 6), dc.canonical_coarse(8))

    def test_pair_is_bilinear_in_the_class(self):
        rng = random.Random(7)
        g = 8
        curves = [dc.test_curve(k, g) for k in ("C0", "C1", "R", "B")]
        for _ in range(100):
            a = make(g, rng.randint(-9, 9), *[rng.randint(-9, 9) for _ in range(5)])
            b = make(g, rng.randint(-9, 9), *[rng.randint(-9, 9) for _ in range(5)])
            s = Fraction(rng.randint(-5, 5))
            for c in curves:
                assert dc.pair(c, a + b) == dc.pair(c, a) + dc.pair(c, b)
                assert dc.pair(c, s * a) == s * dc.pair(c, a)

    def test_pair_refuses_flagged_coefficients_it_touches(self):
        g = 6
        d = make(g, 1, 1, 1, 1, 1, flags={1})
        with pytest.raises(dc.SlopeUndeterminedError):
            dc.pair(dc.test_curve("C1", g), d)
        # C0 meets delta_0 and delta_1 but not delta_2
        d2 = make(g, 1, 1, 1, 1, 1, flags={2})
        assert dc.pair(dc.test_curve("C0", g), d2) == 10 - 1


class TestNamedClasses:
    def test_koszul_odd_base_case(self):
        d = dc.koszul_odd_class(0)
        assert d.genus == 3
        assert d.lambda_coeff == 9
        assert d.delta_coeffs == (Fraction(-1), Fraction(-3))

    @pytest.mark.parametrize("i", range(0, 11))
    def test_koszul_odd_slope_meets_the_bound(self, i):
        g = 2 * i + 3
        assert dc.slope(dc.koszul_odd_class(i)) == dc.slope_conjecture_bound(g)

    def test_koszul_odd_flags_higher_boundaries(self):
        d = dc.koszul_odd_class(1)  # genus 5
        assert d.lower_bound_deltas == {2}

    def test_koszul_even_values(self):
        assert dc.koszul_even_slope(0) == 7
        assert dc.koszul_even_slope(2) == Fraction(1665, 256)
        for i in range(0, 6):
            g = 6 * i + 10
            assert dc.koszul_even_slope(i) < dc.slope_conjecture_bound(g)

    def test_gieseker_petri_values(self):
        assert dc.gieseker_petri_slope(2, 2) == Fraction(47, 6)
        assert dc.gieseker_petri_slope(1, 1) == 10
        assert dc.gieseker_petri_slope(1, 1) == dc.slope_conjecture_bound(2)

    def test_d22_class_and_slope(self):
        d = dc.d22_class()
        assert d.genus == 22
        assert d.lambda_coeff == 862692948
        assert d.delta_coeffs[0] == -132822768
        assert d.delta_coeffs[1] == -731180268
        assert d.lower_bound_deltas == frozenset(range(2, 12))
        assert dc.slope(d) == Fraction(17121, 2636)

    def test_d22_pairs_against_the_sweeping_curves(self):
        d = dc.d22_class()
        assert dc.pair(dc.test_curve("C1", 22), d) == 29247210720
        assert dc.pair(dc.test_curve("C0", 22), d) == 4847375988


class TestWitnesses:
    def test_general_type_witness(self):
        assert dc.general_type_witness(dc.d22_class())
        assert not dc.general_type_witness(dc.canonical_coarse(22))
        # a = 0
        assert not dc.general_type_witness(dc.DivisorClass.zero(5))
        # a/b_0 is exactly 13/2, not below it
        assert not dc.general_type_witness(dc.canonical_coarse(5))
        # a/b_0 = 6 passes, a/b_1 = 6 > 13/3 does not
        assert not dc.general_type_witness(dc.DivisorClass(5, 12, (-2, -2, -2)))

    def test_k3_obstruction_for_the_degeneracy_class(self):
        # slope 17121/2636 sits below 150/23, and the pencil pairing
        # agrees; the function cross-checks both routes internally
        assert dc.k3_obstruction(dc.d22_class())

    def test_k3_obstruction_for_the_canonical_class(self):
        assert dc.k3_obstruction(dc.canonical_coarse(22))

    def test_k3_obstruction_negative_case(self):
        # slope 8 exceeds 6 + 12/11, so no containment is forced
        d = make(10, 16, 2, 2, 2, 2, 2, 2)
        assert not dc.k3_obstruction(d)


def test_rational_string_round_trip():
    for q in (Fraction(3, 7), Fraction(-13, 2), Fraction(5), Fraction(0)):
        assert dc.rational_from_str(dc.rational_to_str(q)) == q
