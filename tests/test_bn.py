"""Brill-Noether counts, limit series, bundles, Severi and liaison."""

import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from mgbar import bn


class TestRho:
    def test_reference_value(self):
        assert bn.rho(22, 6, 25) == 1

    @given(
        st.integers(2, 40), st.integers(0, 8), st.integers(0, 80)
    )
    @settings(max_examples=300, deadline=None)
    def test_residuation_duality(self, g, r, d):
        r_dual = g - d + r - 1
        if r_dual < 0:
            return
        assert bn.rho(g, r, d) == bn.rho(g, r_dual, 2 * g - 2 - d)

    def test_canonical_is_rho_zero_boundary(self):
        for g in range(2, 30):
            assert bn.rho(g, g - 1, 2 * g - 2) == 0


class TestLinearSeriesData:
    def test_vanishing_length(self):
        with pytest.raises(ValueError):
            bn.LinearSeriesData(4, 2, 6, (0, 1))

    def test_vanishing_monotone(self):
        with pytest.raises(ValueError):
            bn.LinearSeriesData(4, 2, 6, (0, 2, 2))

    def test_ramification_window(self):
        with pytest.raises(ValueError):
            bn.LinearSeriesData(4, 1, 4, (0, 5))  # a_1 = 5 > d
        series = bn.LinearSeriesData(4, 1, 4, (1, 3))
        assert series.ramification == (1, 2)

    def test_accepted_sequences_exhaustive(self):
        # Every sequence of length <= r + 2 with entries in -2..d+2.
        for r in range(4):
            for d in range(6):
                entries = range(-2, d + 3)
                for length in range(r + 3):
                    for seq in itertools.product(entries, repeat=length):
                        valid = (len(seq) == r + 1
                                 and all(a < b for a, b in zip(seq, seq[1:]))
                                 and 0 <= seq[0] and seq[-1] <= d)
                        try:
                            series = bn.LinearSeriesData(0, r, d, seq)
                        except ValueError:
                            assert not valid, (r, d, seq)
                            continue
                        assert valid, (r, d, seq)
                        assert all(0 <= alpha <= d - r
                                   for alpha in series.ramification), seq

    def test_no_vanishing_data(self):
        with pytest.raises(ValueError):
            _ = bn.LinearSeriesData(4, 1, 4).ramification


class TestTreeCurve:
    def test_genus_adds_over_components(self):
        curve = bn.TreeCurve((2, 1, 0), ((0, 1), (1, 2)))
        assert curve.arithmetic_genus == 3
        assert curve.degree(1) == 2

    def test_cycle_rejected(self):
        with pytest.raises(ValueError):
            bn.TreeCurve((1, 1, 1), ((0, 1), (1, 2), (2, 0)))

    def test_disconnected_graph_with_tree_edge_count_has_a_cycle(self):
        # n - 1 edges that miss a component must close a cycle elsewhere.
        with pytest.raises(ValueError, match="edges contain a cycle"):
            bn.TreeCurve((1, 1, 1, 1), ((0, 1), (1, 2), (2, 0)))

    def test_wrong_edge_count_rejected(self):
        with pytest.raises(ValueError):
            bn.TreeCurve((1, 1, 1), ((0, 1),))

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError):
            bn.TreeCurve((1, 1), ((0, 0),))


def elliptic_tail_aspects(g):
    """The canonical-series aspects on a genus-(g-1) component with an
    elliptic tail: vanishing (0,2,3,...,g) and (g-2,...,2g-4,2g-2)."""
    main = bn.LinearSeriesData(
        g - 1, g - 1, 2 * g - 2, (0,) + tuple(range(2, g + 1))
    )
    tail = bn.LinearSeriesData(
        1, g - 1, 2 * g - 2, tuple(range(g - 2, 2 * g - 3)) + (2 * g - 2,)
    )
    return main, tail


class TestLimitSeries:
    @pytest.mark.parametrize("g", range(3, 12))
    def test_canonical_aspects_are_compatible(self, g):
        curve = bn.TreeCurve((g - 1, 1), ((0, 1),))
        assert bn.limit_series_compatible(curve, elliptic_tail_aspects(g))

    def test_compatibility_is_tight(self):
        # every inequality holds with equality, so any drop breaks it
        g = 6
        curve = bn.TreeCurve((g - 1, 1), ((0, 1),))
        main, tail = elliptic_tail_aspects(g)
        worse = bn.LinearSeriesData(
            g - 1, g - 1, 2 * g - 2, tuple(range(g))
        )
        assert not bn.limit_series_compatible(curve, [worse, tail])

    def test_aspects_must_share_r_and_d(self):
        curve = bn.TreeCurve((2, 1), ((0, 1),))
        a = bn.LinearSeriesData(2, 1, 4, (0, 4))
        b = bn.LinearSeriesData(1, 1, 5, (1, 5))
        with pytest.raises(ValueError):
            bn.limit_series_compatible(curve, [a, b])

    def test_interior_component_needs_explicit_data(self):
        curve = bn.TreeCurve((1, 1, 1), ((0, 1), (1, 2)))
        aspects = [bn.LinearSeriesData(1, 1, 4, (0, 4)) for _ in range(3)]
        with pytest.raises(ValueError):
            bn.limit_series_compatible(curve, aspects)

    def test_node_vanishing_mapping(self):
        curve = bn.TreeCurve((1, 1, 1), ((0, 1), (1, 2)))
        aspects = [bn.LinearSeriesData(1, 1, 4) for _ in range(3)]
        node = {
            (0, 1): (0, 4),
            (1, 0): (0, 4),
            (1, 2): (0, 4),
            (2, 1): (0, 4),
        }
        assert bn.limit_series_compatible(curve, aspects, node)
        node[(1, 0)] = (0, 3)
        assert not bn.limit_series_compatible(curve, aspects, node)
        del node[(1, 0)]
        with pytest.raises(ValueError):
            bn.limit_series_compatible(curve, aspects, node)


class TestFormalBundle:
    def test_tensor_rank_and_degree(self):
        a = bn.FormalBundle(2, 3, 5)
        b = bn.FormalBundle(3, -1, 5)
        t = a.tensor(b)
        assert (t.rank, t.degree) == (6, 7)

    def test_tensor_needs_one_curve(self):
        with pytest.raises(ValueError):
            bn.FormalBundle(2, 3, 5).tensor(bn.FormalBundle(2, 3, 6))

    def test_dual_is_an_involution(self):
        e = bn.FormalBundle(4, -7, 9)
        assert e.dual().dual() == e
        assert e.dual().degree == 7

    def test_power_edge_cases(self):
        e = bn.FormalBundle(4, 6, 9)
        assert e.exterior_power(0) == bn.FormalBundle(1, 0, 9)
        assert e.exterior_power(1) == e
        assert e.sym_power(1) == e
        assert e.exterior_power(4).rank == 1
        with pytest.raises(ValueError):
            e.exterior_power(5)

    def test_euler_characteristic(self):
        e = bn.FormalBundle(3, 10, 4)
        assert e.euler_char() == 10 + 3 * (1 - 4)
        assert e.mu() == Fraction(10, 3)

    def test_syzygy_bundle_slopes(self):
        for g in range(3, 25):
            mk = bn.canonical_syzygy_bundle(g)
            assert (mk.rank, mk.degree) == (g - 1, -(2 * g - 2))
            for i in range(0, g - 1):
                tw = mk.exterior_power(i).tensor(
                    bn.canonical_bundle(g).sym_power(2)
                )
                assert tw.mu() == 4 * g - 4 - 2 * i
                expected = (g - 1) * (
                    3 * math.comb(g - 1, i)
                    - 2 * (math.comb(g - 2, i - 1) if i else 0)
                )
                assert tw.euler_char() == expected

    @pytest.mark.parametrize("i", range(0, 16))
    def test_balanced_rank_check(self, i):
        assert bn.balanced_rank_check(i)


class TestCounts:
    def test_koszul_threshold(self):
        assert bn.koszul_threshold(7, 1) == 17

    def test_koszul_threshold_domain(self):
        with pytest.raises(ValueError):
            bn.koszul_threshold(7, 4)

    def test_quadric_counts(self):
        assert bn.quadric_count(14, 6, 18) == 5
        assert bn.quadric_count(22, 6, 25) == -1

    @pytest.mark.parametrize("r", [-1, -2, -3, -10])
    def test_negative_r_is_refused_by_name(self, r):
        with pytest.raises(ValueError, match=r"quadric count needs r >= 0"):
            bn.quadric_count(14, r, 18)
        assert bn.quadric_count(0, 0, 0) == 0  # r = 0 is accepted


class TestSeveri:
    def test_feasible_genus_ten(self):
        r = bn.severi_analyze(10)
        assert (r.d_min, r.delta, r.dim_U, r.feasible) == (9, 18, 36, True)

    def test_infeasible_genus_eleven(self):
        r = bn.severi_analyze(11)
        assert (r.d_min, r.delta, r.dim_U, r.feasible) == (10, 25, 40, False)

    def test_low_genus(self):
        r = bn.severi_analyze(1)
        assert r.d_min == 3 and r.feasible

    def test_feasibility_window(self):
        feasible = [g for g in range(3, 31) if bn.severi_analyze(g).feasible]
        assert feasible == list(range(3, 11))

    def test_minimal_degree_is_the_first_with_rho_nonnegative(self):
        for g in range(1, 400):
            d = 0
            while bn.rho(g, 2, d) < 0:
                d += 1
            assert bn.severi_analyze(g).d_min == d, g

    def test_huge_genus_is_closed_form(self):
        g = 10**40
        r = bn.severi_analyze(g)
        d = (2 * g + 8) // 3
        assert r == bn.SeveriReport(d, math.comb(d - 1, 2) - g, 3 * d + g - 1,
                                    False)


class TestLiaison:
    def test_reference_links(self):
        a = bn.liaison_solve(14, 18, 6)
        assert (a.f, a.d_res, a.g_res, a.intersections) == (2, 14, 8, 28)
        b = bn.liaison_solve(11, 14, 4)
        assert (b.f, b.d_res, b.g_res, b.intersections) == (3, 13, 9, 36)

    def test_infeasible_ambient(self):
        # (r+2)/(r-2) is only integral for r in {3, 4, 6}
        assert bn.liaison_solve(5, 9, 5) is bn.INFEASIBLE
        assert not bn.liaison_solve(5, 9, 5)
        assert repr(bn.INFEASIBLE) == "INFEASIBLE"

    def test_small_r_is_an_error(self):
        with pytest.raises(ValueError):
            bn.liaison_solve(3, 5, 2)

    @pytest.mark.parametrize("r", [3, 4, 6])
    def test_negative_residual_degree_is_infeasible(self, r):
        # The complete intersection has degree f^(r-1); a curve of higher
        # degree does not lie on it.
        f = (r + 2) // (r - 2)
        top, k = f ** (r - 1), (r - 1) * f - r - 1
        assert bn.liaison_solve(200, top + 5, r) is bn.INFEASIBLE
        assert bn.liaison_solve(k * top, top + 1, r) is bn.INFEASIBLE
        # Degree f^(r-1) itself links to the empty residual, genus 0.
        edge = bn.liaison_solve(k * top // 2, top, r)
        assert (edge.d_res, edge.g_res) == (0, 0)

    @pytest.mark.parametrize("g, d", [(-3, 5), (3, -5), (-1, -1)])
    def test_negative_genus_or_degree_is_an_error(self, g, d):
        with pytest.raises(ValueError, match=r"g >= 0 and d >= 0"):
            bn.liaison_solve(g, d, 3)

    def test_every_result_is_nonnegative(self):
        for r in (3, 4, 6):
            for d in range(0, 40):
                for g in range(0, 40):
                    link = bn.liaison_solve(g, d, r)
                    if link is not bn.INFEASIBLE:
                        assert link.d_res >= 0 and link.g_res >= 0

    def test_residuation_is_an_involution(self):
        rng = random.Random(3)
        seen = 0
        for _ in range(400):
            r = rng.choice((3, 4, 6))
            d = rng.randint(1, 40)
            g = rng.randint(0, 30)
            first = bn.liaison_solve(g, d, r)
            if first is bn.INFEASIBLE or first.d_res <= 0 or first.g_res < 0:
                continue
            back = bn.liaison_solve(first.g_res, first.d_res, r)
            if back is bn.INFEASIBLE:
                continue
            assert (back.d_res, back.g_res) == (d, g)
            assert back.intersections == first.intersections
            seen += 1
        assert seen > 50  # the sweep must actually exercise the property


class TestHilbertDim:
    def test_reference_values(self):
        assert bn.hilbert_dim(14, 8, 6) == 77
        assert bn.hilbert_dim(13, 9, 4) == 57
