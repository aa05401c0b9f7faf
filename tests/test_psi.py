"""Descendent integrals: seeds, closed forms, oracles that do not share the
recursion's pivot, the two reductions, and the recursion's work bounds."""

import hashlib
import itertools
import math
import random
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mgbar import cli, psi
from mgbar.psi import Correlator, correlator_value


def val(g, *exps):
    return correlator_value(Correlator(g, exps))


# The two seeds, memo entries like any other once met.
SEEDS = {(0, 0, 0): 2, (1,): 1}


def genus_of(exps):
    """The genus an on-dimension key fixes: ``sum(exps) = 3g - 3 + n``."""
    g, r = divmod(sum(exps) + 3 - len(exps), 3)
    assert r == 0, exps
    return g


def memo_digest():
    """Checksum of the non-seed memo entries as ``((g, exps), V)``, the
    shape the memo had when its keys carried the genus."""
    items = sorted(((genus_of(exps), exps), value)
                   for exps, value in psi._memo.items() if exps not in SEEDS)
    return hashlib.sha256(repr(items).encode()).hexdigest()[:16]


def val_or_zero(g, exps):
    """A correlator's value, with negative genus and unstable data read as 0."""
    if g < 0 or 2 * g - 2 + len(exps) <= 0:
        return Fraction(0)
    return val(g, *exps)


def double_factorial(n):
    return math.prod(range(n, 0, -2))


def dijkgraaf_two_point(g):
    """``[<tau_j tau_{3g-1-j}>_g for j in 0..3g-1]`` from Dijkgraaf's function

        sum <tau_j tau_k>_g x^j y^k = exp((x^3 + y^3)/24) / (x + y)
            * sum_n n!/(2n+1)! (xy(x+y)/2)^n,

    read off the degree-3g part of the numerator, divided by x + y.
    """
    c = [Fraction(0)] * (3 * g + 1)  # c[i] = [x^i y^(3g-i)] of the numerator
    for n in range(g + 1):
        s_n = Fraction(math.factorial(n), math.factorial(2 * n + 1) * 2**n)
        for t in range(n + 1):
            for p in range(g - n + 1):
                q = g - n - p
                c[3 * p + n + t] += s_n * math.comb(n, t) / (
                    24 ** (p + q) * math.factorial(p) * math.factorial(q)
                )
    f = []
    for i in range(3 * g):
        f.append(c[i] - (f[-1] if f else 0))
    assert c[3 * g] == f[-1]  # x + y divides the numerator
    return f


def dvv_on_largest(g, exps):
    """One DVV step pivoted on the largest exponent, every split written out:
    ordered pairs (a, b), every genus g1, and index subsets of the rest."""
    exps = sorted(exps)
    k = exps[-1] - 1
    rest = exps[:-1]
    total = Fraction(0)
    for j, a in enumerate(rest):
        weight = Fraction(double_factorial(2 * k + 2 * a + 1),
                          double_factorial(2 * a - 1))
        total += weight * val_or_zero(g, rest[:j] + [a + k] + rest[j + 1:])
    pairs = Fraction(0)
    for a in range(k):
        b = k - 1 - a
        term = val_or_zero(g - 1, rest + [a, b])
        for size in range(len(rest) + 1):
            for picked in itertools.combinations(range(len(rest)), size):
                left = [rest[t] for t in picked]
                right = [rest[t] for t in range(len(rest)) if t not in picked]
                for g1 in range(g + 1):
                    term += (val_or_zero(g1, [a] + left)
                             * val_or_zero(g - g1, [b] + right))
        pairs += double_factorial(2 * a + 1) * double_factorial(2 * b + 1) * term
    return (total + pairs / 2) / double_factorial(2 * k + 3)


def balanced(total, n):
    """``n`` exponents summing to ``total``, as even as possible, in the
    shape of the benchmark's many-point correlators."""
    return [total // n + (1 if k < total % n else 0) for k in range(n)]


def equal_exponent_cases():
    """Balanced on-dimension data at g <= 4 with a group of 4 to 8 equal
    exponents, with and without a ``tau_0`` in front."""
    for g in range(5):
        for n in range(4, 9):
            for exps in (balanced(3 * g - 3 + n, n),
                         [0] + balanced(3 * g - 2 + n, n)):
                if 4 <= max(map(exps.count, exps)) <= 8:
                    yield g, sorted(exps)


@st.composite
def pivotable_correlators(draw):
    """On-dimension stable data whose largest exponent is at least 2."""
    g = draw(st.integers(0, 3))
    n = draw(st.integers(max(1, 3 - 2 * g), 5))
    dim = 3 * g - 3 + n
    cuts = sorted(draw(st.lists(st.integers(0, dim), min_size=n - 1,
                                max_size=n - 1)))
    exps = [hi - lo for lo, hi in zip([0] + cuts, cuts + [dim])]
    assume(max(exps) >= 2)
    return g, exps


def on_dimension(max_genus, max_points):
    """Every on-dimension stable datum with g <= max_genus and
    n <= max_points."""
    for g in range(max_genus + 1):
        for n in range(max(1, 3 - 2 * g), max_points + 1):
            dim = 3 * g - 3 + n
            for exps in itertools.combinations_with_replacement(
                    range(dim + 1), n):
                if sum(exps) == dim:
                    yield g, list(exps)


def on_dimension_pivotable(max_genus, max_points):
    """The data of :func:`on_dimension` with largest exponent at least 2."""
    return [case for case in on_dimension(max_genus, max_points)
            if case[1][-1] >= 2]


def small_sweep():
    """pand_bound(12), then every on-dimension datum with g < 6, n < 6."""
    assert psi.pand_bound(12) == Fraction(15, 4)
    for g, exps in on_dimension(5, 5):
        val(g, *exps)


class TestCorrelator:
    @pytest.mark.parametrize("genus, exponents, kind", [
        (2, [2.7, 3.9], "float"),  # int() would truncate to <tau_2 tau_3>_2
        (2, [2.0, 3], "float"),
        (2.5, [3, 4], "float"),
        (True, [True], "bool"),
        (1, [True], "bool"),
        (0, [0, 0, False], "bool"),
        (2, ["2", 3], "str"),
    ])
    def test_non_integral_data_rejected(self, genus, exponents, kind):
        with pytest.raises(TypeError, match=f"^expected an integer, got {kind}$"):
            Correlator(genus, exponents)

    def test_exponents_are_sorted(self):
        assert Correlator(2, (3, 1, 2)).exponents == (1, 2, 3)

    def test_stability(self):
        with pytest.raises(ValueError):
            Correlator(0, (0, 0))
        with pytest.raises(ValueError):
            Correlator(0, ())
        # one marked point on an elliptic curve is stable
        assert Correlator(1, (1,)).dimension == 1

    def test_negative_data_rejected(self):
        with pytest.raises(ValueError):
            Correlator(-1, (0,))
        with pytest.raises(ValueError):
            Correlator(1, (-2,))

    def test_dimension_bookkeeping(self):
        c = Correlator(2, (2, 3))
        assert c.dimension == 5
        assert c.on_dimension()
        assert not Correlator(2, (2, 2)).on_dimension()


class TestKnownValues:
    def test_genus_zero_seed(self):
        assert val(0, 0, 0, 0) == 1

    def test_genus_one_seed(self):
        assert val(1, 1) == Fraction(1, 24)

    def test_classical_small_values(self):
        assert val(1, 0, 2) == Fraction(1, 24)
        assert val(1, 1, 1) == Fraction(1, 24)
        assert val(2, 2, 3) == Fraction(29, 5760)
        assert val(3, 1, 7) == Fraction(5, 82944)

    @pytest.mark.parametrize("g, exps, expected", [
        (2, (2, 3), Fraction(29, 5760)),
        (2, (2, 2, 2), Fraction(7, 240)),
        (3, (7,), Fraction(1, 82944)),
        (3, (2, 6), Fraction(77, 414720)),
        (3, (3, 5), Fraction(503, 1451520)),
        (3, (4, 4), Fraction(607, 1451520)),
    ])
    def test_frozen_table(self, g, exps, expected):
        # classical values, checked from a cold memo
        psi.cache_clear()
        assert val(g, *exps) == expected

    def test_off_dimension_vanishes(self):
        assert val(2, 2, 2) == 0
        assert val(1, 3) == 0

    def test_off_dimension_with_a_huge_exponent_is_immediate(self):
        start = time.process_time()
        assert val(0, 10**9, 0, 0) == 0
        assert time.process_time() - start < 0.5

    def test_one_point_guard(self):
        assert psi.psi_one_point(67) == Fraction(1, 24**67 * math.factorial(67))
        with pytest.raises(psi.ResourceLimitError,
                           match=r"moduli dimension 202 exceeds the guard \(200\)"):
            psi.psi_one_point(68)

    @pytest.mark.parametrize("g", range(1, 7))
    def test_one_point_closed_form(self, g):
        assert psi.psi_one_point(g) == Fraction(1, 24**g * math.factorial(g))
        assert val(g, 3 * g - 2) == psi.psi_one_point(g)

    def test_one_point_needs_positive_genus(self):
        with pytest.raises(ValueError):
            psi.psi_one_point(0)

    def test_genus_zero_closed_form(self):
        for n in range(3, 8):
            for exps in itertools.combinations_with_replacement(range(n - 2), n):
                if sum(exps) != n - 3:
                    continue
                expected = Fraction(math.factorial(n - 3))
                for a in exps:
                    expected /= math.factorial(a)
                assert val(0, *exps) == expected, exps


class TestIndependentOracles:
    """Checks that do not share the recursion's choice of pivot."""

    @pytest.mark.parametrize("g", range(2, 31))
    def test_tau_two_point_by_one_dvv_step(self, g):
        # DVV on tau_2: the bump term gives (6g-3)(6g-5) <tau_{3g-2}>_g and
        # the genus-lowering term <tau_0 tau_0 tau_{3g-3}>_{g-1}, which the
        # string equation turns into <tau_{3g-5}>_{g-1}; no split survives.
        expected = (
            Fraction((6 * g - 3) * (6 * g - 5), 24**g * math.factorial(g))
            + Fraction(1, 2 * 24 ** (g - 1) * math.factorial(g - 1))
        ) / 15
        assert val(g, 2, 3 * g - 3) == expected

    @pytest.mark.parametrize("g", range(1, 16))
    def test_dijkgraaf_two_point_function(self, g):
        expected = dijkgraaf_two_point(g)
        for j in range(3 * g):
            assert val(g, j, 3 * g - 1 - j) == expected[j], (g, j)

    @settings(max_examples=60, deadline=None)
    @given(pivotable_correlators())
    def test_dvv_pivoted_on_the_largest_exponent(self, case):
        g, exps = case
        assert dvv_on_largest(g, exps) == val(g, *exps)

    # Every such correlator up to genus 4 with five points (267 cases).  The
    # 36 with no exponent 0 or 1 take the split sum at the top; among them
    # the pivot meets every residue of -a mod 3, and 20 have a rest of
    # several exponent groups.
    @pytest.mark.parametrize("g, exps", list(on_dimension_pivotable(4, 5)))
    def test_dvv_pivoted_on_the_largest_exponent_exhaustively(self, g, exps):
        assert dvv_on_largest(g, exps) == val(g, *exps)

    # The grouped string and bump terms and the keys built by insertion
    # meet groups of every size from 4 to 8 here (35 cases).
    @pytest.mark.parametrize("g, exps", list(equal_exponent_cases()))
    def test_equal_exponents_by_string_and_largest_pivot(self, g, exps):
        psi.cache_clear()
        value = val(g, *exps)
        assert value > 0
        if exps[0] == 0:
            reduced = psi.string_reduce(Correlator(g, exps))
            assert value == sum(map(correlator_value, reduced), Fraction(0))
        if exps[-1] >= 2:
            assert value == dvv_on_largest(g, exps)


class TestReductions:
    def test_string_reduce_shape(self):
        c = Correlator(1, (0, 2, 0, 3))
        reduced = psi.string_reduce(c)
        assert sorted(r.exponents for r in reduced) == [
            (0, 1, 3),
            (0, 2, 2),
        ]

    def test_string_reduce_requires_a_zero(self):
        with pytest.raises(ValueError):
            psi.string_reduce(Correlator(1, (2, 3)))

    def test_string_reduce_refuses_unstable_forgetting(self):
        # <tau_0^3>_0 is a seed, not a string reduction
        with pytest.raises(ValueError):
            psi.string_reduce(Correlator(0, (0, 0, 0)))

    def test_string_equation_on_random_correlators(self):
        rng = random.Random(11)
        for _ in range(200):
            g = rng.randint(0, 3)
            n = rng.randint(2, 5)
            if 2 * g - 2 + n <= 0:
                continue  # forgetting the point must stay stable
            exps = [rng.randint(0, 4) for _ in range(n)]
            # try to land on the dimension constraint half the time
            deficit = (3 * g - 3 + n) - sum(exps)
            if rng.random() < 0.5 and 0 <= deficit <= 6:
                exps[0] += deficit
            with_zero = Correlator(g, exps + [0])
            lhs = correlator_value(with_zero)
            rhs = sum(
                (correlator_value(r) for r in psi.string_reduce(with_zero)),
                Fraction(0),
            )
            assert lhs == rhs, (g, exps)

    def test_dilaton_equation_on_random_correlators(self):
        rng = random.Random(13)
        for _ in range(200):
            g = rng.randint(0, 3)
            n = rng.randint(2, 5)
            exps = [rng.randint(0, 4) for _ in range(n)]
            deficit = (3 * g - 3 + n) - sum(exps)
            if rng.random() < 0.5 and 0 <= deficit <= 6:
                exps[0] += deficit
            if 2 * g - 2 + n <= 0:
                continue
            with_one = Correlator(g, exps + [1])
            lhs = correlator_value(with_one)
            rhs = (2 * g - 2 + n) * correlator_value(Correlator(g, exps))
            assert lhs == rhs, (g, exps)


class TestGuards:
    def test_resource_limit(self):
        with pytest.raises(psi.ResourceLimitError):
            correlator_value(Correlator(70, (208,)))

    def test_limit_is_about_dimension_not_value(self):
        # comfortably inside the guard
        assert val(10, 28) == psi.psi_one_point(10)

    def test_work_budget_refuses_and_keeps_the_memo_sound(self, monkeypatch):
        psi.cache_clear()
        monkeypatch.setattr(psi, "MAX_NEW_ENTRIES", 40)
        with pytest.raises(psi.ResourceLimitError, match="memo entries"):
            val(8, 22)
        kept = dict(psi._memo)
        assert 0 < len(kept) <= 40
        monkeypatch.undo()
        # the memo left by the refused call goes on giving right answers
        assert val(8, 22) == psi.psi_one_point(8)
        assert psi.pand_bound(8) == Fraction(5)
        # and every entry it kept is the entry a cold evaluation leaves;
        # the key alone gives the genus
        for exps, value in kept.items():
            psi.cache_clear()
            val(genus_of(exps), *exps)
            fresh = psi._memo[exps]
            assert type(fresh) is type(value) and fresh == value, exps

    def test_work_budget_is_per_top_level_call(self, monkeypatch):
        psi.cache_clear()
        # the warm memo stays below the cap (87 entries before pand_bound(8)),
        # so it is never dropped and each step adds at most 47 entries
        monkeypatch.setattr(psi, "MAX_NEW_ENTRIES", 90)
        for g in range(2, 9):  # each step adds few entries to a warm memo
            assert psi.pand_bound(g) == Fraction(60, g + 4)
        assert psi.cache_info().misses > 90

    def test_memo_total_stays_bounded_across_refused_calls(self, monkeypatch):
        psi.cache_clear()
        cap = 300
        monkeypatch.setattr(psi, "MAX_NEW_ENTRIES", cap)
        sizes = []
        for g in range(12, 20):
            # a call that fits (about 90 entries), then one refused after
            # `cap` new entries at rising genus
            assert val(7, 19) == psi.psi_one_point(7)
            with pytest.raises(psi.ResourceLimitError, match="memo entries"):
                val(g, 3 * g - 2)
            sizes.append(psi.cache_info().size)
        assert cap < max(sizes) < 2 * cap
        # the memo left behind goes on giving right answers
        assert val(3, 2, 6) == Fraction(77, 414720)
        assert val(4, 10) == psi.psi_one_point(4)
        assert psi.pand_bound(6) == Fraction(6)
        assert psi.cache_info().size < 2 * cap
        psi.cache_clear()

    def test_cli_fails_closed_on_recursion_work(self, monkeypatch, capsys):
        psi.cache_clear()
        monkeypatch.setattr(psi, "MAX_NEW_ENTRIES", 2000)
        assert cli.main(["psi", "eval", "--g", "60", "--a", "178"]) == 1
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.startswith("error: ") and "memo entries" in out.err
        psi.cache_clear()


class TestRecursionWork:
    def test_pand_bound_22_visits_few_children(self, monkeypatch):
        psi.cache_clear()
        calls = 0
        original = psi._value

        def counted(g, exps):
            nonlocal calls
            calls += 1
            return original(g, exps)

        monkeypatch.setattr(psi, "_value", counted)
        assert psi.pand_bound(22) == Fraction(30, 13)
        # 5 549 entries and the one seed met, <tau_1>_1: no genus-0 key is
        # reached, as DVV frames have g >= 2 and splits 1 <= g1 <= g - 1
        assert len(psi._memo) == 5550
        assert {exps: psi._memo[exps] for exps in SEEDS
                if exps in psi._memo} == {(1,): 1}
        # Every key is looked up in the memo where it is built, and only a
        # miss enters _value.  A loop over every genus of the split sum
        # makes 652 283 lookups; the split sum over nonzero terms makes
        # exactly this many, each a hit or a call.  The seed is entered
        # once and found 1 820 times after.
        assert calls + psi.cache_info().hits == 31_541
        assert calls == 5_550
        # and the memo it leaves is pinned: counters and a checksum of every
        # entry, so that a change of the split enumeration shows here
        assert psi.cache_info() == (25991, 5550, 5550)
        assert memo_digest() == "117cb583a99c2e48"
        # the budget leaves room for four times the largest known need
        assert psi.MAX_NEW_ENTRIES >= 4 * 5550

    def test_every_key_is_sorted_as_built(self, monkeypatch):
        """``_value`` builds its child keys without sorting them: a string
        decrement replaces the first exponent of its group, a bump goes in
        after its group, and the pair sum's ``(a, b) + rest``, ``(a,) +
        left`` and ``(b,) + right`` are sorted because the pivot is the
        smallest exponent, so ``a <= b <= exps[0] - 2 < min(rest)``, and
        ``left``/``right`` come in group order.  An unsorted key would be a
        second memo entry for one correlator, or reach the recursion with
        its pivot not the smallest exponent.  A key reaches ``_value`` only
        on a memo miss, so every stored key is checked too."""
        psi.cache_clear()
        original = psi._value
        calls = 0

        def checked(g, exps):
            nonlocal calls
            calls += 1
            assert type(exps) is tuple and list(exps) == sorted(exps), exps
            return original(g, exps)

        monkeypatch.setattr(psi, "_value", checked)
        small_sweep()
        # exactly the misses: the seeds are entered once, then found
        assert calls == psi.cache_info().misses == 946
        assert all(type(exps) is tuple and list(exps) == sorted(exps)
                   for exps in psi._memo)
        # each stored key is on dimension for one genus g >= 0
        assert all(genus_of(exps) >= 0 for exps in psi._memo)
        psi.cache_clear()

    def test_every_key_reaching_value_is_on_the_cone(self, monkeypatch):
        """``_value`` checks no genus, stability or dimension: it trusts
        ``correlator_value`` to stop off-cone data, and the children it
        builds to stay on the cone (the argument is in the module doc)."""
        psi.cache_clear()
        original = psi._value
        seen = 0
        stack, entered = [()], set()  # (caller's key, key) of every miss

        def checked(g, exps):
            nonlocal seen
            seen += 1
            assert g >= 0 and all(a >= 0 for a in exps), (g, exps)
            assert 2 * g - 2 + len(exps) > 0, (g, exps)
            assert sum(exps) == 3 * g - 3 + len(exps), (g, exps)
            assert list(exps) == sorted(exps), exps
            entered.add((stack[-1], exps))
            stack.append(exps)
            try:
                return original(g, exps)
            finally:
                stack.pop()

        monkeypatch.setattr(psi, "_value", checked)
        small_sweep()
        assert seen == psi.cache_info().misses == 946
        assert {exps: psi._memo[exps] for exps in SEEDS} == SEEDS
        # A pair sum's right factor is nearly always found in the memo.  From
        # a cold memo, these two of the six correlators with g, n <= 5 that
        # miss there enter the recursion through it too.  A left factor
        # misses more rarely: of the data of on_dimension(6, 8), in order,
        # <tau_3^3 tau_7>_5 is the first whose cold evaluation does so, on
        # (0, 3, 3), the left factor of a = 0, I = (3, 3) below its pivot 3.
        for g, exps in ((5, [2, 3, 3, 8]), (5, [2, 2, 2, 3, 8]),
                        (5, [3, 3, 3, 7])):
            psi.cache_clear()
            assert val(g, *exps) == dvv_on_largest(g, exps)
        # (0, 3, 3) is no string, bump or genus-lowering child of (3, 3, 3, 7),
        # and a right factor there starts with b = 1
        assert ((3, 3, 3, 7), (0, 3, 3)) in entered
        # an off-dimension correlator is answered before any lookup: no
        # entry, no miss, no hit, and no call into the recursion
        before, calls = psi.cache_info(), seen
        for g, exps in ((2, (2, 2)), (1, (3,)), (0, (0, 0, 1)), (3, (0, 9)),
                        (0, (10**9, 0, 0)), (4, (1, 1, 1, 1))):
            assert val(g, *exps) == 0
        assert psi.cache_info() == before and seen == calls
        psi.cache_clear()

    def test_memo_cleared_without_its_counters_stays_sound(self):
        """``perfbench/selftest.py`` empties ``psi._memo`` in place, keeping
        the counters.  A sweep cleared that way half way gives the values of
        a cold sweep, and the seeds come back as entries when met again."""
        # by number of points, so that both seeds are met again late
        cases = sorted(on_dimension(3, 5), key=lambda case: len(case[1]))
        psi.cache_clear()
        expected = [val(g, *exps) for g, exps in cases]
        psi.cache_clear()
        half = len(cases) // 2
        got = [val(g, *exps) for g, exps in cases[:half]]
        assert {exps: psi._memo[exps] for exps in SEEDS} == SEEDS
        psi._memo.clear()
        got += [val(g, *exps) for g, exps in cases[half:]]
        assert got == expected
        assert {exps: psi._memo[exps] for exps in SEEDS} == SEEDS
        assert psi.cache_info().misses > len(psi._memo)
        psi.cache_clear()

    def test_a_miss_reaches_the_module_global_value(self, monkeypatch):
        """The benchmark self-test corrupts ``psi._value`` by patching the
        module global, so every memo miss, at the top and at each child,
        must call it through that name."""
        psi.cache_clear()
        original = psi._value
        seen = set()

        def recorded(g, exps):
            seen.add((g, exps))
            return original(g, exps)

        monkeypatch.setattr(psi, "_value", recorded)
        assert val(3, *[2] * 6) == Fraction(1225, 144)
        # every entry, with the genus its key fixes, came through the hook
        assert {(genus_of(exps), exps) for exps in psi._memo} <= seen
        assert len(psi._memo) > 20
        # a corrupted value reaches the answer through the children
        monkeypatch.setattr(psi, "_value", lambda g, exps: 0 if g == 1
                            and len(exps) >= 3 else original(g, exps))
        psi.cache_clear()
        assert val(3, *[2] * 6) != Fraction(1225, 144)
        psi.cache_clear()

    def test_hits_count_every_lookup_that_finds_a_value(self, monkeypatch):
        """``cache_info().hits`` counts each memo lookup that finds a stored
        value, the ones made where child keys are built included, and keeps
        counting them when a call is refused part way."""

        class Counting(dict):
            found = 0

            def get(self, key, default=None):
                value = super().get(key, default)
                Counting.found += value is not None
                return value

        monkeypatch.setattr(psi, "_memo", Counting())
        psi.cache_clear()
        assert psi.pand_bound(8) == Fraction(5)
        assert val(6, 4, 4, 4, 3, 3, 3) > 0
        assert psi.cache_info().hits == Counting.found > 100
        found = Counting.found
        monkeypatch.setattr(psi, "MAX_NEW_ENTRIES", 40)
        with pytest.raises(psi.ResourceLimitError, match="memo entries"):
            val(12, 34)
        assert psi.cache_info().hits == Counting.found > found
        monkeypatch.undo()
        psi.cache_clear()

    def test_memo_after_a_sweep_is_pinned(self):
        """The memo left by pand_bound(2..10) and the benchmark's many-point
        correlators up to genus 8, each with and without a ``tau_1``, is
        pinned by size and checksum: how a child key is built or looked up
        must not change a stored entry, nor add or drop one.  The seed
        ``<tau_1>_1`` is the one entry beyond the 879 the checksum covers."""
        psi.cache_clear()
        for g in range(2, 11):
            assert psi.pand_bound(g) == Fraction(60, g + 4)
        for g in (6, 8):
            for n in range(3, 9 if g == 6 else 8):
                exps = balanced(3 * g - 3 + n, n)
                assert val(g, *exps) > 0 and val(g, 1, *exps) > 0
        assert psi.cache_info().misses == len(psi._memo) == 880
        assert psi._memo[(1,)] == 1 and (0, 0, 0) not in psi._memo
        assert memo_digest() == "2f093d1e5419266f"
        psi.cache_clear()

    def test_deepest_chain_takes_one_frame_per_level(self):
        """``<tau_0^202 tau_200>_0 = 1`` is the deepest chain the dimension
        guard lets in: 200 string steps, one ``_value`` frame each.  It fits
        under a recursion limit of 400, so a level adds no helper frame."""
        psi.cache_clear()
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(400)
        try:
            assert val(0, *[0] * 202, 200) == 1
        finally:
            sys.setrecursionlimit(limit)
        psi.cache_clear()

    def test_memo_holds_integers(self):
        psi.cache_clear()
        small_sweep()
        assert psi._memo
        assert all(type(v) is int for v in psi._memo.values())

    def test_cache_hooks(self):
        psi.cache_clear()
        assert psi.cache_info() == (0, 0, 0)
        assert val(2, 2, 3) == Fraction(29, 5760)
        first = psi.cache_info()
        assert first.misses == first.size == len(psi._memo) > 0
        assert val(2, 2, 3) == Fraction(29, 5760)
        again = psi.cache_info()
        assert (again.hits, again.misses, again.size) == (
            first.hits + 1, first.misses, first.size)
        psi.cache_clear()
        assert psi.cache_info() == (0, 0, 0) and not psi._memo


class TestPipeline:
    def test_genus_two_internals(self):
        assert psi.pand_numerator(2) == Fraction(1, 48)
        assert psi.pand_denominator(2) == Fraction(1, 480)

    def test_the_denominator_takes_the_numerators_checks(self):
        # pand_denominator calls pand_numerator first, so it refuses what
        # pand_bound refuses, with the same message: at g = 69 the boundary
        # term's one-point integral, of dimension 202, is over the guard
        for pand in (psi.pand_bound, psi.pand_denominator):
            with pytest.raises(psi.ResourceLimitError,
                               match=r"moduli dimension 202 exceeds"):
                pand(69)

    @pytest.mark.parametrize("g", [2, 3, 4, 5, 6])
    def test_bound_matches_closed_form(self, g):
        assert psi.pand_bound(g) == Fraction(60, g + 4)

    def test_genus_22_bound(self):
        assert psi.pand_bound(22) == Fraction(30, 13)
