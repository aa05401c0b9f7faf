"""The package-level acceptance sweep.

Eight criteria, each exercised end to end at zero tolerance (every
check is exact integer or rational arithmetic).  The terminal summary
prints one PASS/FAIL line per criterion; see conftest.py.
"""

import itertools
import math
import random
import time
from fractions import Fraction

from mgbar import cli
from mgbar import divclass
from mgbar import koszul
from mgbar import psi
from mgbar import tautring

F21 = math.factorial(21)


def test_criterion_1_genus22_pipeline(capsys):
    """Degeneracy-locus class at genus 22: exact coefficients, under 1 s."""
    tautring.solve_d22.cache_clear()
    tautring.load_table.cache_clear()
    tautring._root_expansion.cache_clear()

    start = time.perf_counter()
    total_c1 = tautring.degeneracy_total("C1")
    total_c0 = tautring.degeneracy_total("C0")
    a, b0, b1 = tautring.solve_d22()
    elapsed = time.perf_counter() - start

    assert 691 * F21 % 1207084032000 == 0
    assert total_c1 == 29247210720 == 691 * F21 // 1207084032000
    assert 509 * F21 % 5364817920000 == 0
    assert total_c0 == 4847375988 == 509 * F21 // 5364817920000

    assert (a, b0, b1) == (862692948, 132822768, 731180268)
    assert 42 * b0 - b1 == 4847375988
    assert 40 * b1 == total_c1
    assert Fraction(a, b0) == Fraction(17121, 2636)
    assert divclass.slope(divclass.d22_class()) == Fraction(17121, 2636)
    assert elapsed < 1.0, f"pipeline took {elapsed:.3f}s"

    assert cli.main(["taut", "d22-solve"]) == 0
    assert capsys.readouterr().out.rstrip() == (
        "a=862692948 b0=132822768 b1=731180268 slope=17121/2636"
    )


def test_criterion_2_koszul_odd_classes():
    """Test-curve system and closed form agree for i = 0..10."""
    for i in range(11):
        g = 2 * i + 3
        d = divclass.koszul_odd_class(i)

        # independent route 1: the closed form, recomputed here
        # (stored delta coefficients are signed, hence the minuses)
        scale = Fraction(math.comb(2 * i, i), i + 2)
        assert d.lambda_coeff == scale * 6 * (i + 3)
        assert d.delta_coeffs[0] == -scale * (i + 2)
        assert d.delta_coeffs[1] == -scale * 6 * (i + 1)

        # independent route 2: solve the two pencil equations directly
        rhs = (i + 1) * math.comb(2 * i + 2, i)
        b1 = Fraction(6 * rhs, 2 * g - 4)
        b0 = Fraction(rhs + b1, 2 * g - 2)
        assert d.delta_coeffs[1] == -b1
        assert d.delta_coeffs[0] == -b0
        assert d.lambda_coeff == 12 * b0 - b1

        assert d.lower_bound_deltas == frozenset(range(2, g // 2 + 1))
        assert divclass.slope(d) == Fraction(6) + Fraction(12, 2 * i + 4)

    base = divclass.koszul_odd_class(0)
    assert (base.lambda_coeff, base.delta_coeffs) == (9, (-1, -3))
    assert divclass.slope(divclass.koszul_odd_class(10)) == Fraction(13, 2)


def test_criterion_3_pand_bound():
    """60/(g+4) assembled from three independent formulas, under 10 s."""
    psi.cache_clear()
    start = time.perf_counter()
    for g in range(2, 9):
        assert psi.pand_bound(g) == Fraction(60, g + 4)
    elapsed = time.perf_counter() - start
    assert psi.pand_numerator(2) == Fraction(1, 48)
    assert psi.pand_denominator(2) == Fraction(1, 480)
    assert elapsed < 10.0, f"sweep took {elapsed:.3f}s"


def test_criterion_4_psi_recursion():
    """One-point values, genus-0 closed form, and 10^3 random identities."""
    for g in range(1, 7):
        value = psi.correlator_value(psi.Correlator(g, (3 * g - 2,)))
        assert value == Fraction(1, 24**g * math.factorial(g))

    for n in range(3, 9):
        total = n - 3
        for cuts in itertools.combinations(range(total + n - 1), n - 1):
            # stars-and-bars composition of the dimension into n parts
            bounds = (-1,) + cuts + (total + n - 1,)
            exps = tuple(bounds[k + 1] - bounds[k] - 1 for k in range(n))
            expected = Fraction(math.factorial(total))
            for a in exps:
                expected /= math.factorial(a)
            assert psi.correlator_value(psi.Correlator(0, exps)) == expected

    rng = random.Random(2262)
    checked = 0
    while checked < 1000:
        g = rng.randint(0, 3)
        n = rng.randint(4 if g == 0 else 2, 5)
        use_string = rng.random() < 0.5
        head = 0 if use_string else 1
        rest = [0] * (n - 1)
        for _ in range(3 * g - 3 + n - head):
            rest[rng.randrange(n - 1)] += 1
        c = psi.Correlator(g, (head, *rest))
        if use_string:
            reduced = psi.string_reduce(c)
            total = sum(psi.correlator_value(r) for r in reduced)
        else:
            base = psi.Correlator(g, tuple(rest))
            total = (2 * g - 2 + (n - 1)) * psi.correlator_value(base)
        assert psi.correlator_value(c) == total, c
        checked += 1


def test_criterion_5_slope_formulas():
    assert divclass.koszul_even_slope(2) == Fraction(1665, 256)

    for r in range(1, 21):
        for s in range(1, 21):
            value = divclass.gieseker_petri_slope(r, s)
            bound = Fraction(6) + Fraction(12, r * s + s + 1)
            if (r, s) == (1, 1):
                # the excess term carries a factor (rs+s-2), identically
                # zero here, so the inequality closes up to equality
                assert value == bound
            else:
                assert value > bound, (r, s)

    for g in range(4, 41):
        assert divclass.slope(divclass.canonical_coarse(g)) == Fraction(13, 2)


def test_criterion_6_liaison_severi():
    from mgbar import bn

    first = bn.liaison_solve(14, 18, 6)
    assert (first.f, first.d_res, first.g_res) == (2, 14, 8)
    second = bn.liaison_solve(11, 14, 4)
    assert (second.f, second.d_res, second.g_res) == (3, 13, 9)
    assert bn.quadric_count(14, 6, 18) == 5
    for g in range(3, 31):
        assert bn.severi_analyze(g).feasible == (g <= 10), g


def test_criterion_7_ring_properties():
    rng = random.Random(729)

    def raw_terms():
        out = {}
        for _ in range(rng.randint(1, 4)):
            key = (
                rng.randint(0, 2), rng.randint(0, 3), rng.randint(0, 3),
                rng.randint(0, 2), rng.randint(0, 2), rng.randint(0, 1),
            )
            out[key] = Fraction(rng.randint(-8, 8), rng.randint(1, 6))
        return out

    elements = [tautring.RingElement(raw_terms()) for _ in range(1000)]
    for x in elements:
        assert tautring.RingElement(x._terms) == x  # idempotence
    minus_two_eta_theta = tautring.element_from_string("-2*eta*theta")
    assert tautring.GAMMA * tautring.GAMMA == minus_two_eta_theta
    for k in range(0, 998, 3):
        x, y, z = elements[k], elements[k + 1], elements[k + 2]
        assert (x * y) * z == x * (y * z)

    table = tautring.load_table()
    table.verify()
    assert table.checksum().startswith("624416250b2d")

    # every division in the pipeline is exact
    t1 = tautring.degeneracy_total("C1")
    t0 = tautring.degeneracy_total("C0")
    assert t1 % 40 == 0
    assert (t0 + t1 // 40) % 42 == 0
    theta3 = tautring.element_from_string("theta^3")
    assert tautring.integrate_over_W(theta3) == F21 // 73156608000


def test_criterion_8_koszul_oracle():
    def oracle_rank(matrix):
        rows = [[Fraction(0)] * matrix.ncols for _ in range(matrix.nrows)]
        for (r, c), v in matrix.entries.items():
            rows[r][c] = Fraction(v)  # integral entries are stored as int
        rank = 0
        for col in range(matrix.ncols):
            piv = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
            if piv is None:
                continue
            rows[rank], rows[piv] = rows[piv], rows[rank]
            for r in range(rank + 1, len(rows)):
                if rows[r][col]:
                    f = rows[r][col] / rows[rank][col]
                    rows[r] = [x - f * y for x, y in zip(rows[r], rows[rank])]
            rank += 1
        return rank

    def product_vanishes(a, b):
        """Whether every row-by-column sum of ``a @ b`` is zero."""
        return not any(
            sum(a.entries.get((r, m), 0) * b.entries.get((m, c), 0)
                for m in range(a.ncols))
            for r in range(a.nrows) for c in range(b.ncols))

    rng = random.Random(88)

    def random_module():
        n = rng.randint(2, 3)
        gens = []
        for _ in range(rng.randint(0, 3)):
            exps = [0] * n
            for _ in range(rng.randint(1, 2)):
                exps[rng.randrange(n)] += 1
            gens.append(tuple(exps))
        try:
            return koszul.monomial_quotient_module(n, 3, gens)
        except ValueError:
            return koszul.polynomial_ring_module(n, 3)

    modules = [
        koszul.veronese_module(3, 3),
        koszul.polynomial_ring_module(3, 3),
    ] + [random_module() for _ in range(6)]
    for m in modules:
        for j in range(1, m.top_degree):
            for i in range(1, m.base_dim):
                outer = koszul.koszul_matrix(m, i, j)
                inner = koszul.koszul_matrix(m, i + 1, j - 1)
                assert product_vanishes(outer, inner)

    for n in range(1, 5):
        ring = koszul.polynomial_ring_module(n, 4)
        for j in range(ring.top_degree):
            for i in range(1, n + 1):
                assert koszul.koszul_cohomology(ring, i, j).k_dim == 0, (n, i, j)

    rnc = koszul.veronese_module(3, 3)
    d11 = koszul.koszul_matrix(rnc, 1, 1)
    d20 = koszul.koszul_matrix(rnc, 2, 0)
    kernel = d11.ncols - oracle_rank(d11)
    image = oracle_rank(d20)
    assert kernel - image == 3
    assert koszul.koszul_cohomology(rnc, 1, 1).k_dim == 3

    for _ in range(5):
        module = random_module()
        perm = list(range(module.base_dim))
        rng.shuffle(perm)
        shuffled = koszul.GradedModule(
            module.base_dim,
            module.piece_dims,
            tuple(tuple(t[p] for p in perm) for t in module.mult),
        )
        for j in range(module.top_degree):
            for i in range(module.base_dim + 1):
                assert (
                    koszul.koszul_cohomology(module, i, j).k_dim
                    == koszul.koszul_cohomology(shuffled, i, j).k_dim
                ), (i, j, perm)
