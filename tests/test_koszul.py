"""Koszul matrices, strand dimensions, and the exact rank machinery.

The rank oracle below is deliberately naive (textbook Gaussian
elimination over Fraction) and is the reference the production rank —
one elimination of the matrix's columns as vectors, exact or over a
prime field, which a Betti table runs without the columns that span the
incoming image — is compared against; products are compared against a
dense row-by-column sum.
"""

import copy
import inspect
import itertools
import json
import math
import pickle
import random
import re
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mgbar
from mgbar import cli, psi
from mgbar import koszul as K


def rank_oracle(matrix: K.SparseMatrix) -> int:
    """Row-reduce over Fraction, no scaling tricks, no sparsity."""
    rows = [[Fraction(0)] * matrix.ncols for _ in range(matrix.nrows)]
    for (r, c), v in matrix.entries.items():
        rows[r][c] = Fraction(v)  # integral entries are stored as int
    rank = 0
    lead = 0
    for col in range(matrix.ncols):
        piv = next((r for r in range(lead, len(rows)) if rows[r][col]), None)
        if piv is None:
            continue
        rows[lead], rows[piv] = rows[piv], rows[lead]
        pivot = rows[lead][col]
        for r in range(lead + 1, len(rows)):
            if rows[r][col]:
                factor = rows[r][col] / pivot
                rows[r] = [x - factor * y for x, y in zip(rows[r], rows[lead])]
        rank += 1
        lead += 1
        if lead == len(rows):
            break
    return rank


def rank_mod_p_oracle(matrix: K.SparseMatrix, p: int) -> int:
    """Row-reduce over GF(p) after mapping each entry a/b to a * b^-1."""
    rows = [[0] * matrix.ncols for _ in range(matrix.nrows)]
    for (r, c), v in matrix.entries.items():
        v = Fraction(v)
        rows[r][c] = v.numerator * pow(v.denominator, -1, p) % p
    rank = 0
    for col in range(matrix.ncols):
        piv = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][col], -1, p)
        for r in range(rank + 1, len(rows)):
            factor = rows[r][col] * inv % p
            if factor:
                rows[r] = [(x - factor * y) % p
                           for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return rank


@st.composite
def block_matrices(draw) -> K.SparseMatrix:
    """Block-diagonal matrices with fractional entries, rank-deficient
    blocks (some rows are combinations of others), and rows and columns
    permuted afterwards."""
    entry = st.one_of(
        st.just(0),
        st.fractions(min_value=-9, max_value=9, max_denominator=5),
    )
    coeff = st.fractions(min_value=-7, max_value=7, max_denominator=4)
    blocks = []
    for _ in range(draw(st.integers(1, 3))):
        ncols = draw(st.integers(1, 6))
        rows = draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols),
                             min_size=1, max_size=5))
        for _ in range(draw(st.integers(0, 3))):
            a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            k, m = draw(coeff), draw(coeff)
            rows.append([k * x + m * y for x, y in zip(a, b)])
        blocks.append((rows, ncols))
    nrows = sum(len(rows) for rows, _ in blocks)
    ncols = sum(n for _, n in blocks)
    row_perm = draw(st.permutations(range(nrows)))
    col_perm = draw(st.permutations(range(ncols)))
    entries = {}
    r0 = c0 = 0
    for rows, n in blocks:
        for r, row in enumerate(rows):
            for c, v in enumerate(row):
                if v:
                    entries[(row_perm[r0 + r], col_perm[c0 + c])] = v
        r0 += len(rows)
        c0 += n
    return K.SparseMatrix(nrows, ncols, entries)


def dense_product(a: K.SparseMatrix, b: K.SparseMatrix) -> dict:
    """The nonzero sums of ``a @ b``, one row-by-column sum per cell."""
    return {
        (r, c): x
        for r in range(a.nrows)
        for c in range(b.ncols)
        if (x := sum(a.entries.get((r, m), 0) * b.entries.get((m, c), 0)
                     for m in range(a.ncols)))
    }


def pivot_rows(matrix: K.SparseMatrix, modulus=None, skip=()) -> list:
    """The pivot rows of one elimination of ``matrix``'s columns outside
    ``skip``, grouped from its entries in entry order, each column made
    integral and primitive on its own (its denominators cleared, then
    divided by its gcd) and then reduced mod ``modulus``: the per-column
    rule that a walk's integer view must reproduce.  They are distinct
    independent rows, as many as those columns' rank."""
    columns: dict[int, dict] = {}
    for (r, c), v in matrix.entries.items():
        if c not in skip:
            columns.setdefault(c, {})[r] = Fraction(v)
    vectors = []
    for column in columns.values():
        scale = math.lcm(*(v.denominator for v in column.values()))
        column = {r: int(v * scale) for r, v in column.items()}
        g = math.gcd(*column.values())
        column = {r: v // g for r, v in column.items()}
        if modulus:
            column = {r: v % modulus for r, v in column.items()
                      if v % modulus}
        vectors.append(column)
    return K._rank_rows(vectors, modulus)


def assert_exact_entries(matrix: K.SparseMatrix, expected: dict) -> None:
    """``matrix`` holds ``expected``: no zeros, integral values as int."""
    assert matrix.entries == expected
    for v in matrix.entries.values():
        assert v and type(v) is (int if Fraction(v).denominator == 1
                                  else Fraction), v


def transpose(matrix: K.SparseMatrix) -> K.SparseMatrix:
    return K.SparseMatrix(matrix.ncols, matrix.nrows, {
        (c, r): v for (r, c), v in matrix.entries.items()
    })


def rows_of(matrix: K.SparseMatrix, rows: list) -> K.SparseMatrix:
    """The rows ``rows`` of ``matrix``, in that order."""
    position = {r: k for k, r in enumerate(rows)}
    return K.SparseMatrix(len(rows), matrix.ncols, {
        (position[r], c): v for (r, c), v in matrix.entries.items()
        if r in position
    })


def random_monomial_module(rng: random.Random) -> K.GradedModule:
    """A small quotient of a polynomial ring by a monomial ideal."""
    n = rng.randint(2, 3)
    top = rng.randint(2, 3)
    gens = []
    for _ in range(rng.randint(0, 3)):
        exps = [0] * n
        for _ in range(rng.randint(1, 2)):
            exps[rng.randrange(n)] += 1
        gens.append(tuple(exps))
    try:
        return K.monomial_quotient_module(n, top, gens)
    except ValueError:
        # ideal swallowed degree <= 1; fall back to the free module
        return K.polynomial_ring_module(n, top)


def rescaled(module: K.GradedModule, rng: random.Random) -> K.GradedModule:
    """``module`` with each f_l scaled by a nonzero rational: the actions
    still commute, and the entries become fractions and integers."""
    scales = [rng.choice([Fraction(1, 2), Fraction(-2, 3), 3, -1, 1])
              for _ in range(module.base_dim)]
    return K.GradedModule(module.base_dim, module.piece_dims, tuple(
        tuple(tuple(tuple(x * scales[l] for x in row) for row in layer)
              for l, layer in enumerate(tensor))
        for tensor in module.mult
    ))


def generic_coordinates(module: K.GradedModule,
                        rng: random.Random) -> K.GradedModule:
    """``module`` with ``f_k`` replaced by ``sum_l a[k][l] f_l`` for a seeded
    integer matrix ``a`` of determinant +-1 (unitriangular, rows and
    columns shuffled): the actions still commute, each new ``f_k`` mixes
    several old ones, and the differentials stop splitting into blocks."""
    n = module.base_dim
    rows, cols = rng.sample(range(n), n), rng.sample(range(n), n)
    a = [[0] * n for _ in range(n)]
    for k in range(n):
        a[rows[k]][cols[k]] = rng.choice((1, -1))
        for m in range(k):
            a[rows[k]][cols[m]] = rng.randint(-2, 2)
    return K.GradedModule(n, module.piece_dims, tuple(
        tuple(tuple(tuple(sum(a[k][l] * tensor[l][u][w] for l in range(n))
                          for w in range(len(tensor[0][u])))
                    for u in range(len(tensor[0])))
              for k in range(n))
        for tensor in module.mult
    ))


def halved_cubic_json() -> dict:
    """The twisted cubic's module JSON with f_0 scaled by 1/2."""
    data = K.module_to_json(K.veronese_module(3, 3))
    data["mult"] = [[[[str(Fraction(x) / 2) if l == 0 else x for x in row]
                      for row in layer] for l, layer in enumerate(tensor)]
                    for tensor in data["mult"]]
    return data


def partial_sum_quartic_json() -> dict:
    """The rational normal quartic's module JSON with f_l replaced by
    f_0 + ... + f_l: fill and cancellation, so pivots met by several
    columns go through the heap."""
    data = K.module_to_json(K.veronese_module(4, 4))
    data["mult"] = [[[[str(sum(int(t[k][u][w]) for k in range(l + 1)))
                       for w in range(len(t[l][u]))]
                      for u in range(len(t[l]))] for l in range(len(t))]
                    for t in data["mult"]]
    return data


def around_the_constructor(base: K.GradedModule, j: int, l: int,
                           u: int) -> K.GradedModule:
    """``base`` with ``f_l`` doubled on basis vector ``u`` of ``M_j`` in
    the sparse view the differentials read, assembled without the
    constructor, which would refuse data that does not commute."""
    nonzero = [[list(layer) for layer in tensor] for tensor in base._nonzero]
    nonzero[j][l][u] = tuple((w, 2 * x) for w, x in nonzero[j][l][u])
    module = K.GradedModule.__new__(K.GradedModule)
    module.__dict__.update(base_dim=base.base_dim, piece_dims=base.piece_dims,
                           mult=base.mult, _nonzero=nonzero)
    return module


def commutes(module: K.GradedModule, j: int) -> bool:
    """Whether ``f_l f_m = f_m f_l`` on ``M_j``, by dense products of the
    maps in the sparse view that the differentials read."""
    dims = module.piece_dims

    def dense(k: int, l: int) -> list:
        rows = [[0] * dims[k + 1] for _ in range(dims[k])]
        for u, pairs in enumerate(module._nonzero[k][l]):
            for w, x in pairs:
                rows[u][w] = x
        return rows

    def then(l: int, m: int) -> list:
        a, b = dense(j, l), dense(j + 1, m)
        return [[sum(a[u][w] * b[w][v] for w in range(dims[j + 1]))
                 for v in range(dims[j + 2])] for u in range(dims[j])]

    return all(then(l, m) == then(m, l)
               for l, m in itertools.combinations(range(module.base_dim), 2))


def dense_tensors(module: K.GradedModule) -> list:
    return [[[list(row) for row in layer] for layer in tensor]
            for tensor in module.mult]


def monomial_tensors(n: int, top: int, ideal=()) -> tuple:
    """Dimensions and ``mult`` of the polynomial ring on ``n`` variables
    modulo the monomial ideal ``ideal``, from first principles: the
    basis of ``M_j`` is the ``combinations_with_replacement`` of the
    variables, less the multiples of a generator, and ``f_l = x_l``."""
    def outside(combo):
        exps = [combo.count(v) for v in range(n)]
        return not any(all(e >= g for e, g in zip(exps, gen)) for gen in ideal)

    bases = [[c for c in itertools.combinations_with_replacement(range(n), j)
              if outside(c)] for j in range(top + 1)]
    mult = [[[[int(tuple(sorted(u + (l,))) == w) for w in bases[j + 1]]
              for u in bases[j]] for l in range(n)] for j in range(top)]
    return [len(b) for b in bases], mult


class TestBuilders:
    """The builders' bases and ``f_l`` in their documented order, which
    no Betti table can see (a basis permutation leaves it unchanged)."""

    @pytest.mark.parametrize("d, top", [(1, 3), (2, 2), (3, 3), (5, 2)])
    def test_veronese(self, d, top):
        # f_l = s^l t^(d-l) sends s^u t^(dj-u) to s^(u+l) t^(d(j+1)-u-l).
        mult = [[[[int(w == u + l) for w in range(d * (j + 1) + 1)]
                  for u in range(d * j + 1)] for l in range(d + 1)]
                for j in range(top)]
        module = K.veronese_module(d, top)
        assert module.base_dim == d + 1
        assert module.piece_dims == tuple(d * j + 1 for j in range(top + 1))
        assert dense_tensors(module) == mult

    @pytest.mark.parametrize("n, top", [(1, 3), (2, 3), (3, 2), (4, 2)])
    def test_polynomial_ring(self, n, top):
        dims, mult = monomial_tensors(n, top)
        module = K.polynomial_ring_module(n, top)
        assert (module.base_dim, list(module.piece_dims)) == (n, dims)
        assert dense_tensors(module) == mult

    @pytest.mark.parametrize("n, top, ideal", [
        (2, 3, [(1, 1)]),
        (3, 3, [(2, 0, 0), (0, 1, 1)]),
        (3, 2, [(0, 0, 1)]),
        (4, 2, [(1, 0, 0, 1), (0, 2, 0, 0), (0, 0, 0, 2)]),
    ])
    def test_monomial_quotient(self, n, top, ideal):
        dims, mult = monomial_tensors(n, top, ideal)
        module = K.monomial_quotient_module(n, top, ideal)
        assert (module.base_dim, list(module.piece_dims)) == (n, dims)
        assert dense_tensors(module) == mult


class TestGradedModule:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            K.GradedModule(2, (1, 2), ())
        # layers are 1x1 but M_0 x V -> M_1 needs 1x2
        bad_layer = ((Fraction(1),),)
        with pytest.raises(ValueError):
            K.GradedModule(2, (1, 2), ((bad_layer, bad_layer),))

    def test_commutativity_is_a_hard_error(self):
        # two 1-dimensional pieces where f0 f1 != f1 f0
        one = ((Fraction(1),),)
        two = ((Fraction(2),),)
        with pytest.raises(ValueError, match="commute"):
            K.GradedModule(2, (1, 1, 1), ((one, one), (one, two)))

    def test_entries_coerced_to_fractions(self):
        m = K.polynomial_ring_module(2, 2)
        assert isinstance(m.mult[0][0][0][0], Fraction)

    @pytest.mark.parametrize("bad", [True, 1.0])
    def test_bool_or_float_among_ints_is_a_type_error(self, bad):
        # 1 == True == 1.0, so neither may be read from the slot of 1.
        for row in ([1, bad], [bad, 1], [0, 1, bad]):
            with pytest.raises(TypeError, match="exact rational"):
                K.GradedModule(1, (1, len(row)), [[[row]]])

    def test_int_subclasses_are_read_as_ints(self):
        class Count(int):
            pass

        m = K.GradedModule(1, (1, 3), [[[[Count(2), 1, Count(0)]]]])
        assert m.mult[0][0][0] == (2, 1, 0)
        assert all(type(x) is Fraction for x in m.mult[0][0][0])
        assert m._nonzero[0][0][0] == ((0, 2), (1, 1))
        assert all(type(x) is int for _, x in m._nonzero[0][0][0])


def dense(mult) -> tuple:
    """``mult`` as nested tuples of ``Fraction``, converted entry by entry."""
    return tuple(tuple(tuple(tuple(Fraction(x) for x in row) for row in layer)
                       for layer in tensor) for tensor in mult)


# Module JSON with rational strings, negative entries and 10**1000, loaded
# as a mapping and as JSON text; base_dim 1, so the actions commute.
JSON_MODULES = [
    {"base_dim": 1, "pieces": [1, 3, 2], "mult": [
        [[["1/2", "-3", "0"]]],
        [[["-7/3", "0"], ["0", str(10**1000)], [-10**1000, " -4/6 "]]],
    ]},
    {"base_dim": 1, "pieces": [2, 2], "mult": [[[[0, 0], ["-0", "0/5"]]]]},
]


class TestDerivedTensor:
    """``mult`` is derived from the sparse view when it is first read and
    equals the dense ``Fraction`` tensor of what the module was built from;
    ``==``, ``hash``, ``repr`` and JSON follow it."""

    @staticmethod
    def built(monkeypatch, build) -> tuple[K.GradedModule, tuple]:
        """The module ``build()`` returns, and the dense ``Fraction`` tensor
        of the ``mult`` it handed to the loader."""
        seen, load = [], K._load

        def recording(mult):
            seen.append(mult)
            return load(mult)

        with monkeypatch.context() as patch:
            patch.setattr(K, "_load", recording)
            module = build()
        return module, dense(seen[-1])

    @staticmethod
    def modules(monkeypatch) -> list[tuple[K.GradedModule, tuple]]:
        rng = random.Random(31)
        builds = [
            lambda: K.veronese_module(1, 2), lambda: K.veronese_module(3, 3),
            lambda: K.veronese_module(4, 4),
            lambda: K.polynomial_ring_module(1, 3),
            lambda: K.polynomial_ring_module(3, 3),
            lambda: K.monomial_quotient_module(3, 3, [(1, 1, 0), (0, 0, 2)]),
            lambda: K.monomial_quotient_module(4, 3, [(2, 0, 0, 0)]),
            lambda: rescaled(generic_coordinates(K.veronese_module(3, 3),
                                                 rng), rng),
            lambda: rescaled(random_monomial_module(rng), rng),
        ]
        found = [TestDerivedTensor.built(monkeypatch, b) for b in builds]
        for data in JSON_MODULES:
            expected = dense(data["mult"])
            found.append((K.module_from_json(data), expected))
            found.append((K.module_from_json(json.dumps(data)), expected))
        return found

    def test_mult_is_the_dense_tensor_of_the_input(self, monkeypatch):
        for module, expected in self.modules(monkeypatch):
            assert "mult" not in module.__dict__
            assert module.mult == expected
            assert all(type(x) is Fraction for tensor in module.mult
                       for layer in tensor for row in layer for x in row)
            assert module.mult is module.mult

    def test_records_and_json_follow_the_dense_tensor(self, monkeypatch):
        for module, expected in self.modules(monkeypatch):
            key = (module.base_dim, module.piece_dims, expected)
            assert repr(module) == (
                f"GradedModule(base_dim={key[0]!r}, piece_dims={key[1]!r}, "
                f"mult={expected!r})")
            assert hash(module) == hash(key)
            again = K.GradedModule(*key)
            assert again == module and hash(again) == hash(module)
            data = K.module_to_json(module)
            assert data == {"base_dim": key[0], "pieces": list(key[1]),
                            "mult": [[[[str(x) for x in row] for row in layer]
                                      for layer in tensor]
                                     for tensor in expected]}
            back = K.module_from_json(json.dumps(data))
            assert back == module and hash(back) == hash(module)
            assert repr(back) == repr(module)
            assert K.module_to_json(back) == data

    def test_a_walk_leaves_mult_underived(self):
        for data in JSON_MODULES + [
                K.module_to_json(K.veronese_module(3, 3))]:
            module = K.module_from_json(json.dumps(data))
            top = module.top_degree
            for modulus in (None, K.DEFAULT_PRIME):
                K.betti_table(module, module.base_dim, top - 1, modulus)
                K.koszul_cohomology(module, 1, top - 1, modulus)
            if top >= 3:
                K.green_lazarsfeld_Np(module, 1)
            assert "mult" not in module.__dict__
            assert module.mult == dense(data["mult"])
            assert "mult" in module.__dict__

    def test_mult_assembled_around_the_constructor_is_kept(self):
        base = K.polynomial_ring_module(2, 3)
        module = around_the_constructor(base, 1, 0, 1)
        assert module.__dict__["mult"] is base.mult
        assert module.mult is base.mult


class TestKoszulMatrix:
    def test_degree_one_is_the_multiplication_map(self):
        m = K.veronese_module(3, 2)
        mat = K.koszul_matrix(m, 1, 0)
        assert (mat.nrows, mat.ncols) == (4, 4)
        for l in range(4):
            assert mat.entries[(l, l)] == 1

    def test_degree_zero_has_no_rows(self):
        m = K.veronese_module(3, 2)
        mat = K.koszul_matrix(m, 0, 1)
        assert (mat.nrows, mat.ncols) == (0, 4)
        assert not mat.entries

    def test_sign_convention(self):
        # d(f0 ^ f1 (x) 1) = f1 (x) x0 - f0 (x) x1 in the free module
        ring = K.polynomial_ring_module(2, 2)
        mat = K.koszul_matrix(ring, 2, 0)
        assert (mat.nrows, mat.ncols) == (4, 1)
        x0, x1 = 0, 1  # degree-1 monomial indices
        f0_block, f1_block = 0, 2
        assert mat.entries[(f1_block + x0, 0)] == 1
        assert mat.entries[(f0_block + x1, 0)] == -1
        assert len(mat.entries) == 2

    def test_out_of_range_degrees(self):
        m = K.veronese_module(2, 2)
        with pytest.raises(ValueError):
            K.koszul_matrix(m, -1, 0)
        with pytest.raises(ValueError):
            K.koszul_matrix(m, 4, 0)
        with pytest.raises(ValueError):
            K.koszul_matrix(m, 1, 2)  # needs M_3

    def test_a_quartic_differential_through_the_public_path(self):
        m = K.koszul_matrix(K.veronese_module(4, 4), 2, 1)
        assert (m.nrows, m.ncols) == (45, 50)
        assert K.matrix_rank(m) == K.matrix_rank(m, 2147483647) == 32
        assert list(inspect.signature(K.matrix_rank).parameters) == [
            "matrix", "modulus"]

    def test_differential_squares_to_zero(self):
        rng = random.Random(5)
        modules = [
            K.polynomial_ring_module(3, 3),
            K.veronese_module(3, 3),
        ] + [random_monomial_module(rng) for _ in range(10)]
        for m in modules:
            for j in range(1, m.top_degree):
                for i in range(1, m.base_dim):
                    outer = K.koszul_matrix(m, i, j)
                    inner = K.koszul_matrix(m, i + 1, j - 1)
                    assert not dense_product(outer, inner)

    def test_unchecked_build_meets_the_checked_invariants(self):
        # koszul_matrix builds through the checking constructor, from the
        # sparse view; checking its entries again changes nothing.
        rng = random.Random(29)
        cubic = K.veronese_module(3, 3)
        modules = [cubic, rescaled(cubic, rng)]
        for _ in range(10):
            modules.append(rescaled(random_monomial_module(rng), rng))
        for m in modules:
            for j in range(m.top_degree):
                for i in range(m.base_dim + 1):
                    mat = K.koszul_matrix(m, i, j)
                    checked = K.SparseMatrix(mat.nrows, mat.ncols,
                                             dict(mat.entries))
                    assert_exact_entries(mat, checked.entries)


class TestCompose:
    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_block_matrices_against_a_dense_product(self, data):
        a = data.draw(block_matrices())
        b = data.draw(block_matrices())
        # fold b's rows onto a's columns so the shapes compose
        b = K.SparseMatrix(a.ncols, b.ncols, {
            (r % a.ncols, c): v for (r, c), v in b.entries.items()
        })
        for left, right in ((a, b), (a, transpose(a)), (transpose(a), a)):
            product = left.compose(right)
            shape = (product.nrows, product.ncols)
            assert shape == (left.nrows, right.ncols)
            assert_exact_entries(product, dense_product(left, right))

    def test_integral_products_and_cancelled_sums(self):
        half, third = Fraction(1, 2), Fraction(1, 3)
        a = K.SparseMatrix(2, 2, {(0, 0): half, (0, 1): third,
                                  (1, 0): half, (1, 1): half})
        b = K.SparseMatrix(2, 2, {(0, 0): 2, (1, 0): -3, (0, 1): 4, (1, 1): 3})
        product = a.compose(b)
        # (0, 0) is 1 - 1: absent; (0, 1) is 2 + 1: stored as int
        assert_exact_entries(product, {(0, 1): 3, (1, 0): Fraction(-1, 2),
                                       (1, 1): Fraction(7, 2)})
        assert product.entries == dense_product(a, b)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            K.SparseMatrix(2, 3, {}).compose(K.SparseMatrix(2, 3, {}))


class TestRanks:
    def test_all_paths_agree_with_the_oracle(self):
        for module in (K.veronese_module(3, 3), K.polynomial_ring_module(3, 4)):
            for j in range(module.top_degree):
                for i in range(module.base_dim + 1):
                    mat = K.koszul_matrix(module, i, j)
                    expected = rank_oracle(mat)
                    assert K.matrix_rank(mat) == expected
                    assert K.matrix_rank(mat, K.DEFAULT_PRIME) == expected

    def test_sparse_path_on_a_large_matrix(self):
        # 240 x 220, in one connected block of its rows and columns
        module = K.veronese_module(5, 4)
        mat = K.koszul_matrix(module, 3, 2)
        assert (mat.nrows, mat.ncols) == (240, 220)
        expected = rank_oracle(mat)
        assert K.matrix_rank(mat) == expected
        assert K.matrix_rank(mat, K.DEFAULT_PRIME) == expected

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_block_matrices_against_the_oracles(self, data):
        mat = data.draw(block_matrices())
        exact = K.matrix_rank(mat)
        assert exact == rank_oracle(mat)
        modular = K.matrix_rank(mat, K.DEFAULT_PRIME)
        assert modular == rank_mod_p_oracle(mat, K.DEFAULT_PRIME)
        assert modular <= exact
        # the pivot rows are distinct, independent and as many as the rank
        rows, rows_p = pivot_rows(mat), pivot_rows(mat, K.DEFAULT_PRIME)
        assert len(set(rows)) == len(rows) == exact
        assert len(rows) == rank_oracle(rows_of(mat, rows))
        assert len(set(rows_p)) == len(rows_p) == modular
        assert len(rows_p) == rank_mod_p_oracle(rows_of(mat, rows_p),
                                                K.DEFAULT_PRIME)

    def test_fractional_entries(self):
        mat = K.SparseMatrix(
            2, 2,
            {(0, 0): Fraction(1, 2), (0, 1): Fraction(1, 3),
             (1, 0): Fraction(3, 2), (1, 1): Fraction(1, 1)},
        )
        assert K.matrix_rank(mat) == rank_oracle(mat) == 1

    def test_dependent_rows_with_non_unit_pivots(self):
        r1, r2 = (2, 3, 5, 7), (3, 5, 7, 2)
        rows = [r1, r2,
                [2 * x + 3 * y for x, y in zip(r1, r2)],
                [5 * x - 7 * y for x, y in zip(r1, r2)]]
        mat = K.SparseMatrix(4, 4, {
            (r, c): v for r, row in enumerate(rows) for c, v in enumerate(row)
        })
        assert K.matrix_rank(mat) == rank_oracle(mat) == 2
        assert K.matrix_rank(mat, K.DEFAULT_PRIME) == 2

    def test_zero_and_empty(self):
        assert K.matrix_rank(K.SparseMatrix(5, 3, {})) == 0
        assert K.matrix_rank(K.SparseMatrix(0, 3, {})) == 0

    def test_modulus_validation(self):
        mat = K.SparseMatrix(1, 1, {(0, 0): Fraction(1)})
        with pytest.raises(ValueError):
            K.matrix_rank(mat, modulus=97)  # too small
        with pytest.raises(ValueError):
            K.matrix_rank(mat, modulus=2**31 + 1)  # not prime


class TestModulus:
    @pytest.mark.parametrize("modulus, kind", [
        (3e9, "float"), (2**31 - 1.0, "float"), ("2147483647", "str"),
        (True, "bool"),
    ])
    def test_a_modulus_that_is_no_int_is_a_type_error(self, modulus, kind):
        module = K.veronese_module(3, 3)
        message = f"^expected an integer, got {kind}$"
        with pytest.raises(TypeError, match=message):
            K.betti_table(module, 1, 1, modulus)
        with pytest.raises(TypeError, match=message):
            K.koszul_cohomology(module, 1, 1, modulus)
        with pytest.raises(TypeError, match=message):
            K.matrix_rank(K.koszul_matrix(module, 1, 0), modulus)

    P = K.DEFAULT_PRIME

    @pytest.mark.parametrize("scales", [
        (P, 1, 1), (Fraction(1, P), 1, 1), (P * P, P, P),
    ], ids=["f0_times_p", "f0_over_p", "f0_times_p2_others_times_p"])
    def test_p_dividing_an_entry_keeps_the_primitive_answer(
            self, monkeypatch, scales):
        # Scaled as a piece, some column of these modules vanishes mod p
        # while its primitive form does not.  Over F_p the answers are
        # those of the primitive integer columns, pinned here as the
        # per-column rule gave them; a view reduced mod p as it stands
        # gives other tables and ranks.
        p = K.DEFAULT_PRIME
        data = K.module_to_json(K.polynomial_ring_module(3, 3))
        data["mult"] = [[[[str(Fraction(x) * scales[l]) for x in row]
                          for row in layer] for l, layer in enumerate(tensor)]
                        for tensor in data["mult"]]
        module = K.module_from_json(data)
        built, pivots = [], []
        columns, rank_rows = K._columns, K._rank_rows

        def recording_columns(module, i, j, skip, layers):
            built.append((i, j, set(skip)))
            return columns(module, i, j, skip, layers)

        def recording_rank(vectors, modulus=None):
            pivots.append(rank_rows(vectors, modulus))
            return pivots[-1]

        monkeypatch.setattr(K, "_columns", recording_columns)
        monkeypatch.setattr(K, "_rank_rows", recording_rank)
        assert K.betti_table(module, 3, 2, p) == [
            [1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]]
        monkeypatch.undo()
        # the walk's pivots are the per-column rule's, cell by cell
        assert len(built) == len(pivots) == 12
        for (i, j, skip), rows in zip(built, pivots):
            matrix = K.koszul_matrix(module, i, j)
            assert pivot_rows(matrix, p, skip) == rows, (i, j)
        assert [K.matrix_rank(K.koszul_matrix(module, i, j), p)
                for i in range(1, 4) for j in range(3)] == [
            3, 6, 10, 3, 8, 15, 1, 3, 6]

    def test_tested_once_per_walk(self, monkeypatch):
        calls, check = [], K._check_modulus

        def counting(n):
            calls.append(n)
            check(n)

        monkeypatch.setattr(K, "_check_modulus", counting)
        module = K.veronese_module(4, 4)
        table = K.betti_table(module, 4, 3, K.DEFAULT_PRIME)
        assert table[1][1:4] == [6, 8, 3]
        assert calls == [K.DEFAULT_PRIME]
        calls.clear()
        assert K.koszul_cohomology(module, 2, 1, K.DEFAULT_PRIME).k_dim == 8
        assert calls == [K.DEFAULT_PRIME]

    @pytest.mark.parametrize("modulus, message", [
        (97, r"must exceed 2\*\*30"), (2**31 + 1, "is not prime"),
    ])
    def test_bad_modulus_on_noncommuting_data(self, modulus, message):
        # A walk tests the modulus when it ranks its first differential.
        # The table ranks d_(0,0) before it checks any piece; K_(1,1)
        # checks piece 0 first, and K_(0,1) has no piece to check.
        module = around_the_constructor(K.polynomial_ring_module(2, 3),
                                        1, 0, 1)
        with pytest.raises(ValueError, match=message):
            K.betti_table(module, 2, 1, modulus)
        with pytest.raises(ValueError, match="inconsistent multiplication"):
            K.koszul_cohomology(module, 1, 1, modulus)
        with pytest.raises(ValueError, match=message):
            K.koszul_cohomology(module, 0, 1, modulus)


def sparse_vectors(rng: random.Random, count: int, dim: int,
                   density: float, dependent: int) -> list[dict]:
    """``count`` seeded sparse integer vectors on ``dim`` coordinates and
    ``dependent`` integer combinations of two of them, shuffled: the
    combinations reduce to zero, cancelling entry by entry."""
    vectors = [{c: rng.choice((-3, -2, -1, 1, 2, 5)) for c in range(dim)
                if rng.random() < density} for _ in range(count)]
    for _ in range(dependent):
        (a, b), x, y = rng.sample(vectors, 2), rng.choice((1, -2)), 3
        vectors.append({c: v for c in a.keys() | b.keys()
                        if (v := x * a.get(c, 0) + y * b.get(c, 0))})
    rng.shuffle(vectors)
    return vectors


class TestElimination:
    """``_rank_rows`` returns as many pivots as the rank, and the vectors
    restricted to the pivots are independent, as the walk's skip needs."""

    @pytest.mark.parametrize("modulus", [None, K.DEFAULT_PRIME])
    @pytest.mark.parametrize("seed, count, dim, density, dependent, fill", [
        (1, 40, 80, 0.03, 8, False),  # sparse: pivots are mostly singletons
        (2, 30, 30, 0.3, 8, True),    # heavy fill
        (3, 25, 20, 0.6, 12, True),   # dense and rank-deficient
        (4, 60, 45, 0.1, 25, True),
    ])
    def test_pivots_against_the_oracles(self, monkeypatch, modulus, seed,
                                        count, dim, density, dependent, fill):
        if modulus is None:
            oracle = rank_oracle
        else:
            def oracle(matrix):
                return rank_mod_p_oracle(matrix, modulus)
        rng = random.Random(seed)
        for _ in range(4):
            vectors = sparse_vectors(rng, count, dim, density, dependent)
            matrix = K.SparseMatrix(dim, len(vectors), {
                (c, k): v for k, vec in enumerate(vectors)
                for c, v in vec.items()})
            pivots = K._rank_rows([dict(vec) for vec in vectors], modulus)
            assert len(set(pivots)) == len(pivots) == oracle(matrix)
            assert oracle(rows_of(matrix, pivots)) == len(pivots)
        if fill:
            # Some pivot has other vectors to update: the heap path runs.
            monkeypatch.setattr(K, "MAX_ELIMINATION_WORK", 0)
            with pytest.raises(mgbar.ResourceLimitError):
                K._rank_rows(vectors, modulus)

    def test_mod_p_updates_divide_by_the_pivot(self):
        # Dependent pairs with pivot entries other than 1: a vector reaches
        # zero only if it takes off entry / pivot times the pivot vector.
        p = K.DEFAULT_PRIME
        vectors = [{0: 2, 1: 2}, {0: 3, 1: 3}, {2: 5, 3: 7, 4: 1},
                   {2: 10, 3: 14, 4: 2}, {2: -4, 3: 3, 5: 6}]
        matrix = K.SparseMatrix(6, len(vectors), {
            (c, k): v for k, vec in enumerate(vectors)
            for c, v in vec.items()})
        pivots = K._rank_rows([dict(vec) for vec in vectors], p)
        assert len(pivots) == rank_mod_p_oracle(matrix, p) == 3
        assert rank_mod_p_oracle(rows_of(matrix, pivots), p) == 3

    @pytest.mark.parametrize("modulus", [None, K.DEFAULT_PRIME])
    def test_singleton_pivots_make_no_update(self, monkeypatch, modulus):
        # Unit upper-triangular: each pivot coordinate meets one vector.
        rng = random.Random(5)
        n = 50
        vectors = [{k: 1, **{c: v for c in range(k + 1, n)
                             if rng.random() < 0.4
                             and (v := rng.randint(-5, 5))}}
                   for k in range(n)]
        rng.shuffle(vectors)
        monkeypatch.setattr(K, "MAX_ELIMINATION_WORK", 0)
        assert sorted(K._rank_rows(vectors, modulus)) == list(range(n))

    @pytest.mark.parametrize("modulus", [None, K.DEFAULT_PRIME])
    def test_a_reversed_chain_stays_linear(self, modulus):
        # Only coordinate n is met once, by the last vector; each pivot
        # leaves the next coordinate down met once, by an earlier vector,
        # so a peel in vector order finds one pivot per pass.  The capped
        # peel hands the chain to the heap; an uncapped one makes n passes
        # (about 3 s on a Xeon).
        n = 5_000
        vectors = [{i: 1, i + 1: 1} for i in range(n)] + [{0: 1, 1: 2}]
        start = time.process_time()
        pivots = K._rank_rows(vectors, modulus)
        assert time.process_time() - start < 0.5
        assert sorted(pivots) == list(range(n + 1))

    @pytest.mark.parametrize("modulus", [None, K.DEFAULT_PRIME])
    @pytest.mark.parametrize("seed", range(6))
    def test_cascading_peels_against_the_oracles(self, modulus, seed):
        # Vector k meets coordinate k and a few below it, and a dependent
        # core lives on the lowest coordinates: peeling the top vector
        # leaves the next coordinate down met once, and so on, a cascade
        # that for some seeds runs deeper than the peel's passes and that
        # ends in the core.
        if modulus is None:
            oracle = rank_oracle
        else:
            def oracle(matrix):
                return rank_mod_p_oracle(matrix, modulus)
        rng = random.Random(seed)
        dim, low = 36, 8
        vectors = [{k: rng.choice((-2, -1, 1, 3)),
                    **{c: rng.choice((-1, 1, 2)) for c in range(k)
                       if rng.random() < (0.5 if c == k - 1 else 0.1)}}
                   for k in range(low, dim)]
        vectors += sparse_vectors(rng, 6, low, 0.5, 4)
        rng.shuffle(vectors)
        matrix = K.SparseMatrix(dim, len(vectors), {
            (c, k): v for k, vec in enumerate(vectors)
            for c, v in vec.items()})
        pivots = K._rank_rows([dict(vec) for vec in vectors], modulus)
        assert len(set(pivots)) == len(pivots) == oracle(matrix)
        assert oracle(rows_of(matrix, pivots)) == len(pivots)

    @pytest.mark.parametrize("modulus", [None, K.DEFAULT_PRIME])
    def test_a_signed_permutation_is_peeled_whole(self, monkeypatch,
                                                  modulus):
        rng = random.Random(7)
        n = 200
        vectors = [{c: rng.choice((-1, 1))} for c in rng.sample(range(n), n)]
        monkeypatch.setattr(K, "MAX_ELIMINATION_WORK", 0)
        assert sorted(K._rank_rows(vectors, modulus)) == list(range(n))


class TestCohomology:
    def test_baseline_corner(self):
        m = K.polynomial_ring_module(3, 3)
        strand = K.koszul_cohomology(m, 0, 0)
        assert (strand.kernel_dim, strand.image_dim, strand.k_dim) == (1, 0, 1)

    def test_rational_normal_cubic_strand(self):
        rnc = K.veronese_module(3, 3)
        strand = K.koszul_cohomology(rnc, 1, 1)
        assert strand.k_dim == 3
        # independent route: dim ker d_{1,1} - rank d_{2,0} by the oracle
        kernel = 16 - rank_oracle(K.koszul_matrix(rnc, 1, 1))
        image = rank_oracle(K.koszul_matrix(rnc, 2, 0))
        assert strand.k_dim == kernel - image

    @pytest.mark.parametrize("n", range(1, 5))
    def test_polynomial_ring_is_koszul_exact(self, n):
        ring = K.polynomial_ring_module(n, 4)
        for j in range(ring.top_degree):
            for i in range(1, n + 1):
                assert K.koszul_cohomology(ring, i, j).k_dim == 0

    def test_strand_euler_characteristic(self):
        module = K.polynomial_ring_module(3, 6)
        n = module.base_dim
        for i0, j0 in ((2, 1), (3, 1), (2, 2), (1, 3)):
            dims = 0
            strands = 0
            for q in range(max(i0 - n, -j0), i0 + 1):
                i, j = i0 - q, j0 + q
                sign = -1 if q % 2 else 1
                dims += sign * math.comb(n, i) * module.piece_dims[j]
                strands += sign * K.koszul_cohomology(module, i, j).k_dim
            assert dims == strands, (i0, j0)

    def test_basis_permutation_invariance(self):
        rng = random.Random(17)
        for _ in range(8):
            module = random_monomial_module(rng)
            perm = list(range(module.base_dim))
            rng.shuffle(perm)
            shuffled = K.GradedModule(
                module.base_dim,
                module.piece_dims,
                tuple(
                    tuple(tensor[p] for p in perm) for tensor in module.mult
                ),
            )
            for j in range(module.top_degree):
                for i in range(module.base_dim + 1):
                    a = K.koszul_cohomology(module, i, j).k_dim
                    b = K.koszul_cohomology(shuffled, i, j).k_dim
                    assert a == b, (i, j, perm)

    def test_strand_invariant_enforced(self):
        with pytest.raises(ValueError):
            K.KoszulStrand(1, 1, 3, 5, -2)
        with pytest.raises(ValueError):
            K.KoszulStrand(1, 1, 3, 1, 1)


class TestGreenLazarsfeld:
    def test_polynomial_ring_has_all_np(self):
        for n in (2, 3, 4):
            ring = K.polynomial_ring_module(n, 4)
            assert K.green_lazarsfeld_Np(ring, n - 1)

    def test_rational_normal_cubic(self):
        rnc = K.veronese_module(3, 3)
        assert K.green_lazarsfeld_Np(rnc, 0)
        assert K.green_lazarsfeld_Np(rnc, 1)

    def test_needs_enough_pieces(self):
        with pytest.raises(ValueError):
            K.green_lazarsfeld_Np(K.veronese_module(3, 2), 0)

    def test_padded_quadratic_strand_fails_n0(self):
        base = K.polynomial_ring_module(2, 3)
        dims = list(base.piece_dims)
        dims[2] += 1
        mult = [
            [[list(row) for row in layer] for layer in tensor]
            for tensor in base.mult
        ]
        for layer in mult[1]:
            for row in layer:
                row.append(Fraction(0))
        for layer in mult[2]:
            layer.append([Fraction(0)] * base.piece_dims[3])
        padded = K.GradedModule(
            2,
            tuple(dims),
            tuple(
                tuple(tuple(tuple(r) for r in layer) for layer in tensor)
                for tensor in mult
            ),
        )
        assert K.koszul_cohomology(padded, 0, 2).k_dim == 1
        assert not K.green_lazarsfeld_Np(padded, 0)


class TestBettiTable:
    def test_rational_normal_cubic_table(self):
        rnc = K.veronese_module(3, 3)
        assert K.betti_table(rnc, 3, 2) == [
            [1, 0, 0, 0],
            [0, 3, 2, 0],
            [0, 0, 0, 0],
        ]

    @pytest.mark.parametrize("modulus", [None, 2147483647])
    def test_polynomial_ring_resolves_the_residue_field(self, modulus):
        ring = K.polynomial_ring_module(4, 3)
        assert K.betti_table(ring, 4, 2, modulus) == [
            [1, 0, 0, 0, 0], [0, 0, 0, 0, 0], [0, 0, 0, 0, 0]]

    @pytest.mark.parametrize("modulus", [None, 2147483647])
    def test_changed_coordinates_keep_the_table(self, modulus):
        cubic = K.module_from_json(json.dumps(halved_cubic_json()))
        assert K.betti_table(cubic, 3, 2, modulus) == [
            [1, 0, 0, 0], [0, 3, 2, 0], [0, 0, 0, 0]]
        quartic = K.module_from_json(json.dumps(partial_sum_quartic_json()))
        assert K.betti_table(quartic, 4, 3, modulus) == [
            [1, 0, 0, 0, 0], [0, 6, 8, 3, 0],
            [0, 0, 0, 0, 0], [0, 0, 0, 0, 0]]

    def test_bounds_checked(self):
        rnc = K.veronese_module(3, 3)
        with pytest.raises(ValueError):
            K.betti_table(rnc, 2, 3)
        with pytest.raises(ValueError):
            K.betti_table(rnc, 5, 1)

    def test_cells_equal_single_strands(self):
        rng = random.Random(29)
        for _ in range(8):
            module = random_monomial_module(rng)
            max_i, max_j = module.base_dim, module.top_degree - 1
            table = K.betti_table(module, max_i, max_j)
            for j in range(max_j + 1):
                for i in range(max_i + 1):
                    strand = K.koszul_cohomology(module, i, j)
                    assert table[j][i] == strand.k_dim, (i, j)

    @pytest.mark.parametrize("modulus", [None, K.DEFAULT_PRIME])
    def test_skipped_ranks_against_the_dense_oracles(self, monkeypatch,
                                                     modulus):
        # A table ranks each d_{i,j} without the columns of the incoming
        # map's independent rows; the dense oracles rank whole matrices.
        if modulus is None:
            oracle = rank_oracle
        else:
            def oracle(matrix):
                return rank_mod_p_oracle(matrix, modulus)
        seen, strands = [], K._strands

        def recording(*args):
            for strand in strands(*args):
                seen.append(strand)
                yield strand

        monkeypatch.setattr(K, "_strands", recording)
        rng = random.Random(31)
        for _ in range(5):
            base = random_monomial_module(rng)
            for module in (base, rescaled(base, rng)):
                seen.clear()
                max_i, max_j = module.base_dim, module.top_degree - 1
                table = K.betti_table(module, max_i, max_j, modulus)
                assert len(seen) == (max_i + 1) * (max_j + 1)
                for strand in seen:
                    i, j = strand.i, strand.j
                    out = K.koszul_matrix(module, i, j)
                    assert strand.kernel_dim == out.ncols - oracle(out)
                    image, skip = 0, []
                    if j >= 1 and i < module.base_dim:
                        incoming = K.koszul_matrix(module, i + 1, j - 1)
                        image = oracle(incoming)
                        skip = pivot_rows(incoming, modulus)
                        assert len(skip) == image
                    assert strand.image_dim == image
                    assert table[j][i] == strand.k_dim
                    rows = pivot_rows(out, modulus, set(skip))
                    assert len(rows) == oracle(out) == oracle(
                        rows_of(out, rows))

    def test_d_squared_check_guards_the_skip(self):
        # f_0 doubled on one basis vector of M_1: f_0 f_1 != f_1 f_0 on
        # M_0, so d_(1,1) o d_(2,0) is not zero.  The constructor refuses
        # such data; built around it, the ranks rest on a false premise.
        base = K.polynomial_ring_module(2, 3)
        nonzero = [[list(layer) for layer in tensor]
                   for tensor in base._nonzero]
        nonzero[1][0][1] = tuple((w, 2 * x) for w, x in nonzero[1][0][1])
        module = K.GradedModule.__new__(K.GradedModule)
        module.__dict__.update(base_dim=2, piece_dims=base.piece_dims,
                               mult=base.mult, _nonzero=nonzero)
        message = r"inconsistent multiplication data: d_\(1,1\) o d_\(2,0\)"
        for modulus in (None, K.DEFAULT_PRIME):
            table = None
            with pytest.raises(ValueError, match=message):
                table = K.betti_table(module, 2, 1, modulus)
            assert table is None
            with pytest.raises(ValueError, match=message):
                K.koszul_cohomology(module, 1, 1, modulus)

    def test_each_differential_built_and_ranked_once(self, monkeypatch):
        built, ranked = [], []
        build, rank = K._columns, K._rank_rows

        def counting_build(module, i, j, skip, layers):
            built.append((i, j))
            return build(module, i, j, skip, layers)

        def counting_rank(vectors, p=None):
            ranked.append(id(vectors))
            return rank(vectors, p)

        monkeypatch.setattr(K, "_columns", counting_build)
        monkeypatch.setattr(K, "_rank_rows", counting_rank)
        table = K.betti_table(K.veronese_module(4, 4), 4, 3)
        assert table[1][1:4] == [6, 8, 3]
        assert len(built) == len(set(built))
        assert len(ranked) == len(built)
        # the 20 cells, plus d_{5,j} for j < 3: the incoming maps of the
        # cells i = 4, j > 0, which lie outside the table
        assert len(built) == 20 + 3


class TestDSquaredFromCommutativity:
    """d_{i,j} o d_{i+1,j-1} = 0 iff piece j - 1 commutes, for 1 <= i < n;
    the Koszul walk checks the latter, once per piece."""

    QUARTIC_TABLE = [[1, 0, 0, 0, 0], [0, 6, 8, 3, 0],
                     [0, 0, 0, 0, 0], [0, 0, 0, 0, 0]]

    def modules(self):
        rng = random.Random(37)
        for _ in range(12):
            base = random_monomial_module(rng)
            for module in (base, rescaled(base, rng)):
                yield module
                j = rng.randrange(module.top_degree)
                if module.piece_dims[j]:
                    yield around_the_constructor(
                        module, j, rng.randrange(module.base_dim),
                        rng.randrange(module.piece_dims[j]))

    def test_composite_vanishes_iff_the_piece_commutes(self):
        seen = set()
        for m in self.modules():
            for j in range(1, m.top_degree):
                piece = commutes(m, j - 1)
                seen.add(piece)
                assert (m._noncommuting(j - 1) is None) == piece
                for i in range(1, m.base_dim):
                    outer = K.koszul_matrix(m, i, j)
                    inner = K.koszul_matrix(m, i + 1, j - 1)
                    assert (not dense_product(outer, inner)) == piece, (i, j)
        assert seen == {True, False}

    def test_noncommuting_data_raises_only_past_i_0(self):
        raised = 0
        for m in self.modules():
            for j in range(1, m.top_degree):
                if commutes(m, j - 1):
                    continue
                strand = K.koszul_cohomology(m, 0, j)
                image = rank_oracle(K.koszul_matrix(m, 1, j - 1))
                assert strand == K.KoszulStrand(
                    0, j, m.piece_dims[j], image, m.piece_dims[j] - image)
                message = (rf"inconsistent multiplication data: "
                           rf"d_\(1,{j}\) o d_\(2,{j - 1}\) is not zero")
                with pytest.raises(ValueError, match=message):
                    K.koszul_cohomology(m, 1, j)
                raised += 1
        assert raised

    def test_the_walk_composes_no_matrices(self, monkeypatch):
        quartic = K.veronese_module(4, 4)

        def no_compose(self, other):
            raise AssertionError("a Koszul walk composed two matrices")

        checked, noncommuting = [], K.GradedModule._noncommuting

        def counting(module, j):
            checked.append(j)
            return noncommuting(module, j)

        monkeypatch.setattr(K.SparseMatrix, "compose", no_compose)
        monkeypatch.setattr(K.GradedModule, "_noncommuting", counting)
        for modulus in (None, K.DEFAULT_PRIME):
            checked.clear()
            assert K.betti_table(quartic, 4, 3, modulus) == self.QUARTIC_TABLE
            assert checked == [0, 1, 2]
        checked.clear()
        assert K.koszul_cohomology(quartic, 2, 1) == K.KoszulStrand(
            2, 1, 18, 10, 8)
        assert checked == [0]
        checked.clear()
        assert K.koszul_cohomology(quartic, 0, 1) == K.KoszulStrand(
            0, 1, 5, 5, 0)
        assert checked == []
        assert K.green_lazarsfeld_Np(quartic, 4)
        assert checked == [1]

    def test_the_check_runs_before_the_outgoing_map_is_built(
            self, monkeypatch):
        ring = K.polynomial_ring_module(2, 3)
        module = around_the_constructor(ring, 1, 0, 1)
        built, build = [], K._columns

        def recording(module, i, j, skip, layers):
            built.append((i, j))
            return build(module, i, j, skip, layers)

        monkeypatch.setattr(K, "_columns", recording)
        with pytest.raises(ValueError, match=r"d_\(1,1\) o d_\(2,0\)"):
            K.betti_table(module, 2, 1)
        assert built == [(0, 0), (1, 0), (0, 1), (2, 0)]


class TestProofRecord:
    """The constructor records the sparse view it proved commutative, so a
    walk over that view makes no products; any other view is checked."""

    QUARTIC_TABLE = TestDSquaredFromCommutativity.QUARTIC_TABLE

    @pytest.fixture
    def counted(self, monkeypatch):
        """Calls of ``_noncommuting`` by piece, and the differences that
        the commutativity check forms."""
        calls = {"pieces": [], "differences": 0}
        noncommuting, difference = K.GradedModule._noncommuting, K._difference

        def counting_check(module, j):
            calls["pieces"].append(j)
            return noncommuting(module, j)

        def counting_difference(*args):
            calls["differences"] += 1
            return difference(*args)

        monkeypatch.setattr(K.GradedModule, "_noncommuting", counting_check)
        monkeypatch.setattr(K, "_difference", counting_difference)
        return calls

    def walk(self, module, calls) -> None:
        """The quartic's table, two cells and N_4, each with the pieces
        the walk asks about, exactly and mod p."""
        for modulus in (None, K.DEFAULT_PRIME):
            calls["pieces"].clear()
            assert K.betti_table(module, 4, 3, modulus) == self.QUARTIC_TABLE
            assert calls["pieces"] == [0, 1, 2]
            calls["pieces"].clear()
            assert K.koszul_cohomology(module, 2, 1, modulus) == \
                K.KoszulStrand(2, 1, 18, 10, 8)
            assert calls["pieces"] == [0]
            calls["pieces"].clear()
            assert K.koszul_cohomology(module, 0, 1, modulus) == \
                K.KoszulStrand(0, 1, 5, 5, 0)
            assert calls["pieces"] == []
        calls["pieces"].clear()
        assert K.green_lazarsfeld_Np(module, 4)
        assert calls["pieces"] == [1]

    def test_a_proved_module_makes_no_products(self, counted):
        quartic = K.veronese_module(4, 4)
        loaded = K.module_from_json(json.dumps(K.module_to_json(quartic)))
        assert counted["differences"] > 0  # both constructors checked
        for module in (quartic, loaded):
            counted["differences"] = 0
            self.walk(module, counted)
            assert counted["differences"] == 0

    def test_an_equal_view_that_was_not_proved_is_checked(self, counted):
        quartic = K.veronese_module(4, 4)
        module = K.GradedModule.__new__(K.GradedModule)
        module.__dict__.update(quartic.__dict__,
                               _nonzero=tuple(list(quartic._nonzero)))
        assert module._nonzero == quartic._nonzero
        assert module._nonzero is not quartic._nonzero
        counted["differences"] = 0
        self.walk(module, counted)
        assert counted["differences"] > 0

    def test_a_swapped_view_is_checked_and_refused(self):
        # The whole __dict__ of a proved module, record included, around a
        # view in which f_0 f_1 != f_1 f_0 on M_0.
        base = K.polynomial_ring_module(2, 3)
        bad = around_the_constructor(base, 1, 0, 1)
        module = K.GradedModule.__new__(K.GradedModule)
        module.__dict__.update(base.__dict__, _nonzero=bad._nonzero)
        assert "_proved" in module.__dict__
        message = r"inconsistent multiplication data: d_\(1,1\) o d_\(2,0\)"
        for modulus in (None, K.DEFAULT_PRIME):
            with pytest.raises(ValueError, match=message):
                K.betti_table(module, 2, 1, modulus)
            with pytest.raises(ValueError, match=message):
                K.koszul_cohomology(module, 1, 1, modulus)
        assert module._noncommuting(0) == (0, 1, 0)
        assert base._noncommuting(0) is None

    @pytest.mark.parametrize("clone", [
        copy.copy, copy.deepcopy, lambda m: pickle.loads(pickle.dumps(m)),
    ], ids=["copy", "deepcopy", "pickle"])
    def test_copies_keep_the_record(self, clone, counted):
        quartic = K.veronese_module(4, 4)
        for module in (quartic, K.module_from_json(K.module_to_json(quartic))):
            twin = clone(module)
            assert twin == module
            counted["differences"] = 0
            self.walk(twin, counted)
            assert counted["differences"] == 0


class TestColumnBuilder:
    """A walk builds each differential as the columns it ranks, leaving out
    the incoming pivots, and ranks them without a ``SparseMatrix``; its
    strands are those of ``koszul_matrix`` + ``matrix_rank``, and its
    pivots those of eliminating ``koszul_matrix``'s columns outside the
    skip (``pivot_rows``)."""

    def modules(self):
        rng = random.Random(43)
        for _ in range(6):
            base = random_monomial_module(rng)
            yield from (base, rescaled(base, rng),
                        generic_coordinates(base, rng))

    @pytest.mark.parametrize("modulus", [None, K.DEFAULT_PRIME])
    def test_walk_matches_the_public_matrix_path(self, monkeypatch, modulus):
        seen, built, pivots = [], [], []
        strands, columns, rank_rows = K._strands, K._columns, K._rank_rows

        def recording_strands(*args):
            for strand in strands(*args):
                seen.append(strand)
                yield strand

        def recording_columns(module, i, j, skip, layers):
            out = columns(module, i, j, skip, layers)
            built.append(((i, j), set(skip), set(out)))
            return out

        def recording_rank(vectors, p=None):
            found = rank_rows(vectors, p)
            pivots.append(list(found))
            return found

        monkeypatch.setattr(K, "_strands", recording_strands)
        monkeypatch.setattr(K, "_columns", recording_columns)
        monkeypatch.setattr(K, "_rank_rows", recording_rank)
        skipped = large = 0
        for module in self.modules():
            seen.clear(), built.clear(), pivots.clear()
            n, max_j = module.base_dim, module.top_degree - 1
            K.betti_table(module, n, max_j, modulus)
            # one build and one elimination per differential, in step
            assert len(built) == len(pivots) == len({c for c, *_ in built})
            walk = {cell: (skip, kept, rows) for (cell, skip, kept), rows
                    in zip(built, pivots)}
            assert len(seen) == (n + 1) * (max_j + 1)
            for (i, j), (skip, kept, rows) in walk.items():
                # skip is exactly the incoming map's pivot list, and no
                # skipped column is built
                if j >= 1 and i < n:
                    incoming_rows = walk[(i + 1, j - 1)][2]
                    assert len(skip) == len(incoming_rows), (i, j)
                    assert skip == set(incoming_rows), (i, j)
                else:
                    assert skip == set(), (i, j)
                matrix = K.koszul_matrix(module, i, j)
                assert kept == {c for _, c in matrix.entries} - skip, (i, j)
                assert pivot_rows(matrix, modulus, skip) == rows, (i, j)
                skipped += len(skip)
                large += any(abs(x) > 1 for x in matrix.entries.values())
            for strand in seen:
                i, j = strand.i, strand.j
                out = K.koszul_matrix(module, i, j)
                rank, image = K.matrix_rank(out, modulus), 0
                if j >= 1 and i < n:
                    incoming = K.koszul_matrix(module, i + 1, j - 1)
                    image = K.matrix_rank(incoming, modulus)
                    if modulus is None:
                        assert image == rank_oracle(incoming)
                if modulus is None:
                    assert rank == rank_oracle(out)
                kernel = out.ncols - rank
                assert strand == K.KoszulStrand(i, j, kernel, image,
                                                kernel - image)
        assert skipped and large


class TestSizeBudget:
    """A small module JSON can ask for comb(base_dim, i)-sized matrices."""

    WIDE = {"base_dim": 40, "pieces": [1, 1, 1, 1],
            "mult": [[[[1]]] * 40] * 3}

    def test_refused_before_any_matrix_is_built(self, monkeypatch):
        module = K.module_from_json(self.WIDE)

        def no_build(*args):
            raise AssertionError("a matrix was built")

        monkeypatch.setattr(K, "koszul_matrix", no_build)
        with pytest.raises(ValueError, match="limit"):
            K.betti_table(module, 20, 1)
        with pytest.raises(ValueError, match="limit"):
            K.koszul_cohomology(module, 20, 0)
        with pytest.raises(ValueError, match="limit"):
            K.green_lazarsfeld_Np(module, 20)

    def test_refused_before_any_column_is_built(self, monkeypatch):
        # The walk builds columns, not matrices.
        module = K.module_from_json(self.WIDE)

        def no_build(*args):
            raise AssertionError("a column was built")

        monkeypatch.setattr(K, "_columns", no_build)
        with pytest.raises(ValueError, match="limit"):
            K.betti_table(module, 20, 1)
        with pytest.raises(ValueError, match="limit"):
            K.koszul_cohomology(module, 20, 0)
        with pytest.raises(ValueError, match="limit"):
            K.green_lazarsfeld_Np(module, 20)

    def test_cli_exits_1_quickly(self, tmp_path, capsys):
        path = tmp_path / "wide.json"
        path.write_text(json.dumps(self.WIDE), encoding="utf-8")
        start = time.perf_counter()
        code = cli.main(["koszul", "betti", "--input", str(path),
                         "--max-i", "20", "--max-j", "1"])
        assert time.perf_counter() - start < 0.5
        assert code == 1
        assert "limit" in capsys.readouterr().err

    def test_small_tables_of_a_wide_module_still_run(self):
        module = K.module_from_json(self.WIDE)
        assert K.betti_table(module, 1, 1)[0] == [1, 39]


class TestWorkBudget:
    """Elimination work, not only matrix size, is bounded."""

    # The twisted cubic's table needs at most 5 updates per elimination,
    # as each d_{i,j} is ranked on a complement of the incoming image;
    # the rational normal quartic's needs 28.

    def test_library_raises_past_the_budget(self, monkeypatch):
        module = K.veronese_module(3, 3)
        quartic = K.veronese_module(4, 4)
        assert K.betti_table(module, 3, 2)[1] == [0, 3, 2, 0]
        assert K.betti_table(quartic, 4, 3)[1] == [0, 6, 8, 3, 0]
        monkeypatch.setattr(K, "MAX_ELIMINATION_WORK", 5)
        with pytest.raises(mgbar.ResourceLimitError, match="vector updates"):
            K.betti_table(quartic, 4, 3)
        with pytest.raises(mgbar.ResourceLimitError):
            K.matrix_rank(K.koszul_matrix(module, 2, 1), K.DEFAULT_PRIME)

    def test_one_error_class_for_every_layer(self):
        assert psi.ResourceLimitError is mgbar.ResourceLimitError
        assert issubclass(mgbar.ResourceLimitError, RuntimeError)

    def test_cli_exits_1_with_a_message(self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "quartic.json"
        path.write_text(json.dumps(K.module_to_json(K.veronese_module(4, 4))),
                        encoding="utf-8")
        monkeypatch.setattr(K, "MAX_ELIMINATION_WORK", 5)
        code = cli.main(["koszul", "betti", "--input", str(path),
                         "--max-i", "4", "--max-j", "3"])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: rank elimination needs more than 5")
        assert "Traceback" not in err

    def test_budget_leaves_a_factor_of_100(self):
        # 4 452 updates: the most that one elimination of the tests, the
        # demos or the benchmark's workloads makes (generic coordinates,
        # seeds 1-10, exactly and mod p).  The bound keeps its factor of
        # 100 over 15 049, the most when every column was eliminated.
        assert K.MAX_ELIMINATION_WORK >= 100 * 15_049


class TestCommutativityBound:
    """The commutativity check counts its product terms before the first
    product and refuses past ``MAX_COMMUTATIVITY_WORK``."""

    # Every f_l = 1 on pieces [1, 1, 1]: 28 KB of JSON whose check would
    # visit 2 000 * 1 999 terms.
    WIDE = {"base_dim": 2000, "pieces": [1, 1, 1],
            "mult": [[[[1]]] * 2000] * 2}

    def test_a_wide_module_is_refused_quickly(self):
        start = time.process_time()
        with pytest.raises(mgbar.ResourceLimitError, match="product terms"):
            K.module_from_json(json.dumps(self.WIDE))
        assert time.process_time() - start < 1.5

    def test_the_count_is_the_terms_the_check_visits(self, monkeypatch):
        visited, difference = [], K._difference

        def counting(pairs, layer, others, other_layer):
            visited.append(sum(len(layer[w]) for w, _ in pairs)
                           + sum(len(other_layer[w]) for w, _ in others))
            return difference(pairs, layer, others, other_layer)

        monkeypatch.setattr(K, "_difference", counting)
        quartic = K.veronese_module(4, 4)
        terms, data = sum(visited), K.module_to_json(quartic)
        assert terms > 0
        monkeypatch.setattr(K, "MAX_COMMUTATIVITY_WORK", terms)
        assert K.module_from_json(data) == quartic
        monkeypatch.setattr(K, "MAX_COMMUTATIVITY_WORK", terms - 1)
        with pytest.raises(mgbar.ResourceLimitError, match="product terms"):
            K.module_from_json(data)

    def test_the_walk_recheck_is_bounded_too(self, monkeypatch):
        # An equal view that the constructor did not prove is checked, and
        # bounded; the proved view is neither, so it needs no budget.
        quartic = K.veronese_module(4, 4)
        module = K.GradedModule.__new__(K.GradedModule)
        module.__dict__.update(quartic.__dict__,
                               _nonzero=tuple(list(quartic._nonzero)))
        monkeypatch.setattr(K, "MAX_COMMUTATIVITY_WORK", 0)
        with pytest.raises(mgbar.ResourceLimitError, match="product terms"):
            K.betti_table(module, 4, 3)
        # At i = 0 the composite is zero and nothing is checked.
        assert K.koszul_cohomology(module, 0, 1).k_dim == 0
        table = TestDSquaredFromCommutativity.QUARTIC_TABLE
        assert K.betti_table(quartic, 4, 3) == table

    def test_bound_leaves_a_factor_of_100(self):
        # 6 300 terms: the largest check of a module of the tests, the
        # demos or the benchmark's workloads (seeds 1-10).
        assert K.MAX_COMMUTATIVITY_WORK >= 100 * 6_300


class TestSerialization:
    def test_round_trip(self):
        rng = random.Random(23)
        for _ in range(5):
            module = random_monomial_module(rng)
            blob = json.dumps(K.module_to_json(module))
            assert K.module_from_json(blob) == module

    def test_json_and_repr_round_trips(self):
        # The dense tensor a module derives on first read survives both.
        namespace = {"GradedModule": K.GradedModule, "Fraction": Fraction}
        for data in (K.module_to_json(K.veronese_module(3, 3)),
                     halved_cubic_json()):
            m = K.module_from_json(json.dumps(data))
            assert K.module_from_json(K.module_to_json(m)) == m
            again = eval(repr(m), namespace)
            assert again == m and repr(again) == repr(m)

    def test_malformed_data(self):
        with pytest.raises(ValueError):
            K.module_from_json({"pieces": [1, 2]})

    def test_nesting_too_deep_to_decode_is_malformed(self):
        # json.loads raises RecursionError, which must not escape as a
        # RuntimeError of its own
        for blob in ("[" * 100_000,
                     '{"base_dim": 1, "pieces": [1], "mult": '
                     + "[" * 100_000 + "]" * 100_000 + "}"):
            with pytest.raises(ValueError, match="malformed module data: "):
                K.module_from_json(blob)

    def test_non_nested_mult_is_malformed(self):
        with pytest.raises(ValueError, match="malformed module data"):
            K.module_from_json({"base_dim": 2, "pieces": [1, 2], "mult": 5})

    def test_float_entries_are_rejected(self):
        data = {"base_dim": 1, "pieces": [1, 1], "mult": [[[[0.1]]]]}
        with pytest.raises(ValueError, match="exact rational"):
            K.module_from_json(data)
        data["mult"] = [[[["1/10"]]]]
        module = K.module_from_json(data)
        assert module.mult[0][0][0][0] == Fraction(1, 10)

    @pytest.mark.parametrize("sizes", [
        {"base_dim": 1.9},
        {"base_dim": True},
        {"base_dim": "1"},
        {"pieces": [1.7, "1"]},
        {"pieces": [1, 1.0]},
        {"pieces": [True, 1]},
    ])
    def test_sizes_must_be_integers(self, sizes):
        data = {"base_dim": 1, "pieces": [1, 1], "mult": [[[["1"]]]]}
        K.module_from_json(data)
        with pytest.raises(ValueError, match="malformed module data"):
            K.module_from_json(dict(data, **sizes))

    @pytest.mark.parametrize("text", ["1/0", "0/0", " -3/000 "])
    def test_zero_denominators_are_malformed(self, text):
        data = {"base_dim": 1, "pieces": [1, 1], "mult": [[[[text]]]]}
        with pytest.raises(ValueError, match="malformed module data"):
            K.module_from_json(data)

    @pytest.mark.parametrize("text", [
        "1e1001", "1e-1001", "1E+1_000_000", " 2.5e-1000000 ",
    ])
    def test_huge_decimal_exponents_are_refused(self, text):
        data = {"base_dim": 1, "pieces": [1, 1], "mult": [[[[text]]]]}
        start = time.process_time()
        with pytest.raises(ValueError, match="decimal exponent .* exceeds"):
            K.module_from_json(data)
        assert time.process_time() - start < 0.5
        data["mult"] = [[[["1e1000"]]]]
        assert K.module_from_json(data).mult[0][0][0][0] == 10**1000

    def test_boolean_entries_are_rejected(self):
        data = {"base_dim": 1, "pieces": [1, 1], "mult": [[[[True]]]]}
        with pytest.raises(ValueError, match="malformed module data"):
            K.module_from_json(data)
        data["mult"] = [[[[1]]]]
        assert K.module_from_json(data).mult[0][0][0][0] == Fraction(1)

    @pytest.mark.parametrize("row", [
        [0, 1, 0.0], ["1", True], [1, "1/0"], ["2", "1e1001"],
    ])
    def test_bad_entry_after_a_nonzero_one(self, row):
        data = {"base_dim": 1, "pieces": [1, len(row)], "mult": [[[row]]]}
        with pytest.raises(ValueError, match="malformed module data"):
            K.module_from_json(data)
        with pytest.raises(ValueError, match="malformed module data"):
            K.module_from_json(json.dumps(data))

    @pytest.mark.parametrize("pieces, mult", [
        ([1, 1], "1"),
        ([1, 1], ["1"]),
        ([1, 1], [["1"]]),
        ([1, 1], [[["7"]]]),
        ([1, 1], [[[{"5": 1}]]]),
        ([1, 1], {"0": [[["1"]]]}),
        # The row "10" is no row ["1", "0"].
        ([1, 2, 1], [[["10"]], [["1", "1"]]]),
    ])
    def test_text_or_an_object_is_no_array(self, pieces, mult):
        data = {"base_dim": 1, "pieces": pieces, "mult": mult}
        for form in (data, json.dumps(data)):
            with pytest.raises(ValueError, match="malformed module data: "
                               "expected an array, got (str|dict)$"):
                K.module_from_json(form)
        with pytest.raises(TypeError, match="expected an array"):
            K.GradedModule(1, pieces, mult)

    def test_bytes_are_no_row_but_any_other_iterable_is(self):
        with pytest.raises(TypeError, match="expected an array, got bytes"):
            K.GradedModule(1, (1, 2), [[[b"\x01\x00"]]])
        expected = K.GradedModule(1, (1, 2), [[[["1", "0"]]]])
        for mult in ([[[("1", "0")]]], [[[iter(["1", "0"])]]],
                     [[iter([["1", "0"]])]], (iter([[["1", "0"]]]),)):
            assert K.GradedModule(1, (1, 2), mult) == expected

    def test_a_json_syntax_error_is_malformed_data(self):
        for text in ("", "{", '{"base_dim": 1,}'):
            with pytest.raises(ValueError, match="malformed module data: "
                               "Expecting"):
                K.module_from_json(text)

    @pytest.mark.parametrize("row, named", [
        (["0", "x", "1/0"], "Invalid literal for Fraction: 'x'"),
        (["0", "1/0", "x"], "zero denominator in '1/0'"),
        (["1", "x", "2", "1/0", "x"], "Invalid literal for Fraction: 'x'"),
        (["1/0", "1", True], "zero denominator in '1/0'"),
        (["1", True, "1/0"], "cannot interpret True"),
    ])
    def test_the_first_bad_entry_in_the_row_is_named(self, row, named):
        # A row of strings is read by value, in no fixed order of its
        # distinct values; the message still names the first bad entry.
        data = {"base_dim": 1, "pieces": [1, len(row)], "mult": [[[row]]]}
        with pytest.raises(ValueError, match=f"malformed module data: "
                           f"{re.escape(named)}"):
            K.module_from_json(data)

    def test_a_long_row_of_distinct_strings_is_read_in_linear_time(
            self, cpu_budget):
        # 100 000 distinct strings, read entry by entry (a scan of the row
        # per distinct value would take 10**10 steps), and 100 000 entries
        # of 8 distinct ones, read by value.
        rows = [[str(k) for k in range(100_000)],
                [str(k % K._BY_VALUE + 1) for k in range(100_000)]]
        for row in rows:
            data = {"base_dim": 1, "pieces": [1, len(row)],
                    "mult": [[[row]]]}
            start = time.process_time()
            with cpu_budget(5.0):
                module = K.module_from_json(data)
            assert time.process_time() - start < 5.0
            assert module._nonzero[0][0][0][-1] == (99_999, int(row[-1]))
            assert len(module._nonzero[0][0][0]) == 100_000 - (row[0] == "0")

    def test_repeated_strings_parse_like_fraction(self):
        texts = ["1", " -2 ", "3/6", "0.25", "1e2", "-0", "007"]
        data = {"base_dim": 1, "pieces": [1] * 8,
                "mult": [[[[t]]] for t in texts]}
        module = K.module_from_json(data)
        loaded = [m[0][0][0] for m in module.mult]
        assert loaded == [Fraction(t) for t in texts]
        assert all(isinstance(m[0][0][0], Fraction) for m in module.mult)

    def test_monomial_module_validation(self):
        with pytest.raises(ValueError):
            K.monomial_quotient_module(2, 2, [(0, 0)])
        with pytest.raises(ValueError):
            K.monomial_quotient_module(2, 2, [(1, 0, 0)])
