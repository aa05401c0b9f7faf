"""Koszul matrices, strand dimensions, and the exact rank machinery.

The rank oracle below is deliberately naive (textbook Gaussian
elimination over Fraction) and is the reference the production rank —
one column-indexed elimination per connected block, exact or over a
prime field — is compared against.
"""

import itertools
import json
import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mgbar import cli
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
        assert mat.is_zero()

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
                    assert outer.compose(inner).is_zero()


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

    def test_each_differential_built_and_ranked_once(self, monkeypatch):
        built, ranked = [], []
        build, rank = K.koszul_matrix, K.matrix_rank

        def counting_build(module, i, j):
            built.append((i, j))
            return build(module, i, j)

        def counting_rank(matrix, modulus=None):
            ranked.append(id(matrix))
            return rank(matrix, modulus)

        monkeypatch.setattr(K, "koszul_matrix", counting_build)
        monkeypatch.setattr(K, "matrix_rank", counting_rank)
        table = K.betti_table(K.veronese_module(4, 4), 4, 3)
        assert table[1][1:4] == [6, 8, 3]
        assert len(built) == len(set(built))
        assert len(ranked) == len(built)
        # the 20 cells, plus d_{5,j} for j < 3: the incoming maps of the
        # cells i = 4, j > 0, which lie outside the table
        assert len(built) == 20 + 3


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


class TestSerialization:
    def test_round_trip(self):
        rng = random.Random(23)
        for _ in range(5):
            module = random_monomial_module(rng)
            blob = json.dumps(K.module_to_json(module))
            assert K.module_from_json(blob) == module

    def test_malformed_data(self):
        with pytest.raises(ValueError):
            K.module_from_json({"pieces": [1, 2]})

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

    def test_boolean_entries_are_rejected(self):
        data = {"base_dim": 1, "pieces": [1, 1], "mult": [[[[True]]]]}
        with pytest.raises(ValueError, match="malformed module data"):
            K.module_from_json(data)
        data["mult"] = [[[[1]]]]
        assert K.module_from_json(data).mult[0][0][0][0] == Fraction(1)

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
