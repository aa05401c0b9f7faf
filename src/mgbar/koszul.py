"""Koszul cohomology of graded modules, with exact linear algebra.

A graded module is given concretely: the dimension of the space V of
linear forms, the dimensions of the graded pieces M_0, M_1, ..., and
for each degree the multiplication tensor V (x) M_j -> M_{j+1}.  From
that data we build the Koszul differentials

    d_{i,j} : Wedge^i V (x) M_j  ->  Wedge^{i-1} V (x) M_{j+1},
    d_{i,j}(f_{s_0} ^ ... ^ f_{s_{i-1}} (x) u)
        = sum_l (-1)^l  f_{s_0} ^ ... f-hat_{s_l} ... (x) (u f_{s_l}),

and report the strand dimensions K_{i,j} = ker d_{i,j} / im d_{i+1,j-1}
by exact rank computations over the rationals (fraction-free Gaussian
elimination, with a sparse path for large matrices and an optional
prime-field mode where ranks become high-probability lower bounds).

Wedge basis vectors are indexed by strictly increasing tuples in
lexicographic order; within a wedge factor the module-piece index runs
fastest.  All multiplication tensors are checked for commutativity of
the induced V (x) V action at construction time, which is exactly the
condition making d o d = 0.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from fractions import Fraction

__all__ = [
    "GradedModule",
    "KoszulStrand",
    "SparseMatrix",
    "koszul_matrix",
    "matrix_rank",
    "koszul_cohomology",
    "green_lazarsfeld_Np",
    "betti_table",
    "polynomial_ring_module",
    "veronese_module",
    "monomial_quotient_module",
    "module_from_json",
    "module_to_json",
    "DEFAULT_PRIME",
]

DEFAULT_PRIME = 2**31 - 1

# Dense fraction-free elimination below this many entries, sparse above.
_DENSE_LIMIT = 10_000


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"cannot interpret {x!r} as an exact rational")


@dataclass(frozen=True)
class GradedModule:
    """Dimension data and multiplication tensors of a graded module.

    ``mult[j][l][u][w]`` is the coefficient of the ``w``-th basis
    vector of ``M_{j+1}`` in ``f_l * u`` where ``u`` is the ``u``-th
    basis vector of ``M_j``; so ``mult[j]`` has shape
    ``(base_dim, piece_dims[j], piece_dims[j+1])``.
    """

    base_dim: int
    piece_dims: tuple[int, ...]
    mult: tuple[tuple[tuple[tuple[Fraction, ...], ...], ...], ...]

    def __post_init__(self) -> None:
        if self.base_dim < 1:
            raise ValueError("base_dim must be at least 1")
        dims = tuple(int(d) for d in self.piece_dims)
        object.__setattr__(self, "piece_dims", dims)
        if len(dims) < 2:
            raise ValueError("need at least pieces M_0 and M_1")
        if any(d < 0 for d in dims):
            raise ValueError("piece dimensions must be nonnegative")
        tensors = tuple(
            tuple(
                tuple(
                    tuple(_as_fraction(x) for x in row) for row in layer
                )
                for layer in tensor
            )
            for tensor in self.mult
        )
        object.__setattr__(self, "mult", tensors)
        if len(tensors) != len(dims) - 1:
            raise ValueError(
                f"need {len(dims) - 1} multiplication tensors, "
                f"got {len(tensors)}"
            )
        for j, tensor in enumerate(tensors):
            if len(tensor) != self.base_dim:
                raise ValueError(f"mult[{j}] must have base_dim layers")
            for l, layer in enumerate(tensor):
                if len(layer) != dims[j]:
                    raise ValueError(
                        f"mult[{j}][{l}] must have {dims[j]} rows"
                    )
                for row in layer:
                    if len(row) != dims[j + 1]:
                        raise ValueError(
                            f"mult[{j}][{l}] rows must have length "
                            f"{dims[j + 1]}"
                        )
        self._check_commutativity()

    @property
    def top_degree(self) -> int:
        return len(self.piece_dims) - 1

    def _apply(self, j: int, l: int, vec: list[Fraction]) -> list[Fraction]:
        """Multiply a coefficient vector in M_j by f_l."""
        layer = self.mult[j][l]
        out = [Fraction(0)] * self.piece_dims[j + 1]
        for u, coeff in enumerate(vec):
            if coeff:
                row = layer[u]
                for w, x in enumerate(row):
                    if x:
                        out[w] += coeff * x
        return out

    def _check_commutativity(self) -> None:
        """Hard error unless f_l f_m = f_m f_l as maps M_j -> M_{j+2}."""
        for j in range(len(self.piece_dims) - 2):
            for l in range(self.base_dim):
                for m in range(l + 1, self.base_dim):
                    for u in range(self.piece_dims[j]):
                        unit = [Fraction(0)] * self.piece_dims[j]
                        unit[u] = Fraction(1)
                        lm = self._apply(j + 1, m, self._apply(j, l, unit))
                        ml = self._apply(j + 1, l, self._apply(j, m, unit))
                        if lm != ml:
                            raise ValueError(
                                "multiplication tensors do not commute: "
                                f"f_{l} f_{m} != f_{m} f_{l} on basis "
                                f"vector {u} of piece {j}"
                            )


@dataclass(frozen=True)
class KoszulStrand:
    i: int
    j: int
    kernel_dim: int
    image_dim: int
    k_dim: int

    def __post_init__(self) -> None:
        if self.k_dim != self.kernel_dim - self.image_dim:
            raise ValueError("k_dim must equal kernel_dim - image_dim")
        if self.k_dim < 0:
            raise ValueError("negative strand dimension")


@dataclass(frozen=True)
class SparseMatrix:
    """Immutable sparse matrix; ``entries[(row, col)]`` omits zeros."""

    nrows: int
    ncols: int
    entries: dict

    def __post_init__(self) -> None:
        clean = {}
        for (r, c), v in self.entries.items():
            v = _as_fraction(v)
            if not 0 <= r < self.nrows or not 0 <= c < self.ncols:
                raise ValueError(f"entry ({r}, {c}) outside matrix shape")
            if v:
                clean[(r, c)] = v
        object.__setattr__(self, "entries", clean)

    def is_zero(self) -> bool:
        return not self.entries

    def compose(self, other: "SparseMatrix") -> "SparseMatrix":
        """Matrix product ``self @ other``."""
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch in composition")
        by_col: dict[int, list[tuple[int, Fraction]]] = {}
        for (r, c), v in self.entries.items():
            by_col.setdefault(c, []).append((r, v))
        acc: dict[tuple[int, int], Fraction] = {}
        for (mid, c), v in other.entries.items():
            for r, w in by_col.get(mid, ()):
                key = (r, c)
                acc[key] = acc.get(key, Fraction(0)) + w * v
        return SparseMatrix(self.nrows, other.ncols, acc)


def _validate_degrees(module: GradedModule, i: int, j: int) -> None:
    if i < 0 or i > module.base_dim:
        raise ValueError(
            f"wedge degree {i} outside 0..{module.base_dim}"
        )
    if j < 0 or j + 1 > module.top_degree:
        raise ValueError(
            f"need pieces M_{j} and M_{j + 1}; module stops at "
            f"M_{module.top_degree}"
        )


def koszul_matrix(module: GradedModule, i: int, j: int) -> SparseMatrix:
    """Matrix of ``d_{i,j}`` in lexicographic wedge-basis order.

    Columns index ``Wedge^i V (x) M_j`` (wedge tuple major, module
    basis minor), rows index ``Wedge^{i-1} V (x) M_{j+1}``.  ``i = 0``
    gives the zero map out of ``M_j`` (a matrix with no rows).
    """
    _validate_degrees(module, i, j)
    n = module.base_dim
    dim_j = module.piece_dims[j]
    dim_j1 = module.piece_dims[j + 1]
    if i == 0:
        return SparseMatrix(0, dim_j, {})
    target_index = {
        comb: pos
        for pos, comb in enumerate(itertools.combinations(range(n), i - 1))
    }
    entries: dict[tuple[int, int], Fraction] = {}
    for s_pos, s in enumerate(itertools.combinations(range(n), i)):
        col_base = s_pos * dim_j
        for drop, l in enumerate(s):
            t_pos = target_index[s[:drop] + s[drop + 1 :]]
            row_base = t_pos * dim_j1
            sign = -1 if drop % 2 else 1
            layer = module.mult[j][l]
            for u in range(dim_j):
                col = col_base + u
                for w, x in enumerate(layer[u]):
                    if x:
                        key = (row_base + w, col)
                        entries[key] = entries.get(key, Fraction(0)) + sign * x
    nrows = math.comb(n, i - 1) * dim_j1
    ncols = math.comb(n, i) * dim_j
    return SparseMatrix(nrows, ncols, entries)


# ---------------------------------------------------------------------
# Rank computation
# ---------------------------------------------------------------------


def _integer_rows(matrix: SparseMatrix) -> list[dict[int, int]]:
    """Rows as integer sparse vectors (row scaling preserves rank)."""
    rows: list[dict[int, Fraction]] = [dict() for _ in range(matrix.nrows)]
    for (r, c), v in matrix.entries.items():
        rows[r][c] = v
    out = []
    for row in rows:
        if not row:
            continue
        scale = math.lcm(*(v.denominator for v in row.values()))
        ints = {c: int(v * scale) for c, v in row.items()}
        g = math.gcd(*ints.values())
        if g > 1:
            ints = {c: v // g for c, v in ints.items()}
        out.append(ints)
    return out


def _rank_dense(rows: list[dict[int, int]], ncols: int) -> int:
    """Fraction-free (Bareiss) elimination on integer rows."""
    mat = [[row.get(c, 0) for c in range(ncols)] for row in rows]
    nr = len(mat)
    rank = 0
    prev = 1
    r0 = 0
    for col in range(ncols):
        piv = next((r for r in range(r0, nr) if mat[r][col]), None)
        if piv is None:
            continue
        mat[r0], mat[piv] = mat[piv], mat[r0]
        pval = mat[r0][col]
        for r in range(r0 + 1, nr):
            rv = mat[r][col]
            target = mat[r]
            source = mat[r0]
            for c in range(col + 1, ncols):
                target[c] = (pval * target[c] - rv * source[c]) // prev
            target[col] = 0
        prev = pval
        rank += 1
        r0 += 1
        if r0 == nr:
            break
    return rank


def _rank_sparse(rows: list[dict[int, int]]) -> int:
    """Integer cross-multiplication elimination with gcd normalization.

    Deterministic pivoting: leftmost occupied column; among its rows,
    the sparsest one (earliest on ties).
    """
    work = [dict(r) for r in rows if r]
    rank = 0
    while work:
        pcol = min(min(r) for r in work)
        candidates = [k for k, r in enumerate(work) if pcol in r]
        piv = min(candidates, key=lambda k: (len(work[k]), k))
        prow = work.pop(piv)
        pval = prow[pcol]
        rank += 1
        survivors = []
        for row in work:
            rv = row.pop(pcol, None)
            if rv is None:
                survivors.append(row)
                continue
            new: dict[int, int] = {}
            for c, v in row.items():
                new[c] = v * pval
            for c, v in prow.items():
                if c == pcol:
                    continue
                acc = new.get(c, 0) - rv * v
                if acc:
                    new[c] = acc
                else:
                    new.pop(c, None)
            if new:
                g = math.gcd(*new.values())
                if g > 1:
                    new = {c: v // g for c, v in new.items()}
                survivors.append(new)
        work = survivors
    return rank


def _rank_modp(rows: list[dict[int, int]], p: int) -> int:
    work = []
    for row in rows:
        red = {c: v % p for c, v in row.items() if v % p}
        if red:
            work.append(red)
    rank = 0
    while work:
        pcol = min(min(r) for r in work)
        candidates = [k for k, r in enumerate(work) if pcol in r]
        piv = min(candidates, key=lambda k: (len(work[k]), k))
        prow = work.pop(piv)
        inv = pow(prow[pcol], -1, p)
        prow = {c: (v * inv) % p for c, v in prow.items()}
        rank += 1
        survivors = []
        for row in work:
            rv = row.pop(pcol, None)
            if rv is None:
                survivors.append(row)
                continue
            for c, v in prow.items():
                if c == pcol:
                    continue
                acc = (row.get(c, 0) - rv * v) % p
                if acc:
                    row[c] = acc
                else:
                    row.pop(c, None)
            if row:
                survivors.append(row)
        work = survivors
    return rank


def _is_probable_prime(n: int) -> bool:
    if n < 2:
        return False
    small = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    for q in small:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in small:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def matrix_rank(matrix: SparseMatrix, modulus: int | None = None) -> int:
    """Exact rank, or rank over F_modulus (a lower bound on the exact
    rank, sharp for all but finitely many primes)."""
    rows = _integer_rows(matrix)
    if modulus is not None:
        if modulus <= 2**30:
            raise ValueError("prime-field modulus must exceed 2**30")
        if not _is_probable_prime(modulus):
            raise ValueError(f"{modulus} is not prime")
        return _rank_modp(rows, modulus)
    if matrix.nrows * matrix.ncols < _DENSE_LIMIT:
        return _rank_dense(rows, matrix.ncols)
    return _rank_sparse(rows)


# ---------------------------------------------------------------------
# Cohomology
# ---------------------------------------------------------------------


def koszul_cohomology(
    module: GradedModule, i: int, j: int, modulus: int | None = None
) -> KoszulStrand:
    """Strand dimensions at ``(i, j)``.

    ``k_dim = dim ker d_{i,j} - rank d_{i+1,j-1}`` with ``M_{-1} = 0``
    and ``Wedge^{i+1} V = 0`` when ``i + 1 > base_dim``.  The composite
    ``d_{i,j} o d_{i+1,j-1}`` is asserted to vanish first; failure
    means the multiplication data is inconsistent.  With ``modulus``
    the reported ranks are high-probability lower bounds, making
    ``k_dim`` an upper bound.
    """
    _validate_degrees(module, i, j)
    outgoing = koszul_matrix(module, i, j)
    kernel_dim = outgoing.ncols - matrix_rank(outgoing, modulus)
    image_dim = 0
    if j - 1 >= 0 and i + 1 <= module.base_dim:
        incoming = koszul_matrix(module, i + 1, j - 1)
        if not outgoing.compose(incoming).is_zero():
            raise ValueError(
                f"inconsistent multiplication data: d_({i},{j}) o "
                f"d_({i + 1},{j - 1}) is not zero"
            )
        image_dim = matrix_rank(incoming, modulus)
    return KoszulStrand(i, j, kernel_dim, image_dim, kernel_dim - image_dim)


def green_lazarsfeld_Np(module: GradedModule, p: int) -> bool:
    """Whether ``K_{i,2} = 0`` for all ``0 <= i <= p``."""
    if p < 0:
        raise ValueError("p must be nonnegative")
    if module.top_degree < 3:
        raise ValueError(
            "checking the quadratic strand needs graded pieces up to M_3"
        )
    for i in range(p + 1):
        if i > module.base_dim:
            break
        if koszul_cohomology(module, i, 2).k_dim != 0:
            return False
    return True


def betti_table(
    module: GradedModule, max_i: int, max_j: int, modulus: int | None = None
) -> list[list[int]]:
    """Rows ``j = 0..max_j``, columns ``i = 0..max_i`` of ``k_dim``."""
    if max_i < 0 or max_j < 0:
        raise ValueError("table bounds must be nonnegative")
    if max_j + 1 > module.top_degree:
        raise ValueError(
            f"table needs pieces up to M_{max_j + 1}; module stops at "
            f"M_{module.top_degree}"
        )
    if max_i > module.base_dim:
        raise ValueError(f"wedge degree bound {max_i} exceeds base_dim")
    return [
        [
            koszul_cohomology(module, i, j, modulus).k_dim
            for i in range(max_i + 1)
        ]
        for j in range(max_j + 1)
    ]


# ---------------------------------------------------------------------
# Builders
# ---------------------------------------------------------------------


def _monomials(n: int, degree: int) -> list[tuple[int, ...]]:
    """Exponent tuples of degree-``degree`` monomials in ``n``
    variables, in a fixed deterministic order."""
    out = []
    for combo in itertools.combinations_with_replacement(range(n), degree):
        exp = [0] * n
        for v in combo:
            exp[v] += 1
        out.append(tuple(exp))
    return out


def _module_from_monomial_bases(
    n: int, bases: list[list[tuple[int, ...]]]
) -> GradedModule:
    """Assemble multiplication tensors for monomial bases where
    ``f_l`` acts as multiplication by ``x_l`` (missing targets -> 0)."""
    mult = []
    for j in range(len(bases) - 1):
        index = {mono: w for w, mono in enumerate(bases[j + 1])}
        dim_j, dim_j1 = len(bases[j]), len(bases[j + 1])
        tensor = []
        for l in range(n):
            layer = [[Fraction(0)] * dim_j1 for _ in range(dim_j)]
            for u, mono in enumerate(bases[j]):
                bumped = list(mono)
                bumped[l] += 1
                w = index.get(tuple(bumped))
                if w is not None:
                    layer[u][w] = Fraction(1)
            tensor.append(tuple(tuple(row) for row in layer))
        mult.append(tuple(tensor))
    dims = tuple(len(b) for b in bases)
    return GradedModule(n, dims, tuple(mult))


def polynomial_ring_module(n: int, top: int) -> GradedModule:
    """The polynomial ring on ``n`` variables as a module over itself,
    graded pieces up to degree ``top``."""
    if n < 1 or top < 1:
        raise ValueError("need n >= 1 and top >= 1")
    bases = [_monomials(n, j) for j in range(top + 1)]
    return _module_from_monomial_bases(n, bases)


def veronese_module(d: int, top: int) -> GradedModule:
    """Coordinate ring of the degree-``d`` rational normal curve:
    pieces ``M_j`` of dimension ``d j + 1`` with ``V`` of dimension
    ``d + 1`` acting by monomial multiplication on the line."""
    if d < 1 or top < 1:
        raise ValueError("need d >= 1 and top >= 1")
    dims = tuple(d * j + 1 for j in range(top + 1))
    mult = []
    for j in range(top):
        tensor = []
        for l in range(d + 1):
            layer = [[Fraction(0)] * dims[j + 1] for _ in range(dims[j])]
            for u in range(dims[j]):
                layer[u][u + l] = Fraction(1)
            tensor.append(tuple(tuple(row) for row in layer))
        mult.append(tuple(tensor))
    return GradedModule(d + 1, dims, tuple(mult))


def monomial_quotient_module(
    n: int, top: int, generators: list[tuple[int, ...]]
) -> GradedModule:
    """Quotient of the polynomial ring by the monomial ideal with the
    given exponent-tuple ``generators`` (all of positive degree)."""
    if n < 1 or top < 1:
        raise ValueError("need n >= 1 and top >= 1")
    gens = [tuple(g) for g in generators]
    for g in gens:
        if len(g) != n or any(e < 0 for e in g):
            raise ValueError(f"bad generator exponents {g}")
        if sum(g) == 0:
            raise ValueError("degree-0 generator collapses the module")

    def in_ideal(mono: tuple[int, ...]) -> bool:
        return any(all(m >= e for m, e in zip(mono, g)) for g in gens)

    bases = [
        [m for m in _monomials(n, j) if not in_ideal(m)]
        for j in range(top + 1)
    ]
    if any(len(b) == 0 for b in bases[:2]):
        raise ValueError("quotient has no room in degrees 0..1")
    return _module_from_monomial_bases(n, bases)


# ---------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------


def module_from_json(data) -> GradedModule:
    """Build a module from ``{"base_dim", "pieces", "mult"}`` where
    ``mult[j][l][u][w]`` holds rational strings; accepts a JSON string
    or an already-parsed mapping."""
    if isinstance(data, str):
        data = json.loads(data)
    try:
        base_dim = int(data["base_dim"])
        pieces = tuple(int(d) for d in data["pieces"])
        mult = tuple(
            tuple(
                tuple(
                    tuple(_as_fraction(x) for x in row) for row in layer
                )
                for layer in tensor
            )
            for tensor in data["mult"]
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed module data: {exc}") from exc
    return GradedModule(base_dim, pieces, mult)


def module_to_json(module: GradedModule) -> dict:
    return {
        "base_dim": module.base_dim,
        "pieces": list(module.piece_dims),
        "mult": [
            [
                [[str(x) for x in row] for row in layer]
                for layer in tensor
            ]
            for tensor in module.mult
        ],
    }
