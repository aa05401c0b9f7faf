"""Koszul cohomology of graded modules, with exact linear algebra.

A graded module is given concretely: the dimension of the space V of
linear forms, the dimensions of the graded pieces M_0, M_1, ..., and
for each degree the multiplication tensor V (x) M_j -> M_{j+1}.  From
that data we build the Koszul differentials

    d_{i,j} : Wedge^i V (x) M_j  ->  Wedge^{i-1} V (x) M_{j+1},
    d_{i,j}(f_{s_0} ^ ... ^ f_{s_{i-1}} (x) u)
        = sum_l (-1)^l  f_{s_0} ^ ... f-hat_{s_l} ... (x) (u f_{s_l}),

and report the strand dimensions K_{i,j} = ker d_{i,j} / im d_{i+1,j-1}
by exact rank computations: each differential is split into the
connected blocks of its rows and columns, and each block is ranked by
one column-indexed sparse elimination, over the integers or, in the
optional prime-field mode, over F_p (ranks then become high-probability
lower bounds).  A Betti table builds and ranks each differential once.

Wedge basis vectors are indexed by strictly increasing tuples in
lexicographic order; within a wedge factor the module-piece index runs
fastest.  All multiplication tensors are checked for commutativity of
the induced V (x) V action at construction time, which is exactly the
condition making d o d = 0.
"""

from __future__ import annotations

import heapq
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
    "MAX_MATRIX_SIDE",
]

DEFAULT_PRIME = 2**31 - 1

# Largest number of rows or columns of a differential d_{i,j} that is
# built.  The largest that the tests, demos and benchmark build has 875
# rows (d_{4,3} of the degree-6 Veronese), so the cap leaves a factor of
# eleven; a module JSON that asks for comb(40, 20)-column matrices is
# refused before any matrix is built.
MAX_MATRIX_SIDE = 10_000


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, str)) and not isinstance(x, bool):
        return Fraction(x)
    raise TypeError(f"cannot interpret {x!r} as an exact rational")


def _exact(x) -> int | Fraction:
    """``x`` as an ``int`` when it is integral, else as a ``Fraction``."""
    if type(x) is int:
        return x
    x = _as_fraction(x)
    return x.numerator if x.denominator == 1 else x


def _rows(f, mult) -> tuple:
    """``f(row)`` for every row of every layer of every tensor of ``mult``."""
    return tuple(
        tuple(tuple(f(row) for row in layer) for layer in tensor)
        for tensor in mult
    )


def _product(pairs, layer) -> dict:
    """Nonzero coefficients of ``f(sum x e_w)`` over ``pairs``, where
    ``layer[w]`` lists the nonzero ``(w', y)`` of ``f(e_w)``."""
    out: dict = {}
    for w, x in pairs:
        for v, y in layer[w]:
            out[v] = out.get(v, 0) + x * y
    return {v: c for v, c in out.items() if c}


@dataclass(frozen=True)
class GradedModule:
    """Dimension data and multiplication tensors of a graded module.

    ``mult[j][l][u][w]`` is the coefficient of the ``w``-th basis
    vector of ``M_{j+1}`` in ``f_l * u`` where ``u`` is the ``u``-th
    basis vector of ``M_j``; so ``mult[j]`` has shape
    ``(base_dim, piece_dims[j], piece_dims[j+1])``.  The differentials
    and the commutativity check read a private sparse view of it: the
    nonzero ``(w, x)`` per ``(j, l, u)``, with integral ``x`` as ``int``.
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
        tensors = _rows(lambda row: tuple(map(_as_fraction, row)), self.mult)
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
        nonzero = _rows(
            lambda row: tuple((w, _exact(x)) for w, x in enumerate(row) if x),
            tensors,
        )
        object.__setattr__(self, "_nonzero", nonzero)
        self._check_commutativity()

    @property
    def top_degree(self) -> int:
        return len(self.piece_dims) - 1

    def _check_commutativity(self) -> None:
        """Hard error unless f_l f_m = f_m f_l as maps M_j -> M_{j+2}."""
        for j in range(len(self.piece_dims) - 2):
            first, second = self._nonzero[j], self._nonzero[j + 1]
            for l, m in itertools.combinations(range(self.base_dim), 2):
                for u in range(self.piece_dims[j]):
                    lm = _product(first[l][u], second[m])
                    if lm != _product(first[m][u], second[l]):
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
    """Immutable sparse matrix; ``entries[(row, col)]`` omits zeros and
    holds integral entries as ``int``, the others as ``Fraction``."""

    nrows: int
    ncols: int
    entries: dict

    def __post_init__(self) -> None:
        clean = {}
        for (r, c), v in self.entries.items():
            v = _exact(v)
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
        by_col: dict[int, list[tuple[int, int | Fraction]]] = {}
        for (r, c), v in self.entries.items():
            by_col.setdefault(c, []).append((r, v))
        acc: dict[tuple[int, int], int | Fraction] = {}
        for (mid, c), v in other.entries.items():
            for r, w in by_col.get(mid, ()):
                acc[r, c] = acc.get((r, c), 0) + w * v
        return SparseMatrix(self.nrows, other.ncols, acc)


def _check_cell(module: GradedModule, i: int, j: int) -> tuple[int, int]:
    """The shape of ``d_{i,j}``, refused unless ``Wedge^i V``, ``M_j`` and
    ``M_{j+1}`` exist and no side exceeds :data:`MAX_MATRIX_SIDE`."""
    n, dims = module.base_dim, module.piece_dims
    if i < 0 or i > n:
        raise ValueError(f"wedge degree {i} outside 0..{n}")
    if j < 0 or j + 1 > module.top_degree:
        raise ValueError(
            f"need pieces M_{j} and M_{j + 1}; module stops at "
            f"M_{module.top_degree}"
        )
    nrows = math.comb(n, i - 1) * dims[j + 1] if i else 0
    ncols = math.comb(n, i) * dims[j]
    if max(nrows, ncols) > MAX_MATRIX_SIDE:
        raise ValueError(
            f"d_({i},{j}) would be {nrows} x {ncols}; the limit is "
            f"{MAX_MATRIX_SIDE} rows or columns"
        )
    return nrows, ncols


def koszul_matrix(module: GradedModule, i: int, j: int) -> SparseMatrix:
    """Matrix of ``d_{i,j}`` in lexicographic wedge-basis order.

    Columns index ``Wedge^i V (x) M_j`` (wedge tuple major, module
    basis minor), rows index ``Wedge^{i-1} V (x) M_{j+1}``.  ``i = 0``
    gives the zero map out of ``M_j`` (a matrix with no rows).
    """
    nrows, ncols = _check_cell(module, i, j)
    n = module.base_dim
    dim_j, dim_j1 = module.piece_dims[j], module.piece_dims[j + 1]
    if i == 0:
        return SparseMatrix(nrows, ncols, {})
    target_index = {
        comb: pos
        for pos, comb in enumerate(itertools.combinations(range(n), i - 1))
    }
    # Each (row, column) is reached once: dropping different wedge
    # factors of a column lands in different row blocks.
    entries: dict[tuple[int, int], int | Fraction] = {}
    for s_pos, s in enumerate(itertools.combinations(range(n), i)):
        col_base = s_pos * dim_j
        for drop, l in enumerate(s):
            row_base = target_index[s[:drop] + s[drop + 1 :]] * dim_j1
            odd = drop % 2
            for u, pairs in enumerate(module._nonzero[j][l]):
                for w, x in pairs:
                    entries[(row_base + w, col_base + u)] = -x if odd else x
    return SparseMatrix(nrows, ncols, entries)


# ---------------------------------------------------------------------
# Rank computation
# ---------------------------------------------------------------------


def _rank_rows(rows: list[dict[int, int]], p: int | None = None) -> int:
    """Rank of integer sparse rows, exact or over F_p when ``p`` is given.

    ``cols`` maps each column to the ids of the rows that meet it, so a
    pivot touches only those rows.  The pivot column has the fewest rows
    (lowest index on ties; heap counts may be stale and are checked on
    pop), the pivot row is the sparsest of them.  Exact rows are
    cross-multiplied by the cofactors of ``gcd(pivot, entry)`` and made
    primitive; over F_p the pivot row is scaled to a leading 1.
    """
    if p:
        rows = [{c: v % p for c, v in row.items() if v % p} for row in rows]
    work = {k: dict(row) for k, row in enumerate(rows) if row}
    cols: dict[int, set[int]] = {}
    for k, row in work.items():
        for c in row:
            cols.setdefault(c, set()).add(k)
    heap = [(len(ks), c) for c, ks in cols.items()]
    heapq.heapify(heap)
    rank = 0
    while heap:
        count, pcol = heapq.heappop(heap)
        if len(cols.get(pcol, ())) != count:
            continue
        ks = cols.pop(pcol)
        piv = min(ks, key=lambda k: (len(work[k]), k))
        ks.remove(piv)
        prow = work.pop(piv)
        pval = prow.pop(pcol)
        if p:
            inv = pow(pval, -1, p)
            prow, pval = {c: v * inv % p for c, v in prow.items()}, 1
        for c in prow:
            cols[c].discard(piv)
        for k in ks:
            row = work[k]
            a, b = pval, row.pop(pcol)
            if not p:
                g = math.gcd(a, b) if a > 0 else -math.gcd(a, b)
                a, b = a // g, b // g
            if a != 1:
                for c in row:
                    row[c] *= a
            for c, v in prow.items():
                old = row.get(c)
                new = (old or 0) - b * v
                if p:
                    new %= p
                if new:
                    if old is None:
                        cols[c].add(k)
                    row[c] = new
                elif old is not None:
                    del row[c]
                    cols[c].discard(k)
            if not row:
                del work[k]
            elif not p and (g := math.gcd(*row.values())) > 1:
                for c in row:
                    row[c] //= g
        for c in prow:
            if cols[c]:
                heapq.heappush(heap, (len(cols[c]), c))
            else:
                del cols[c]
        rank += 1
    return rank


def _is_probable_prime(n: int) -> bool:
    """Miller-Rabin to the first twelve prime bases."""
    small = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    if n < 2 or any(n % q == 0 for q in small):
        return n in small
    s = ((n - 1) & (1 - n)).bit_length() - 1
    d = (n - 1) >> s
    return not any(
        pow(a, d, n) != 1
        and all(pow(a, d << r, n) != n - 1 for r in range(s))
        for a in small
    )


def matrix_rank(matrix: SparseMatrix, modulus: int | None = None) -> int:
    """Exact rank, or rank over F_modulus (a lower bound on the exact
    rank, sharp for all but finitely many primes): the sum of the ranks
    of the blocks of rows that are connected through shared columns."""
    if modulus is not None:
        if modulus <= 2**30:
            raise ValueError("prime-field modulus must exceed 2**30")
        if not _is_probable_prime(modulus):
            raise ValueError(f"{modulus} is not prime")
    by_row: dict[int, dict] = {}
    for (r, c), v in matrix.entries.items():
        by_row.setdefault(r, {})[c] = v
    rows = []  # primitive integer rows: row scaling preserves rank
    for row in by_row.values():
        if not all(type(v) is int for v in row.values()):
            scale = math.lcm(*(v.denominator for v in row.values()))
            row = {c: int(v * scale) for c, v in row.items()}
        g = math.gcd(*row.values())
        rows.append({c: v // g for c, v in row.items()} if g > 1 else row)
    parent: dict[int, int] = {}

    def find(c: int) -> int:
        while parent.setdefault(c, c) != c:
            parent[c] = c = parent[parent[c]]
        return c

    for row in rows:
        first, *rest = row
        for c in rest:
            parent[find(c)] = find(first)
    blocks: dict[int, list[dict[int, int]]] = {}
    for row in rows:
        blocks.setdefault(find(next(iter(row))), []).append(row)
    return sum(_rank_rows(block, modulus) for block in blocks.values())


# ---------------------------------------------------------------------
# Cohomology
# ---------------------------------------------------------------------


def _strand(outgoing: tuple, incoming: tuple | None) -> KoszulStrand:
    """The strand of a cell from ``((i, j), d_{i,j}, rank)`` and the same
    for ``d_{i+1,j-1}``; ``d_{i,j} o d_{i+1,j-1}`` must vanish."""
    (i, j), matrix, rank = outgoing
    kernel_dim = matrix.ncols - rank
    image_dim = 0
    if incoming is not None:
        if not matrix.compose(incoming[1]).is_zero():
            raise ValueError(
                f"inconsistent multiplication data: d_({i},{j}) o "
                f"d_({i + 1},{j - 1}) is not zero"
            )
        image_dim = incoming[2]
    return KoszulStrand(i, j, kernel_dim, image_dim, kernel_dim - image_dim)


def _strands(module: GradedModule, cells, modulus: int | None):
    """The strand of each ``(i, j)`` in ``cells``, in order.

    A cell's incoming map ``d_{i+1,j-1}`` is the outgoing map of the
    cell ``(i+1, j-1)``; when that cell came just before, its matrix and
    rank are reused, so walking ``i + j = const`` with ``i`` falling builds
    and ranks each differential once, with at most two matrices alive
    (``previous`` and ``incoming``).  All sizes are checked up front.
    """
    for i, j in cells:
        _check_cell(module, i, j)
        if j >= 1 and i < module.base_dim:
            _check_cell(module, i + 1, j - 1)

    def ranked(i: int, j: int) -> tuple:
        matrix = koszul_matrix(module, i, j)
        return (i, j), matrix, matrix_rank(matrix, modulus)

    previous = None
    for i, j in cells:
        reuse = previous is not None and previous[0] == (i + 1, j - 1)
        incoming, previous = (previous if reuse else None), None
        if incoming is None and j >= 1 and i < module.base_dim:
            incoming = ranked(i + 1, j - 1)
        previous = ranked(i, j)
        yield _strand(previous, incoming)


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
    return next(_strands(module, [(i, j)], modulus))


def green_lazarsfeld_Np(module: GradedModule, p: int) -> bool:
    """Whether ``K_{i,2} = 0`` for all ``0 <= i <= p``."""
    if p < 0:
        raise ValueError("p must be nonnegative")
    if module.top_degree < 3:
        raise ValueError(
            "checking the quadratic strand needs graded pieces up to M_3"
        )
    cells = [(i, 2) for i in range(min(p, module.base_dim) + 1)]
    return all(strand.k_dim == 0 for strand in _strands(module, cells, None))


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
    cells = [
        (i, s - i)
        for s in range(max_i + max_j + 1)
        for i in range(min(max_i, s), max(0, s - max_j) - 1, -1)
    ]
    table = [[0] * (max_i + 1) for _ in range(max_j + 1)]
    for strand in _strands(module, cells, modulus):
        table[strand.j][strand.i] = strand.k_dim
    return table


# ---------------------------------------------------------------------
# Builders
# ---------------------------------------------------------------------


def _monomials(n: int, degree: int) -> list[tuple[int, ...]]:
    """Exponent tuples of degree-``degree`` monomials in ``n``
    variables, in a fixed deterministic order."""
    return [
        tuple(combo.count(v) for v in range(n))
        for combo in itertools.combinations_with_replacement(range(n), degree)
    ]


def _monomial_module(gens, bases) -> GradedModule:
    """Multiplication tensors for monomial bases where ``f_l`` multiplies
    by the monomial ``gens[l]`` (products outside the next basis -> 0)."""
    mult = []
    for j in range(len(bases) - 1):
        index = {mono: w for w, mono in enumerate(bases[j + 1])}
        tensor = []
        for g in gens:
            layer = [[Fraction(0)] * len(bases[j + 1]) for _ in bases[j]]
            for u, mono in enumerate(bases[j]):
                w = index.get(tuple(a + b for a, b in zip(mono, g)))
                if w is not None:
                    layer[u][w] = Fraction(1)
            tensor.append(tuple(tuple(row) for row in layer))
        mult.append(tuple(tensor))
    return GradedModule(len(gens), tuple(len(b) for b in bases), tuple(mult))


def polynomial_ring_module(n: int, top: int) -> GradedModule:
    """The polynomial ring on ``n`` variables as a module over itself,
    graded pieces up to degree ``top``."""
    if n < 1 or top < 1:
        raise ValueError("need n >= 1 and top >= 1")
    bases = [_monomials(n, j) for j in range(top + 1)]
    return _monomial_module(_monomials(n, 1), bases)


def veronese_module(d: int, top: int) -> GradedModule:
    """Coordinate ring of the degree-``d`` rational normal curve:
    pieces ``M_j`` of dimension ``d j + 1`` with ``V`` of dimension
    ``d + 1`` acting by monomial multiplication on the line."""
    if d < 1 or top < 1:
        raise ValueError("need d >= 1 and top >= 1")
    gens = [(l, d - l) for l in range(d + 1)]
    bases = [[(u, d * j - u) for u in range(d * j + 1)]
             for j in range(top + 1)]
    return _monomial_module(gens, bases)


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
    return _monomial_module(_monomials(n, 1), bases)


# ---------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------


def module_from_json(data) -> GradedModule:
    """Build a module from ``{"base_dim", "pieces", "mult"}`` where
    ``mult[j][l][u][w]`` holds rational strings or integers and the
    sizes are JSON integers; accepts a JSON string or an already-parsed
    mapping."""
    if isinstance(data, str):
        data = json.loads(data)
    # Entries repeat ("0", "1", "-1"), and Fraction(str) dominates the
    # load, so each distinct string is parsed once.
    parsed: dict[str, Fraction] = {}

    def entry(x) -> Fraction:
        if type(x) is not str:
            return _as_fraction(x)
        if x not in parsed:
            parsed[x] = Fraction(x)
        return parsed[x]

    try:
        base_dim, pieces = data["base_dim"], tuple(data["pieces"])
        if any(type(x) is not int for x in (base_dim, *pieces)):
            raise TypeError(f"non-integer size in {base_dim!r}, {pieces!r}")
        mult = _rows(lambda row: tuple(map(entry, row)), data["mult"])
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
