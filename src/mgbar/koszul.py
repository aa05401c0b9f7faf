"""Koszul cohomology of graded modules, with exact linear algebra.

A graded module is given concretely: the dimension of the space V of
linear forms, the dimensions of the graded pieces M_0, M_1, ..., and
for each degree the multiplication tensor V (x) M_j -> M_{j+1}.  From
that data we build the Koszul differentials

    d_{i,j} : Wedge^i V (x) M_j  ->  Wedge^{i-1} V (x) M_{j+1},
    d_{i,j}(f_{s_0} ^ ... ^ f_{s_{i-1}} (x) u)
        = sum_l (-1)^l  f_{s_0} ^ ... f-hat_{s_l} ... (x) (u f_{s_l}),

and report the strand dimensions K_{i,j} = ker d_{i,j} / im d_{i+1,j-1}
by exact rank computations.  A module's entries are read in one pass per
row.  A Betti table builds each differential once, as the column vectors
that one sparse elimination ranks, over the integers or, in the optional
prime-field mode, over F_p (ranks then become high-probability lower
bounds); an elimination past ``MAX_ELIMINATION_WORK`` updates raises
:class:`mgbar.ResourceLimitError`.  A pivot coordinate that one column
meets comes from a worklist and updates nothing; the others come from a
heap by count, whose stale counts are pushed again when popped.  Each
``d_{i,j}`` is ranked only on a complement of the incoming image
``im d_{i+1,j-1}``: the columns at the independent rows that ranking
``d_{i+1,j-1}`` found are never built, as ``d_{i,j}`` kills that image.

Wedge basis vectors are indexed by strictly increasing tuples in
lexicographic order; within a wedge factor the module-piece index runs
fastest.

d o d = 0 is checked from the multiplication data, once per module
piece, not by composing matrices.  In d_{i,j} o d_{i+1,j-1}, the column
f_S (x) u (|S| = i+1, u in M_{j-1}) reaches the row f_T (x) w only when
T drops two factors s_a, s_b (a < b) of S, along two paths: dropping
s_a then s_b gives (-1)^(a+b-1) [f_{s_b} f_{s_a} u]_w, dropping s_b
then s_a gives (-1)^(a+b) [f_{s_a} f_{s_b} u]_w.  The entry is their
sum, (-1)^(a+b) [f_{s_a} f_{s_b} u - f_{s_b} f_{s_a} u]_w, and every
other entry is zero.  When 1 <= i < base_dim, every pair l < m lies in
some S, so the composite vanishes iff f_l f_m = f_m f_l on M_{j-1}; at
i = 0, d_{0,j} has no rows and the composite is zero.  The constructor
checks every piece, and a Betti walk checks again each piece whose
commutativity its ranks rely on, so data assembled around the
constructor fails closed.  Either check first counts the product terms
it would visit and raises :class:`mgbar.ResourceLimitError` past
``MAX_COMMUTATIVITY_WORK``.
"""

from __future__ import annotations

import heapq
import itertools
import math
from fractions import Fraction

from . import ResourceLimitError, _Record, _rational

__all__ = [
    "GradedModule", "KoszulStrand", "SparseMatrix", "koszul_matrix",
    "matrix_rank", "koszul_cohomology", "green_lazarsfeld_Np", "betti_table",
    "polynomial_ring_module", "veronese_module", "monomial_quotient_module",
    "module_from_json", "module_to_json", "DEFAULT_PRIME", "MAX_MATRIX_SIDE",
    "MAX_ELIMINATION_WORK", "MAX_COMMUTATIVITY_WORK",
]

DEFAULT_PRIME = 2**31 - 1

# Largest number of rows or columns of a differential d_{i,j} that is
# built.  The largest that the tests, demos and benchmark build has 875
# rows (d_{4,3} of the degree-6 Veronese), so the cap leaves a factor of
# eleven; a module JSON that asks for comb(40, 20)-column matrices is
# refused before any matrix is built.
MAX_MATRIX_SIDE = 10_000

# Most updates of one elimination, counted per pivot as vectors times
# pivot-vector entries: 498 times the largest test or benchmark job
# (4 010); a dense random 245 x 245 matrix needs 4.8 million (8.6 s on a
# Xeon).
MAX_ELIMINATION_WORK = 2_000_000

# Most product terms one commutativity check of a module visits, counted
# before any product: 158 times the largest module of the tests, demos or
# benchmark (6 300).  Pieces [1, 1, 1] with base_dim 2 000 would need 4.0
# million (3.2 s on a Xeon).
MAX_COMMUTATIVITY_WORK = 1_000_000


def _exact(x) -> int | Fraction:
    """``x`` as an ``int`` when it is integral, else as a ``Fraction``."""
    if type(x) is int:
        return x
    if isinstance(x, str):
        x = _rational(x)
    elif isinstance(x, int) and not isinstance(x, bool):
        return int(x)
    elif not isinstance(x, Fraction):
        raise TypeError(f"cannot interpret {x!r} as an exact rational")
    return x.numerator if x.denominator == 1 else x


class _Memo(dict):
    """``f(x)`` for each distinct ``x``, computed on its first lookup."""

    def __init__(self, f) -> None:
        self.f = f

    def __missing__(self, x):
        self[x] = y = self.f(x)
        return y


def _load(mult) -> tuple[tuple, tuple]:
    """``mult`` with ``Fraction`` entries, and its sparse view: the nonzero
    ``(w, x)`` of each row, with integral ``x`` as ``int``.

    One pass per row.  Entries repeat, so a row of only ``int``, ``str``
    and ``Fraction`` entries reads each from a memo of ``_exact``, where
    no ``bool`` or float meets an ``int``'s slot; any other row goes
    through ``_exact`` entry by entry, which raises on the first bad one.
    """
    exact, fraction = _Memo(_exact), _Memo(Fraction)
    plain = {int, str, Fraction}

    def row(entries) -> tuple[tuple, tuple]:
        values = tuple(map(exact.__getitem__ if set(map(type, entries))
                           <= plain else _exact, entries))
        return tuple(map(fraction.__getitem__, values)), tuple(zip(
            itertools.compress(itertools.count(), values),
            filter(None, values)))

    rows = [[list(map(row, layer)) for layer in tensor] for tensor in mult]
    return tuple(tuple(tuple(tuple(pair[k] for pair in layer)
                             for layer in tensor) for tensor in rows)
                 for k in (0, 1))


def _product(pairs, layer) -> dict:
    """Nonzero coefficients of ``f(sum x e_w)`` over ``pairs``, where
    ``layer[w]`` lists the nonzero ``(w', y)`` of ``f(e_w)``."""
    out: dict = {}
    for w, x in pairs:
        for v, y in layer[w]:
            out[v] = out.get(v, 0) + x * y
    return {v: c for v, c in out.items() if c}


def _dims(base_dim: int, piece_dims) -> tuple[int, ...]:
    """The piece dimensions, once they and ``base_dim`` pass the checks."""
    if base_dim < 1:
        raise ValueError("base_dim must be at least 1")
    dims = tuple(int(d) for d in piece_dims)
    if len(dims) < 2:
        raise ValueError("need at least pieces M_0 and M_1")
    if any(d < 0 for d in dims):
        raise ValueError("piece dimensions must be nonnegative")
    return dims


class GradedModule(_Record):
    """Dimension data and multiplication tensors of a graded module.

    ``mult[j][l][u][w]`` is the coefficient of the ``w``-th basis
    vector of ``M_{j+1}`` in ``f_l * u`` where ``u`` is the ``u``-th
    basis vector of ``M_j``; so ``mult[j]`` has shape
    ``(base_dim, piece_dims[j], piece_dims[j+1])``.  The differentials
    and the commutativity check read a private sparse view of it: the
    nonzero ``(w, x)`` per ``(j, l, u)``, with integral ``x`` as ``int``.
    Instances are read-only.
    """

    _fields = ("base_dim", "piece_dims", "mult")

    def __init__(self, base_dim: int, piece_dims, mult) -> None:
        self._fill(base_dim, _dims(base_dim, piece_dims), *_load(mult))

    def _fill(self, base_dim: int, dims: tuple, tensors, nonzero) -> None:
        """Store the sizes and the loaded tensors, then check them."""
        self.__dict__.update(base_dim=base_dim, piece_dims=dims, mult=tensors,
                             _nonzero=nonzero)
        if len(tensors) != len(dims) - 1:
            raise ValueError(f"need {len(dims) - 1} multiplication tensors, "
                             f"got {len(tensors)}")
        for j, tensor in enumerate(tensors):
            if len(tensor) != base_dim:
                raise ValueError(f"mult[{j}] must have base_dim layers")
            for l, layer in enumerate(tensor):
                if len(layer) != dims[j]:
                    raise ValueError(
                        f"mult[{j}][{l}] must have {dims[j]} rows")
                if any(len(row) != dims[j + 1] for row in layer):
                    raise ValueError(f"mult[{j}][{l}] rows must have length "
                                     f"{dims[j + 1]}")
        self._check_commutativity()

    @property
    def top_degree(self) -> int:
        return len(self.piece_dims) - 1

    def _bound(self, pieces) -> None:
        """Refuse to check that ``f_l f_m = f_m f_l`` on ``pieces`` if that
        visits more than :data:`MAX_COMMUTATIVITY_WORK` product terms: each
        nonzero ``(w, x)`` of ``f_l u`` meets every nonzero entry of
        ``f_m e_w``, for each ``m != l``."""
        terms = 0
        for j in pieces:
            second = self._nonzero[j + 1]
            reach = [sum(map(len, column)) for column in zip(*second)]
            terms += sum(reach[w] - len(second[l][w])
                         for l, layer in enumerate(self._nonzero[j])
                         for pairs in layer for w, _ in pairs)
        if terms > MAX_COMMUTATIVITY_WORK:
            raise ResourceLimitError(f"commutativity check needs more than "
                                     f"{MAX_COMMUTATIVITY_WORK} product terms")

    def _noncommuting(self, j: int) -> tuple[int, int, int] | None:
        """The first ``(l, m, u)`` with ``f_l f_m u != f_m f_l u`` for the
        ``u``-th basis vector of ``M_j`` (``l < m``), or ``None``; refused
        as :meth:`_bound` says."""
        self._bound([j])
        first, second = self._nonzero[j], self._nonzero[j + 1]
        for l, m in itertools.combinations(range(self.base_dim), 2):
            for u in range(self.piece_dims[j]):
                lm = _product(first[l][u], second[m])
                if lm != _product(first[m][u], second[l]):
                    return l, m, u
        return None

    def _check_commutativity(self) -> None:
        """Hard error unless f_l f_m = f_m f_l as maps M_j -> M_{j+2}; all
        pieces together are refused as :meth:`_bound` says."""
        self._bound(range(len(self.piece_dims) - 2))
        for j in range(len(self.piece_dims) - 2):
            if (found := self._noncommuting(j)) is not None:
                l, m, u = found
                raise ValueError(
                    "multiplication tensors do not commute: "
                    f"f_{l} f_{m} != f_{m} f_{l} on basis "
                    f"vector {u} of piece {j}"
                )


class KoszulStrand(_Record):
    """``K_{i,j}`` with the kernel and image dimensions it comes from.

    Instances are read-only.
    """

    _fields = ("i", "j", "kernel_dim", "image_dim", "k_dim")

    def __init__(self, i: int, j: int, kernel_dim: int, image_dim: int,
                 k_dim: int) -> None:
        if k_dim != kernel_dim - image_dim:
            raise ValueError("k_dim must equal kernel_dim - image_dim")
        if k_dim < 0:
            raise ValueError("negative strand dimension")
        self.__dict__.update(i=i, j=j, kernel_dim=kernel_dim,
                             image_dim=image_dim, k_dim=k_dim)


class SparseMatrix(_Record):
    """Immutable sparse matrix; ``entries[(row, col)]`` omits zeros and
    holds integral entries as ``int``, the others as ``Fraction``."""

    _fields = ("nrows", "ncols", "entries")
    __hash__ = None  # unhashable, as the entries dict is

    def __init__(self, nrows: int, ncols: int, entries: dict) -> None:
        clean = {}
        for (r, c), v in entries.items():
            v = _exact(v)
            if not 0 <= r < nrows or not 0 <= c < ncols:
                raise ValueError(f"entry ({r}, {c}) outside matrix shape")
            if v:
                clean[(r, c)] = v
        self.__dict__.update(nrows=nrows, ncols=ncols, entries=clean)

    def is_zero(self) -> bool:
        return not self.entries

    def compose(self, other: "SparseMatrix") -> "SparseMatrix":
        """Matrix product ``self @ other``, one column of it at a time;
        only the nonzero sums reach the validating constructor."""
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch in composition")
        left: list[list] = [[] for _ in range(self.ncols)]
        for (r, mid), v in self.entries.items():
            left[mid].append((r, v))
        right: dict[int, list] = {}
        for (mid, c), v in other.entries.items():
            right.setdefault(c, []).append((mid, v))
        entries = {(r, c): x for c, pairs in right.items()
                   for r, x in _product(pairs, left).items()}
        return SparseMatrix(self.nrows, other.ncols, entries)


def _check_cell(module: GradedModule, i: int, j: int) -> tuple[int, int]:
    """The shape of ``d_{i,j}``, refused unless ``Wedge^i V``, ``M_j`` and
    ``M_{j+1}`` exist and no side exceeds :data:`MAX_MATRIX_SIDE`."""
    n, dims = module.base_dim, module.piece_dims
    if i < 0 or i > n:
        raise ValueError(f"wedge degree {i} outside 0..{n}")
    if j < 0 or j + 1 > module.top_degree:
        raise ValueError(f"need pieces M_{j} and M_{j + 1}; module stops at "
                         f"M_{module.top_degree}")
    nrows = math.comb(n, i - 1) * dims[j + 1] if i else 0
    ncols = math.comb(n, i) * dims[j]
    if max(nrows, ncols) > MAX_MATRIX_SIDE:
        raise ValueError(f"d_({i},{j}) would be {nrows} x {ncols}; the limit "
                         f"is {MAX_MATRIX_SIDE} rows or columns")
    return nrows, ncols


def _columns(module: GradedModule, i: int, j: int, skip) -> dict[int, dict]:
    """The nonzero columns of ``d_{i,j}`` outside ``skip``, in column
    order, each as ``{row: value}``; no column in ``skip`` is built.  The
    cell's shape is :func:`_check_cell`'s to check."""
    n, dim_j, dim_j1 = module.base_dim, *module.piece_dims[j : j + 2]
    # At i = 0 no wedge factor is dropped: no rows, no entries.
    targets = itertools.combinations(range(n), max(i - 1, 0))
    target_index = {comb: pos for pos, comb in enumerate(targets)}
    layers = module._nonzero[j]
    columns = {}
    for s_pos, s in enumerate(itertools.combinations(range(n), i)):
        # Dropping f_{s[drop]} lands in its own row block with sign
        # (-1)^drop, so each (row, column) is reached once.  The values of
        # ``module._nonzero`` are nonzero and exact: no check runs again.
        blocks = [(target_index[s[:drop] + s[drop + 1 :]] * dim_j1,
                   drop % 2, layers[l]) for drop, l in enumerate(s)]
        for c in range(s_pos * dim_j, (s_pos + 1) * dim_j):
            if c in skip:
                continue
            u, column = c - s_pos * dim_j, {}
            for row_base, odd, layer in blocks:
                for w, x in layer[u]:
                    column[row_base + w] = -x if odd else x
            if column:
                columns[c] = column
    return columns


def koszul_matrix(module: GradedModule, i: int, j: int) -> SparseMatrix:
    """Matrix of ``d_{i,j}`` in lexicographic wedge-basis order.

    Columns index ``Wedge^i V (x) M_j`` (wedge tuple major, module
    basis minor), rows index ``Wedge^{i-1} V (x) M_{j+1}``.  ``i = 0``
    gives the zero map out of ``M_j`` (a matrix with no rows).
    """
    nrows, ncols = _check_cell(module, i, j)
    entries = {(r, c): x for c, column in _columns(module, i, j, ()).items()
               for r, x in column.items()}
    matrix = SparseMatrix.__new__(SparseMatrix)
    matrix.__dict__.update(nrows=nrows, ncols=ncols, entries=entries)
    return matrix


# ---------------------------------------------------------------------
# Rank computation
# ---------------------------------------------------------------------


def _rank_rows(vectors: list[dict], p: int | None = None) -> list[int]:
    """Pivot coordinates of one elimination of integer sparse vectors
    (consumed), exact or over F_p if ``p``; there are as many as the rank,
    and past ``MAX_ELIMINATION_WORK`` updates it raises
    ``ResourceLimitError``.

    Each pivot vector is zero at the earlier pivot coordinates, so the
    span of the vectors projects isomorphically onto the returned ones.
    ``where`` maps each coordinate to the ids of the vectors that meet
    it, so a pivot touches only those vectors.  A coordinate that one
    vector meets comes from the worklist ``ones``; that vector is the
    pivot, and nothing is updated.  The others wait in a heap by count
    (lowest index on ties), and a popped count that has gone stale is
    pushed again as it is now; the pivot vector is the sparsest that
    meets the coordinate.  Fill lands only on coordinates that a vector
    meets already, so each live one keeps a place in ``ones`` or the
    heap.  Exact vectors are cross-multiplied by the cofactors of
    ``gcd(pivot, entry)`` and made primitive; over F_p the pivot vector
    is scaled to a leading 1.
    """
    if p:
        vectors = [{c: v % p for c, v in vec.items() if v % p}
                   for vec in vectors]
    work = {k: vec for k, vec in enumerate(vectors) if vec}
    where: dict[int, set[int]] = {}
    for k, vec in work.items():
        for c in vec:
            where.setdefault(c, set()).add(k)
    ones = [c for c, ks in where.items() if len(ks) == 1]
    heap = [(len(ks), c) for c, ks in where.items() if len(ks) > 1]
    heapq.heapify(heap)
    pivots = []
    updates = 0
    while ones or heap:
        count, coord = (1, ones.pop()) if ones else heapq.heappop(heap)
        if (ks := where.get(coord)) is None:
            continue
        if len(ks) != count:
            heapq.heappush(heap, (len(ks), coord))
            continue
        del where[coord]
        if count == 1:
            (piv,) = ks
        else:
            piv = min(ks, key=lambda k: (len(work[k]), k))
        ks.remove(piv)
        pvec = work.pop(piv)
        pval = pvec.pop(coord)
        if (updates := updates + len(ks) * len(pvec)) > MAX_ELIMINATION_WORK:
            raise ResourceLimitError(f"rank elimination needs more than "
                                     f"{MAX_ELIMINATION_WORK} vector updates")
        if p and ks:
            inv = pow(pval, -1, p)
            pvec, pval = {c: v * inv % p for c, v in pvec.items()}, 1
        for k in ks:
            vec = work[k]
            a, b = pval, vec.pop(coord)
            if not p:
                g = math.gcd(a, b) if a > 0 else -math.gcd(a, b)
                a, b = a // g, b // g
            if a != 1:
                for c in vec:
                    vec[c] *= a
            for c, v in pvec.items():
                old = vec.get(c)
                new = (old or 0) - b * v
                if p:
                    new %= p
                if new:
                    if old is None:
                        where[c].add(k)
                    vec[c] = new
                elif old is not None:
                    del vec[c]
                    where[c].discard(k)
            if not vec:
                del work[k]
            elif not p and (g := math.gcd(*vec.values())) > 1:
                for c in vec:
                    vec[c] //= g
        for c in pvec:
            (left := where[c]).discard(piv)
            if len(left) == 1:
                ones.append(c)
            elif not left:
                del where[c]
        pivots.append(coord)
    return pivots


def _check_modulus(n: int | None) -> None:
    """Refuse a prime-field modulus ``n`` unless it exceeds 2**30 and
    passes Miller-Rabin to the first twelve prime bases."""
    if n is None:
        return
    if n <= 2**30:
        raise ValueError("prime-field modulus must exceed 2**30")
    small = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    s = ((n - 1) & (1 - n)).bit_length() - 1
    d = (n - 1) >> s
    if any(n % q == 0 for q in small) or any(
        pow(a, d, n) != 1
        and all(pow(a, d << r, n) != n - 1 for r in range(s))
        for a in small
    ):
        raise ValueError(f"{n} is not prime")


def _primitive(columns) -> list[dict]:
    """Each column as a primitive integer vector (scaling keeps rank)."""
    vectors = []
    for vec in columns:
        try:
            g = math.gcd(*vec.values())
        except TypeError:  # a Fraction entry: clear the denominators
            scale = math.lcm(*(v.denominator for v in vec.values()))
            vec = {r: int(v * scale) for r, v in vec.items()}
            g = math.gcd(*vec.values())
        vectors.append({r: v // g for r, v in vec.items()} if g > 1 else vec)
    return vectors


def matrix_rank(matrix: SparseMatrix, modulus: int | None = None, *,
                skip=(), independent: list | None = None) -> int:
    """Exact rank, or rank over F_modulus (a lower bound on the exact
    rank, sharp for all but finitely many primes), by one elimination
    of the primitive integer columns of ``matrix``, each as a vector.

    Columns in ``skip`` are left out, so the result is the rank of the
    other columns.  That is the rank of ``matrix`` when the image of a
    map ``A`` with ``matrix @ A == 0`` projects isomorphically onto the
    coordinates ``skip``, as it does onto the rows that ranking ``A``
    reports as independent.  ``independent``, when given, receives the
    elimination's pivot coordinates: row indices of ``matrix`` whose rows
    are independent, as many as the returned rank.
    """
    _check_modulus(modulus)
    skip = set(skip)
    by_col: dict[int, dict] = {}
    for (r, c), v in matrix.entries.items():
        if c not in skip:
            by_col.setdefault(c, {})[r] = v
    pivots = _rank_rows(_primitive(by_col.values()), modulus)
    if independent is not None:
        independent.extend(pivots)
    return len(pivots)


# ---------------------------------------------------------------------
# Cohomology
# ---------------------------------------------------------------------


def _strands(module: GradedModule, cells, modulus: int | None):
    """The strand of each ``(i, j)`` in ``cells``, in order.

    A cell's incoming map ``d_{i+1,j-1}`` is the outgoing map of the
    cell ``(i+1, j-1)``; when that cell came just before, its rank and
    pivots are reused, so walking ``i + j = const`` with ``i`` falling
    builds each differential once, as the columns it ranks, and keeps
    only rank and pivots.  All sizes are checked up front.  ``d_{i,j}``
    is built without the columns at the pivots of ``d_{i+1,j-1}``, valid
    as ``d_{i,j} o d_{i+1,j-1} = 0``.  For ``i >= 1`` that holds iff
    piece ``j - 1`` commutes (see the module docstring), so before the
    first such cell ranks its outgoing map, piece ``j - 1`` is checked,
    once per walk; at ``i = 0`` the composite is zero.
    """
    for i, j in cells:
        _check_cell(module, i, j)
        if j >= 1 and i < module.base_dim:
            _check_cell(module, i + 1, j - 1)

    def ranked(i: int, j: int, skip=()) -> tuple:
        """``((i, j), dim ker, rank, pivots)`` of ``d_{i,j}``, ranked on
        its columns outside ``skip``, which are never built."""
        _check_modulus(modulus)
        columns = _columns(module, i, j, set(skip)).values()
        pivots = _rank_rows(_primitive(columns), modulus)
        rank = len(pivots)
        return (i, j), _check_cell(module, i, j)[1] - rank, rank, pivots

    commuting: set[int] = set()
    previous = None
    for i, j in cells:
        image_dim, skip = 0, ()
        if j >= 1 and i < module.base_dim:
            if i >= 1 and j - 1 not in commuting:
                if module._noncommuting(j - 1) is not None:
                    raise ValueError(f"inconsistent multiplication data: "
                                     f"d_({i},{j}) o d_({i + 1},{j - 1}) "
                                     f"is not zero")
                commuting.add(j - 1)
            if previous is None or previous[0] != (i + 1, j - 1):
                previous = ranked(i + 1, j - 1)
            _, _, image_dim, skip = previous
        previous = ranked(i, j, skip)
        kernel_dim = previous[1]
        yield KoszulStrand(i, j, kernel_dim, image_dim, kernel_dim - image_dim)


def koszul_cohomology(module: GradedModule, i: int, j: int,
                      modulus: int | None = None) -> KoszulStrand:
    """Strand dimensions at ``(i, j)``.

    ``k_dim = dim ker d_{i,j} - rank d_{i+1,j-1}`` with ``M_{-1} = 0``
    and ``Wedge^{i+1} V = 0`` when ``i + 1 > base_dim``.  For ``i >= 1``
    the composite ``d_{i,j} o d_{i+1,j-1}`` is checked to vanish first,
    exactly, by checking that ``f_l f_m = f_m f_l`` on ``M_{j-1}``;
    failure means the multiplication data is inconsistent.  With ``modulus``
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
        raise ValueError(f"table needs pieces up to M_{max_j + 1}; module "
                         f"stops at M_{module.top_degree}")
    if max_i > module.base_dim:
        raise ValueError(f"wedge degree bound {max_i} exceeds base_dim")
    cells = [(i, s - i) for s in range(max_i + max_j + 1)
             for i in range(min(max_i, s), max(0, s - max_j) - 1, -1)]
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
            layer = [[0] * len(bases[j + 1]) for _ in bases[j]]
            for u, mono in enumerate(bases[j]):
                w = index.get(tuple(a + b for a, b in zip(mono, g)))
                if w is not None:
                    layer[u][w] = 1
            tensor.append(layer)
        mult.append(tensor)
    return GradedModule(len(gens), [len(b) for b in bases], mult)


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
        n: int, top: int, generators: list[tuple[int, ...]]) -> GradedModule:
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

    bases = [[m for m in _monomials(n, j) if not in_ideal(m)]
             for j in range(top + 1)]
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
        import json

        data = json.loads(data)
    try:
        base_dim, pieces = data["base_dim"], tuple(data["pieces"])
        if any(type(x) is not int for x in (base_dim, *pieces)):
            raise TypeError(f"non-integer size in {base_dim!r}, {pieces!r}")
        loaded = _load(data["mult"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed module data: {exc}") from exc
    module = GradedModule.__new__(GradedModule)
    module._fill(base_dim, _dims(base_dim, pieces), *loaded)
    return module


def module_to_json(module: GradedModule) -> dict:
    mult = [[[[str(x) for x in row] for row in layer] for layer in tensor]
            for tensor in module.mult]
    return {"base_dim": module.base_dim, "pieces": list(module.piece_dims),
            "mult": mult}
