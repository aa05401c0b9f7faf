"""Koszul cohomology of graded modules, with exact linear algebra.

A graded module is given concretely: the dimension of the space V of
linear forms, the dimensions of the graded pieces M_0, M_1, ..., and
for each degree the multiplication tensor V (x) M_j -> M_{j+1}.  From
that data we build the Koszul differentials

    d_{i,j} : Wedge^i V (x) M_j  ->  Wedge^{i-1} V (x) M_{j+1},
    d_{i,j}(f_{s_0} ^ ... ^ f_{s_{i-1}} (x) u)
        = sum_l (-1)^l  f_{s_0} ^ ... f-hat_{s_l} ... (x) (u f_{s_l}),

and report the strand dimensions K_{i,j} = ker d_{i,j} / im d_{i+1,j-1}
by exact rank computations.  A module's rows are read into a sparse view,
from which the dense tensor is derived if read; a row of strings, as
module JSON has, is read by its distinct values (:func:`_load`).
A Betti table builds each differential once, as the column vectors that
one sparse elimination ranks (a singleton peel, then one heap by count),
over the integers or, in the optional prime-field mode, over F_p (ranks
then become high-probability lower bounds); past ``MAX_ELIMINATION_WORK``
updates it raises :class:`mgbar.ResourceLimitError`.  Each ``d_{i,j}``
is ranked only on a complement of ``im d_{i+1,j-1}``: the columns at the
independent rows that ranking ``d_{i+1,j-1}`` found are never built, as
``d_{i,j}`` kills that image.  One rule gives an elimination its
integers: a walk reads piece j through a view built once, the piece times
the lcm of its denominators, reduced mod p in the prime-field mode, and
``matrix_rank`` reads a matrix as one such piece.  Every entry of d_{i,j}
comes from piece j, so a column is a positive multiple of its primitive
form; only core vectors are divided by a gcd, and the ranks, exact or
over F_p, are those of the primitive integer columns.  Where p divides a
scaled entry, a column might vanish mod p but not its primitive form, so
each column of that piece is made primitive, then reduced.

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
checks every piece, one difference f_l f_m u - f_m f_l u per (l, m, u),
and records the sparse view it proved.  A Betti walk asks again for each
piece its ranks rely on: a proved view answers at once, and any other,
as in data assembled around the constructor, is checked and fails
closed.  A check first counts the product terms it would visit, each
piece once, and raises :class:`mgbar.ResourceLimitError` past
``MAX_COMMUTATIVITY_WORK``.
"""

from __future__ import annotations

import heapq
import itertools
import math
from collections import Counter
from collections.abc import Mapping
from fractions import Fraction
from functools import cached_property

from . import ResourceLimitError, _Record, _integers, _rational

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
# pivot-vector entries: 449 times the largest elimination of the tests,
# demos or benchmark (4 452, generic coordinates); a dense random
# 245 x 245 matrix needs 4.8 million (8.6 s on a Xeon).
MAX_ELIMINATION_WORK = 2_000_000

# Most passes of an elimination's singleton peel.  A chain whose vectors
# come in reverse order peels one vector per pass, so without a cap its
# peel is quadratic; the heap takes whatever is left.
_PEEL_PASSES = 4

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
    """``_exact(x)`` for each distinct ``x``, computed on its first lookup."""

    def __missing__(self, x):
        self[x] = y = _exact(x)
        return y


# Most distinct values a row of strings may hold to be read by value
# (:func:`_load`), each at the cost of a scan of the row; a row with more
# is read entry by entry.  Rows of the benchmark's modules hold 2 or 3.
_BY_VALUE = 8

# The entry types that a row read entry by entry may take from the memo.
_PLAIN = frozenset({int, str, Fraction})


def _array(value):
    """``value``, unless it is text, bytes or a mapping, which iterate as
    characters, byte values or keys where an array of rows or entries
    belongs."""
    if type(value) is not list and isinstance(value, (str, bytes, Mapping)):
        raise TypeError(f"expected an array, got {type(value).__name__}")
    return value


def _row(entries, exact: _Memo) -> tuple:
    """The nonzero ``(w, x)`` of one row, a list or tuple, by the rule of
    :func:`_load`, converted through the memo ``exact``.  Only a ``str``
    equals a ``str``, so the types of the distinct values tell that every
    entry is one.  Entry by entry, a row of only ``int``, ``str`` and
    ``Fraction`` entries reads each from ``exact``, where no ``bool`` or
    float meets an ``int``'s slot; any other row goes through ``_exact``,
    which raises on the first bad entry.
    """
    try:
        distinct = set(entries)
    except TypeError:  # an unhashable entry
        distinct = None
    if distinct is not None and len(distinct) <= _BY_VALUE:
        pairs = []
        for text in distinct:
            if type(text) is not str:
                break
            try:
                x = exact[text]
            except ValueError:  # named below, the first bad entry in order
                break
            if x:
                w = -1
                for _ in range(entries.count(text)):
                    w = entries.index(text, w + 1)
                    pairs.append((w, x))
        else:
            pairs.sort()
            return tuple(pairs)
    values = tuple(map(exact.__getitem__ if set(map(type, entries)) <= _PLAIN
                       else _exact, entries))
    return tuple(zip(itertools.compress(itertools.count(), values),
                     filter(None, values)))


def _load(mult) -> tuple[tuple, list]:
    """The sparse view of ``mult``, the nonzero ``(w, x)`` of each row
    with integral ``x`` as ``int``, and the length of each row, reading
    each array once.

    A row of at most ``_BY_VALUE`` distinct strings is read by value: each
    distinct string is converted once, a zero is dropped without a scan,
    and the places of a nonzero one are found by ``count`` and ``index``,
    scans in C.  So the row costs at most ``_BY_VALUE`` scans, and the work
    stays linear in its length.  Any other row is read entry by entry, and
    so is a row with a bad string, so that its first bad entry is named.
    A row that is no list is read into a tuple; text, bytes or a mapping
    where the tensors, layers or rows belong is refused.
    """
    exact = _Memo()
    nonzero, lengths = [], []
    for tensor in _array(mult):
        layers = [[row if type(row) is list else tuple(_array(row))
                   for row in _array(layer)] for layer in _array(tensor)]
        nonzero.append(tuple(tuple([_row(row, exact) for row in layer])
                             for layer in layers))
        lengths.append([list(map(len, layer)) for layer in layers])
    return tuple(nonzero), lengths


def _difference(pairs, layer, others, other_layer) -> dict:
    """Coefficients, zeros kept, of ``f(sum x e_w over pairs) - g(sum x
    e_w over others)``, where ``layer[w]`` lists the nonzero ``(w', y)``
    of ``f(e_w)`` and ``other_layer[w]`` those of ``g(e_w)``."""
    out: dict = {}
    for w, x in pairs:
        for v, y in layer[w]:
            out[v] = out.get(v, 0) + x * y
    for w, x in others:
        for v, y in other_layer[w]:
            out[v] = out.get(v, 0) - x * y
    return out


def _dims(base_dim: int, piece_dims) -> tuple[int, ...]:
    """The piece dimensions, once they and ``base_dim`` pass the checks."""
    dims = tuple(piece_dims)
    _integers(base_dim, *dims)
    if base_dim < 1:
        raise ValueError("base_dim must be at least 1")
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
    ``(base_dim, piece_dims[j], piece_dims[j+1])``.  Only a private sparse
    view is stored, the nonzero ``(w, x)`` per ``(j, l, u)`` with integral
    ``x`` as ``int``, which the differentials and the commutativity check
    read; ``mult`` is derived from it on first read.  Instances are read-only.
    """

    _fields = ("base_dim", "piece_dims", "mult")

    def __init__(self, base_dim: int, piece_dims, mult) -> None:
        self._fill(base_dim, _dims(base_dim, piece_dims), *_load(mult))

    def _fill(self, base_dim: int, dims: tuple, nonzero, lengths) -> None:
        """Store the sizes and the sparse view, then check them."""
        self.__dict__.update(base_dim=base_dim, piece_dims=dims,
                             _nonzero=nonzero)
        if len(lengths) != len(dims) - 1:
            raise ValueError(f"need {len(dims) - 1} multiplication tensors, "
                             f"got {len(lengths)}")
        for j, tensor in enumerate(lengths):
            if len(tensor) != base_dim:
                raise ValueError(f"mult[{j}] must have base_dim layers")
            for l, layer in enumerate(tensor):
                if len(layer) != dims[j]:
                    raise ValueError(
                        f"mult[{j}][{l}] must have {dims[j]} rows")
                if any(length != dims[j + 1] for length in layer):
                    raise ValueError(f"mult[{j}][{l}] rows must have length "
                                     f"{dims[j + 1]}")
        self._check_commutativity()

    @cached_property
    def mult(self) -> tuple:
        return tuple(tuple(tuple(
            tuple(Fraction(row.get(w, 0)) for w in range(n))
            for row in map(dict, layer)) for layer in tensor)
            for tensor, n in zip(self._nonzero, self.piece_dims[1:]))

    def _key(self) -> tuple:
        return self.base_dim, self.piece_dims, self.mult

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
        """:meth:`_first_difference` on piece ``j``, refused as :meth:`_bound`
        says, or ``None`` at once if the constructor proved this view."""
        if self.__dict__.get("_proved") is self._nonzero:
            return None
        self._bound([j])
        return self._first_difference(j)

    def _first_difference(self, j: int) -> tuple[int, int, int] | None:
        """The first ``(l, m, u)`` with ``f_l f_m u != f_m f_l u`` for the
        ``u``-th basis vector of ``M_j`` (``l < m``), or ``None``."""
        first, second = self._nonzero[j], self._nonzero[j + 1]
        for l, m in itertools.combinations(range(self.base_dim), 2):
            for u in range(self.piece_dims[j]):
                if any(_difference(first[l][u], second[m],
                                   first[m][u], second[l]).values()):
                    return l, m, u
        return None

    def _check_commutativity(self) -> None:
        """Hard error unless f_l f_m = f_m f_l as maps M_j -> M_{j+2}, all
        pieces bounded together; the proved view is kept as ``_proved``."""
        pieces = range(len(self.piece_dims) - 2)
        self._bound(pieces)
        for j in pieces:
            if (found := self._first_difference(j)) is not None:
                l, m, u = found
                raise ValueError("multiplication tensors do not commute: "
                                 f"f_{l} f_{m} != f_{m} f_{l} on basis "
                                 f"vector {u} of piece {j}")
        self.__dict__["_proved"] = self._nonzero


class KoszulStrand(_Record):
    """``K_{i,j}`` with the kernel and image dimensions it comes from;
    read-only."""

    _fields = ("i", "j", "kernel_dim", "image_dim", "k_dim")

    def __init__(self, i: int, j: int, kernel_dim: int, image_dim: int,
                 k_dim: int) -> None:
        _integers(i, j, kernel_dim, image_dim, k_dim)
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
        _integers(nrows, ncols)
        clean = {}
        for (r, c), v in entries.items():
            _integers(r, c)
            v = _exact(v)
            if not 0 <= r < nrows or not 0 <= c < ncols:
                raise ValueError(f"entry ({r}, {c}) outside matrix shape")
            if v:
                clean[(r, c)] = v
        self.__dict__.update(nrows=nrows, ncols=ncols, entries=clean)

    def compose(self, other: "SparseMatrix") -> "SparseMatrix":
        """Matrix product ``self @ other``, one column of it at a time; the
        validating constructor drops the sums that cancel."""
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch in composition")
        left: list[list] = [[] for _ in range(self.ncols)]
        for (r, mid), v in self.entries.items():
            left[mid].append((r, v))
        right: dict[int, list] = {}
        for (mid, c), v in other.entries.items():
            right.setdefault(c, []).append((mid, v))
        entries = {(r, c): x for c, pairs in right.items()
                   for r, x in _difference(pairs, left, (), ()).items()}
        return SparseMatrix(self.nrows, other.ncols, entries)


def _check_cell(module: GradedModule, i: int, j: int) -> tuple[int, int]:
    """The shape of ``d_{i,j}``, refused unless ``Wedge^i V``, ``M_j`` and
    ``M_{j+1}`` exist and no side exceeds :data:`MAX_MATRIX_SIDE`."""
    _integers(i, j)
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


def _columns(module: GradedModule, i: int, j: int, skip, layers) -> dict:
    """The nonzero columns of ``d_{i,j}`` outside ``skip`` (never built),
    in column order, as ``{row: value}`` from ``layers``, piece ``j`` or its
    :func:`_integral` view; the shape is :func:`_check_cell`'s to check."""
    n, dim_j, dim_j1 = module.base_dim, *module.piece_dims[j : j + 2]
    # At i = 0 no wedge factor is dropped: no rows, no entries.
    targets = itertools.combinations(range(n), max(i - 1, 0))
    target_index = {comb: pos for pos, comb in enumerate(targets)}
    columns = {}
    for s_pos, s in enumerate(itertools.combinations(range(n), i)):
        # Dropping f_{s[drop]} lands in its own row block with sign
        # (-1)^drop, so each (row, column) is reached once.  The values of
        # ``layers`` are nonzero: no check runs again.
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
    entries = {(r, c): x for c, column in _columns(
        module, i, j, (), module._nonzero[j]).items()
               for r, x in column.items()}
    return SparseMatrix(nrows, ncols, entries)


# ---------------------------------------------------------------------
# Rank computation
# ---------------------------------------------------------------------


def _rank_rows(vectors: list[dict], p: int | None = None) -> list[int]:
    """Pivot coordinates of one elimination of integer sparse vectors
    (consumed) that ``p`` divides no entry of, exact or over F_p if ``p``;
    there are as many as the rank, and past ``MAX_ELIMINATION_WORK``
    updates it raises ``ResourceLimitError``.

    Each pivot vector is zero at the earlier pivot coordinates, so the
    span of the vectors projects isomorphically onto the returned ones.
    First the singletons are peeled, by supports only: ``counts`` holds
    how many vectors meet each coordinate, and a pass over the vectors in
    order makes a vector that meets a coordinate of count 1 the pivot at
    the first such coordinate, removes it, unnormalised, and lowers the
    counts of its others.  The passes stop when one peels nothing, or
    after ``_PEEL_PASSES``, so a chain peeled one vector per pass stays
    O(nnz).  An empty core, no vector left, returns here.  The core alone
    builds ``where``, each coordinate's core vector ids, and the heap of
    coordinates by count (lowest index on ties); ``counts`` is not read
    again.  A stale popped count is pushed again as it is now, and a
    count that falls to 1 as ``(1, c)``.  The pivot vector is the
    sparsest that meets the coordinate; fill lands only where a core
    vector meets already, so each live coordinate keeps a heap place.
    Exact vectors are cross-multiplied by the cofactors of ``gcd(pivot,
    entry)``, then made primitive (the only gcd division); over F_p a
    vector takes off ``entry / pivot`` times the pivot vector, not copied.
    So inputs scaled by positive integers, or over F_p by units, give the
    pivots of the primitive columns.
    """
    work = {k: vec for k, vec in enumerate(vectors) if vec}
    # Counted in C; a plain dict is looked up faster than a Counter.
    counts = dict(Counter(itertools.chain.from_iterable(work.values())))
    pivots = []
    for _ in range(_PEEL_PASSES):
        peeled = len(pivots)
        for k, vec in list(work.items()):
            for coord in vec:
                if counts[coord] == 1:
                    del work[k]
                    pivots.append(coord)
                    for c in vec:
                        counts[c] -= 1
                    break
        if len(pivots) == peeled:
            break
    if not work:
        return pivots
    where: dict[int, set] = {}
    for k, vec in work.items():
        for c in vec:
            if (ks := where.get(c)) is None:
                where[c] = {k}
            else:
                ks.add(k)
    heap = [(len(ks), c) for c, ks in where.items()]
    heapq.heapify(heap)
    updates = 0
    while heap:
        count, coord = heapq.heappop(heap)
        if (ks := where.get(coord)) is None:
            continue
        if len(ks) != count:
            heapq.heappush(heap, (len(ks), coord))
            continue
        del where[coord]
        piv = min(ks, key=lambda k: (len(work[k]), k))
        ks.remove(piv)
        pvec = work.pop(piv)
        pval = pvec.pop(coord)
        if (updates := updates + len(ks) * len(pvec)) > MAX_ELIMINATION_WORK:
            raise ResourceLimitError(f"rank elimination needs more than "
                                     f"{MAX_ELIMINATION_WORK} vector updates")
        if p and ks:
            inv = pow(pval, -1, p)
        for k in ks:
            vec = work[k]
            if p:
                b = vec.pop(coord) * inv % p
            else:
                b = vec.pop(coord)
                g = math.gcd(pval, b) if pval > 0 else -math.gcd(pval, b)
                a, b = pval // g, b // g
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
                heapq.heappush(heap, (1, c))
            elif not left:
                del where[c]
        pivots.append(coord)
    return pivots


def _integral(layers, p=None) -> tuple:
    """The integer view of ``layers`` (rows of nonzero ``(w, x)``) by the
    module docstring's rule (``pow(v, 1, None)`` is ``v``), and ``None``;
    if ``p`` divides a scaled entry, the unreduced view and ``p``."""
    scale = math.lcm(*(x.denominator for layer in layers for row in layer
                       for _, x in row))
    if scale == 1 and not p:
        return layers, None
    view = tuple(tuple(tuple((w, pow((x * scale).numerator, 1, p)) for w, x
                             in row) for row in layer) for layer in layers)
    if all(x for layer in view for row in layer for _, x in row):
        return view, None
    return _integral(layers)[0], p


def _reduced(columns, p):
    """``columns``, or with ``p`` each made primitive, then reduced."""
    return [{r: x for r, v in vec.items() if (x := v // g % p)} for vec
            in columns for g in [math.gcd(*vec.values())]] if p else columns


def _check_modulus(n: int | None) -> None:
    """Refuse a prime-field modulus ``n`` unless it is an ``int`` above
    2**30 that passes Miller-Rabin to the first twelve prime bases."""
    if n is None:
        return
    _integers(n)
    if n <= 2**30:
        raise ValueError("prime-field modulus must exceed 2**30")
    s = ((n - 1) & (1 - n)).bit_length() - 1
    d = (n - 1) >> s
    if any(n % a == 0 or pow(a, d, n) != 1 and all(
            pow(a, d << r, n) != n - 1 for r in range(s))
           for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)):
        raise ValueError(f"{n} is not prime")


def matrix_rank(matrix: SparseMatrix, modulus: int | None = None) -> int:
    """Exact rank, or rank over F_modulus (a lower bound on the exact rank,
    sharp for all but finitely many primes), of the primitive integer
    columns of ``matrix``, read as one piece by the walk's rule (module
    docstring), so also where p divides a scaled entry."""
    _check_modulus(modulus)
    by_col: dict[int, list] = {}
    for (r, c), v in matrix.entries.items():
        by_col.setdefault(c, []).append((r, v))
    (columns,), q = _integral([by_col.values()], modulus)
    return len(_rank_rows(_reduced(map(dict, columns), q), modulus))


# ---------------------------------------------------------------------
# Cohomology
# ---------------------------------------------------------------------


def _strands(module: GradedModule, cells, modulus: int | None):
    """The strand of each ``(i, j)`` in ``cells``, in order.

    A cell's incoming map ``d_{i+1,j-1}`` is the outgoing map of the
    cell ``(i+1, j-1)``; when that cell came just before, its rank and
    pivots are reused, so walking ``i + j = const`` with ``i`` falling
    builds each differential once, as the columns it ranks from each
    piece's one integer view (:func:`_integral`), and keeps only rank and
    pivots.  All shapes are checked up front, each differential's once,
    and reused for its kernel dimension.  ``d_{i,j}`` is built without
    the columns at the pivots of ``d_{i+1,j-1}``, valid as ``d_{i,j} o
    d_{i+1,j-1} = 0``, which for ``i >= 1`` holds iff piece ``j - 1``
    commutes (module docstring): that piece is checked once per walk,
    before the first such cell ranks its outgoing map, unless the
    constructor proved the module's sparse view.
    """
    shapes = {}  # each differential's (rows, columns), checked once
    for i, j in cells:
        shapes[i, j] = _check_cell(module, i, j)
        if j >= 1 and i < module.base_dim and (i + 1, j - 1) not in shapes:
            shapes[i + 1, j - 1] = _check_cell(module, i + 1, j - 1)

    def ranked(i: int, j: int, skip=()) -> tuple:
        """``((i, j), dim ker, rank, pivots)`` of ``d_{i,j}``, ranked on
        its columns outside ``skip``, which are never built."""
        if previous is None:  # the walk's first differential
            _check_modulus(modulus)
        if j not in views:
            views[j] = _integral(module._nonzero[j], modulus)
        layers, q = views[j]
        columns = _columns(module, i, j, set(skip), layers).values()
        pivots = _rank_rows(_reduced(columns, q), modulus)
        rank = len(pivots)
        return (i, j), shapes[i, j][1] - rank, rank, pivots

    commuting: set[int] = set()
    views, previous = {}, None  # each piece's integer view, built once
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
    """Strand dimensions at ``(i, j)``: ``k_dim = dim ker d_{i,j} -
    rank d_{i+1,j-1}`` with ``M_{-1} = 0`` and ``Wedge^{i+1} V = 0`` when
    ``i + 1 > base_dim``.  For ``i >= 1`` the composite ``d_{i,j} o
    d_{i+1,j-1}`` must vanish: the constructor proved ``f_l f_m = f_m f_l``
    on ``M_{j-1}``, and data built around it is checked here, exactly,
    raising if inconsistent.  With ``modulus`` the reported ranks are
    high-probability lower bounds, making ``k_dim`` an upper bound."""
    return next(_strands(module, [(i, j)], modulus))


def green_lazarsfeld_Np(module: GradedModule, p: int) -> bool:
    """Whether ``K_{i,2} = 0`` for all ``0 <= i <= p``."""
    _integers(p)
    if p < 0:
        raise ValueError("p must be nonnegative")
    if module.top_degree < 3:
        raise ValueError("checking the quadratic strand needs graded "
                         "pieces up to M_3")
    cells = [(i, 2) for i in range(min(p, module.base_dim) + 1)]
    return all(strand.k_dim == 0 for strand in _strands(module, cells, None))


def betti_table(module: GradedModule, max_i: int, max_j: int,
                modulus: int | None = None) -> list[list[int]]:
    """Rows ``j = 0..max_j``, columns ``i = 0..max_i`` of ``k_dim``."""
    _integers(max_i, max_j)
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


def _monomial_module(n: int, step: int, top: int, ideal=()) -> GradedModule:
    """``M_j`` spanned by the degree-``step * j`` monomials in ``n``
    variables outside the monomial ideal ``ideal``, ``f_l`` multiplying by
    the ``l``-th degree-``step`` monomial, both in :func:`_monomials` order."""
    gens = _monomials(n, step)
    bases = [[m for m in _monomials(n, step * j)
              if not any(all(a >= e for a, e in zip(m, g)) for g in ideal)]
             for j in range(top + 1)]
    if any(len(b) == 0 for b in bases[:2]):
        raise ValueError("quotient has no room in degrees 0..1")
    mult = []
    for j in range(top):
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
    _integers(n, top)
    if n < 1 or top < 1:
        raise ValueError("need n >= 1 and top >= 1")
    return _monomial_module(n, 1, top)


def veronese_module(d: int, top: int) -> GradedModule:
    """Coordinate ring of the degree-``d`` rational normal curve:
    pieces ``M_j`` of dimension ``d j + 1`` with ``V`` of dimension
    ``d + 1`` acting by monomial multiplication on the line."""
    _integers(d, top)
    if d < 1 or top < 1:
        raise ValueError("need d >= 1 and top >= 1")
    return _monomial_module(2, d, top)


def monomial_quotient_module(
        n: int, top: int, generators: list[tuple[int, ...]]) -> GradedModule:
    """Quotient of the polynomial ring by the monomial ideal with the
    given exponent-tuple ``generators`` (all of positive degree)."""
    gens = [tuple(g) for g in generators]
    _integers(n, top, *(e for g in gens for e in g))
    if n < 1 or top < 1:
        raise ValueError("need n >= 1 and top >= 1")
    for g in gens:
        if len(g) != n or any(e < 0 for e in g):
            raise ValueError(f"bad generator exponents {g}")
        if sum(g) == 0:
            raise ValueError("degree-0 generator collapses the module")
    return _monomial_module(n, 1, top, gens)


# ---------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------


def module_from_json(data) -> GradedModule:
    """Build a module from ``{"base_dim", "pieces", "mult"}`` where
    ``mult[j][l][u][w]`` holds rational strings or integers and the
    sizes are JSON integers; accepts a JSON string or an already-parsed
    mapping; a JSON syntax error, or nesting too deep for ``json.loads``,
    is malformed data too."""
    try:
        if isinstance(data, str):
            import json

            data = json.loads(data)
        base_dim, pieces = data["base_dim"], tuple(data["pieces"])
        _integers(base_dim, *pieces)
        loaded = _load(data["mult"])
    except (KeyError, TypeError, ValueError, RecursionError) as exc:
        raise ValueError(f"malformed module data: {exc}") from exc
    module = GradedModule.__new__(GradedModule)
    module._fill(base_dim, _dims(base_dim, pieces), *loaded)
    return module


def module_to_json(module: GradedModule) -> dict:
    mult = [[[[str(x) for x in row] for row in layer] for layer in tensor]
            for tensor in module.mult]
    return {"base_dim": module.base_dim, "pieces": list(module.piece_dims),
            "mult": mult}
