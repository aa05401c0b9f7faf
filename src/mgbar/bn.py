"""Brill-Noether numerics: linear series, limit series, and linkage.

Everything here is exact integer/rational bookkeeping extracted from
the standard theory: the Brill-Noether number, vanishing-sequence
compatibility for limit linear series on tree curves, rank/degree
arithmetic of formal bundles via the splitting principle, and the
numerology of Severi varieties and liaison used for unirationality and
dominance arguments.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Mapping, NamedTuple, Sequence

from . import _Named, _Record, _integers

__all__ = [
    "INFEASIBLE",
    "rho",
    "LinearSeriesData",
    "TreeCurve",
    "limit_series_compatible",
    "FormalBundle",
    "canonical_bundle",
    "canonical_syzygy_bundle",
    "balanced_rank_check",
    "koszul_threshold",
    "quadric_count",
    "SeveriReport",
    "severi_analyze",
    "LiaisonResult",
    "liaison_solve",
    "hilbert_dim",
]


class _Infeasible(_Named):
    """Singleton returned when a numerical constraint has no solution."""

    _name = _text = "INFEASIBLE"

    def __bool__(self) -> bool:
        return False


INFEASIBLE = _Infeasible()


def rho(g: int, r: int, d: int) -> int:
    """Brill-Noether number ``g - (r+1)(g - d + r)``."""
    _integers(g, r, d)
    return g - (r + 1) * (g - d + r)


class LinearSeriesData(_Record):
    """A ``g^r_d`` on a genus-``g`` curve, with optional vanishing data.

    ``vanishing`` is the strictly increasing sequence
    ``0 <= a_0 < ... < a_r <= d`` of vanishing orders at a chosen point;
    the ramification indices ``a_i - i`` then lie in ``[0, d - r]``.
    ``g``, ``r``, ``d`` and every order pass :func:`mgbar._integers`, the
    one integer check.  Instances are read-only.
    """

    _fields = ("g", "r", "d", "vanishing")

    def __init__(
        self, g: int, r: int, d: int, vanishing: Sequence[int] | None = None
    ) -> None:
        seq = None if vanishing is None else tuple(vanishing)
        _integers(g, r, d, *(seq or ()))
        if g < 0 or r < 0 or d < 0:
            raise ValueError("g, r, d must be nonnegative")
        self.__dict__.update(g=g, r=r, d=d, vanishing=seq)
        if seq is None:
            return
        if len(seq) != r + 1:
            raise ValueError(
                f"vanishing sequence needs {r + 1} entries, got {len(seq)}"
            )
        if any(b <= a for a, b in zip(seq, seq[1:])):
            raise ValueError("vanishing sequence must be strictly increasing")
        if seq[0] < 0 or seq[-1] > d:
            raise ValueError("vanishing orders must lie in [0, d]")
        # Strictly increasing in [0, d] gives i <= a_i <= d - r + i.

    @property
    def ramification(self) -> tuple[int, ...]:
        if self.vanishing is None:
            raise ValueError("no vanishing data attached")
        return tuple(a - i for i, a in enumerate(self.vanishing))


class TreeCurve(_Record):
    """A nodal curve whose dual graph is a tree.

    ``component_genera[i]`` is the geometric genus of component ``i``;
    ``edges`` are unordered pairs of component indices, one per node.
    The arithmetic genus of such a curve is just the sum of the
    component genera.  Instances are read-only.
    """

    _fields = ("component_genera", "edges")

    def __init__(
        self,
        component_genera: Sequence[int],
        edges: Sequence[tuple[int, int]],
    ) -> None:
        component_genera = tuple(component_genera)
        _integers(*component_genera, *(i for edge in edges for i in edge))
        n = len(component_genera)
        if n == 0:
            raise ValueError("need at least one component")
        if any(g < 0 for g in component_genera):
            raise ValueError("component genera must be nonnegative")
        edges = tuple(tuple(sorted(e)) for e in edges)
        self.__dict__.update(component_genera=component_genera, edges=edges)
        if len(edges) != n - 1:
            raise ValueError("a tree on n components has n - 1 edges")
        for i, j in edges:
            if not (0 <= i < n and 0 <= j < n) or i == j:
                raise ValueError(f"bad edge ({i}, {j})")
        # Union-find: n - 1 edges without a cycle join all n components.
        parent = list(range(n))

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for i, j in edges:
            ri, rj = find(i), find(j)
            if ri == rj:
                raise ValueError("edges contain a cycle")
            parent[ri] = rj

    @property
    def arithmetic_genus(self) -> int:
        return sum(self.component_genera)

    def degree(self, component: int) -> int:
        return sum(1 for e in self.edges if component in e)


def limit_series_compatible(
    curve: TreeCurve,
    aspects: Sequence[LinearSeriesData],
    node_vanishing: Mapping[tuple[int, int], Sequence[int]] | None = None,
) -> bool:
    """Check the limit-linear-series inequalities on a tree curve.

    ``aspects[i]`` is the aspect on component ``i``; all must share
    ``(r, d)``.  ``node_vanishing[(i, j)]`` is the vanishing sequence of
    aspect ``i`` at the node joining components ``i`` and ``j``.  When
    ``node_vanishing`` is omitted, every component must be a leaf and
    each aspect's own ``vanishing`` field is used.

    Returns ``True`` iff at every node joining ``Y`` and ``Z``

        a_i(Y) + a_{r-i}(Z) >= d   for i = 0..r.
    """
    if len(aspects) != len(curve.component_genera):
        raise ValueError("one aspect per component required")
    r, d = aspects[0].r, aspects[0].d
    if any(a.r != r or a.d != d for a in aspects):
        raise ValueError("all aspects must share r and d")

    def orders(i: int, j: int) -> tuple[int, ...]:
        if node_vanishing is not None:
            try:
                seq = node_vanishing[(i, j)]
            except KeyError:
                raise ValueError(
                    f"missing vanishing data for component {i} at the node "
                    f"with component {j}"
                )
            # Validate through the series type.
            return LinearSeriesData(
                aspects[i].g, r, d, tuple(seq)
            ).vanishing
        if curve.degree(i) != 1:
            raise ValueError(
                "per-aspect vanishing shorthand needs every component to "
                "be a leaf; pass node_vanishing explicitly"
            )
        if aspects[i].vanishing is None:
            raise ValueError(f"aspect {i} has no vanishing data")
        return aspects[i].vanishing

    for i, j in curve.edges:
        left = orders(i, j)
        right = orders(j, i)
        for idx in range(r + 1):
            if left[idx] + right[r - idx] < d:
                return False
    return True


# ---------------------------------------------------------------------
# Formal bundles
# ---------------------------------------------------------------------


class FormalBundle(_Record):
    """Rank/degree data of a vector bundle on a genus-``g`` curve.

    Instances are read-only.
    """

    _fields = ("rank", "degree", "ambient_genus")

    def __init__(self, rank: int, degree: int, ambient_genus: int) -> None:
        _integers(rank, degree, ambient_genus)
        if rank < 1:
            raise ValueError("rank must be at least 1")
        if ambient_genus < 0:
            raise ValueError("genus must be nonnegative")
        self.__dict__.update(rank=rank, degree=degree, ambient_genus=ambient_genus)

    def tensor(self, other: "FormalBundle") -> "FormalBundle":
        if self.ambient_genus != other.ambient_genus:
            raise ValueError("bundles live on curves of different genus")
        return FormalBundle(
            self.rank * other.rank,
            self.rank * other.degree + other.rank * self.degree,
            self.ambient_genus,
        )

    def dual(self) -> "FormalBundle":
        return FormalBundle(self.rank, -self.degree, self.ambient_genus)

    def exterior_power(self, k: int) -> "FormalBundle":
        _integers(k)
        if not 0 <= k <= self.rank:
            raise ValueError(f"exterior power {k} outside 0..{self.rank}")
        return FormalBundle(
            math.comb(self.rank, k),
            math.comb(self.rank - 1, k - 1) * self.degree if k else 0,
            self.ambient_genus,
        )

    def sym_power(self, k: int) -> "FormalBundle":
        _integers(k)
        if k < 0:
            raise ValueError("symmetric power must be nonnegative")
        return FormalBundle(
            math.comb(self.rank + k - 1, k),
            math.comb(self.rank + k - 1, k - 1) * self.degree,
            self.ambient_genus,
        )

    def euler_char(self) -> int:
        return self.degree + self.rank * (1 - self.ambient_genus)

    def mu(self) -> Fraction:
        """Slope ``degree / rank``."""
        return Fraction(self.degree, self.rank)


def canonical_bundle(g: int) -> FormalBundle:
    _integers(g)
    return FormalBundle(1, 2 * g - 2, g)


def canonical_syzygy_bundle(g: int) -> FormalBundle:
    """Kernel of the evaluation ``H^0(K) (x) O -> K``: rank ``g-1``,
    degree ``-(2g-2)``."""
    _integers(g)
    if g < 2:
        raise ValueError("needs genus >= 2")
    return FormalBundle(g - 1, -(2 * g - 2), g)


def balanced_rank_check(i: int) -> bool:
    """Source and target ranks of the syzygy comparison map agree.

    At ``g = 2i + 3`` the ambient count ``(i+1) C(g+1, i+2)`` must equal
    the Euler characteristic of ``wedge^i M_K (x) K^2``; equality makes
    the syzygy locus an honest determinantal divisor condition.
    """
    _integers(i)
    if i < 0:
        raise ValueError("i must be nonnegative")
    g = 2 * i + 3
    ambient = (i + 1) * math.comb(g + 1, i + 2)
    twisted = canonical_syzygy_bundle(g).exterior_power(i).tensor(
        canonical_bundle(g).sym_power(2)
    )
    return ambient == twisted.euler_char()


def koszul_threshold(g: int, i: int) -> Fraction:
    """Dimension threshold for the syzygy degeneracy argument."""
    _integers(g, i)
    if not 0 <= 2 * i <= g - 1:
        raise ValueError("need 0 <= i <= (g-1)/2")
    return (
        Fraction(
            math.comb(g - 1, i + 2) * (g - 2 * i - 3) * (i + 1), g - i - 1
        )
        + 1
    )


def quadric_count(g: int, r: int, d: int) -> int:
    """Expected dimension of the quadrics through a curve in ``P^r``.

    ``C(r+2, 2) - (2d + 1 - g)``; negative values report the corank of
    an expectedly injective restriction instead.
    """
    _integers(g, r, d)
    if r < 0:
        raise ValueError("quadric count needs r >= 0")
    return math.comb(r + 2, 2) - (2 * d + 1 - g)


class SeveriReport(NamedTuple):
    d_min: int
    delta: int
    dim_U: int
    feasible: bool


def severi_analyze(g: int) -> SeveriReport:
    """Numerology of plane-curve models for genus ``g``.

    ``d_min`` is the least degree of a plane model (smallest ``d`` with
    ``rho(g, 2, d) >= 0``), ``delta`` the number of nodes of a nodal
    plane model of that degree, ``dim_U`` the dimension of the relevant
    Severi parameter space, and ``feasible`` whether the node count fits
    (``dim_U >= 2 * delta``).
    """
    _integers(g)
    if g < 1:
        raise ValueError("needs genus >= 1")
    # rho(g, 2, d) increases with d, so d_min is the d where it turns
    # nonnegative; check the closed form there instead of searching.
    d_min = (2 * g + 8) // 3
    if rho(g, 2, d_min) < 0 or rho(g, 2, d_min - 1) >= 0:
        raise RuntimeError(
            f"closed-form plane degree {d_min} is not the minimal one at "
            f"genus {g}"
        )
    delta = math.comb(d_min - 1, 2) - g
    dim_u = 3 * d_min + g - 1
    return SeveriReport(d_min, delta, dim_u, dim_u >= 2 * delta)


class LiaisonResult(NamedTuple):
    f: int
    d_res: int
    g_res: int
    intersections: int


def liaison_solve(g: int, d: int, r: int) -> LiaisonResult | _Infeasible:
    """Residual curve data under linkage in ``P^r``.

    A curve of degree ``d`` and genus ``g`` is linked through a complete
    intersection of ``r - 1`` hypersurfaces of the common degree
    ``f = (r+2)/(r-2)`` (integral only for r = 3, 4, 6).  Returns the
    residual degree and genus and the intersection count, or
    ``INFEASIBLE`` when ``f`` is not integral, the residual degree is
    negative, or the residual genus is not a nonnegative integer.  A
    negative ``g`` or ``d`` raises ``ValueError``.
    """
    _integers(g, d, r)
    if r < 3:
        raise ValueError("liaison needs r >= 3 (r = 2 divides by zero)")
    if g < 0 or d < 0:
        raise ValueError("liaison needs g >= 0 and d >= 0")
    f, rem = divmod(r + 2, r - 2)
    if rem or (d_res := f ** (r - 1) - d) < 0:
        return INFEASIBLE
    k = (r - 1) * f - r - 1
    num = k * (d - d_res)
    g_res2 = 2 * g - num
    if g_res2 % 2 or g_res2 < 0:
        return INFEASIBLE
    g_res = g_res2 // 2
    intersections = d * k + 2 - 2 * g
    return LiaisonResult(f, d_res, g_res, intersections)


def hilbert_dim(d_res: int, g_res: int, r: int) -> int:
    """Dimension count ``(r+1) d' - (r-3)(g'-1)`` for the residual."""
    _integers(d_res, g_res, r)
    return (r + 1) * d_res - (r - 3) * (g_res - 1)
