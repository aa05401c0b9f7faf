"""Divisor-class arithmetic on the moduli space of stable curves.

Classes live in the rational Picard group of the compactified moduli
space of genus-``g`` stable curves, written on the standard free basis
``lambda, delta_0, ..., delta_{g//2}``.  Coefficients are stored as
plain signed basis coefficients; the customary presentation
``D = a*lambda - sum_j b_j*delta_j`` is a convention of the *slope*
functional, not of the data type.

Some named classes are only pinned down on the partial compactification:
their higher boundary coefficients are known to dominate ``b_0`` without
being computed.  Such coefficients are stored as ``-b_0`` and the index
is recorded in ``lower_bound_deltas`` ("the true ``b_j`` is at least the
stored one"); :func:`slope` refuses to answer only in the (unreachable
for the shipped classes) case where the flagged bound could move the
minimum.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Mapping, Union

from . import _Named, _Record, _fraction, _integers
from . import _rational as rational_from_str

__all__ = [
    "DivisorClass",
    "CurveNumbers",
    "INFINITE",
    "SlopeUndeterminedError",
    "canonical_coarse",
    "canonical_stack",
    "kappa1",
    "lambda_chern_n",
    "slope",
    "slope_conjecture_bound",
    "test_curve",
    "pair",
    "koszul_odd_class",
    "koszul_even_slope",
    "gieseker_petri_slope",
    "d22_class",
    "general_type_witness",
    "k3_obstruction",
    "rational_to_str",
    "rational_from_str",
]

Rational = Union[int, Fraction]


class _InfiniteSlope(_Named):
    """Sentinel for the slope of classes outside the ``a, b_j > 0`` cone.

    Compares above every rational and equal only to itself.
    """

    _name, _text = "INFINITE", "infinite"

    def __lt__(self, other: object) -> bool:
        return False

    def __le__(self, other: object) -> bool:
        return other is self

    def __gt__(self, other: object) -> bool:
        return other is not self

    def __ge__(self, other: object) -> bool:
        return True


INFINITE = _InfiniteSlope()


class SlopeUndeterminedError(ValueError):
    """A lower-bound-only coefficient could determine the slope."""


# A class carries g//2 + 1 boundary coefficients, so its size and the
# work on it grow with the genus; refuse genera above this.
MAX_GENUS = 10_000


def _boundary_count(g: int) -> int:
    """``g//2 + 1``, the number of boundary divisors, and the one check
    of the basis ``lambda, delta_0, ..., delta_{g//2}``: ``2 <= g <= MAX_GENUS``."""
    _integers(g)
    if g < 2:
        raise ValueError("genus must be at least 2")
    if g > MAX_GENUS:
        raise ValueError(f"genus {g} exceeds the guard ({MAX_GENUS})")
    return g // 2 + 1


class DivisorClass(_Record):
    """A divisor class on the genus-``g`` moduli space.

    ``delta_coeffs`` always has length ``g//2 + 1``; index ``j`` is the
    coefficient of ``delta_j``.  ``lower_bound_deltas`` marks indices
    whose stored coefficient ``-b_j`` only bounds the true one
    (``b_true >= b_stored``).  Instances are read-only.
    """

    _fields = ("genus", "lambda_coeff", "delta_coeffs", "lower_bound_deltas")

    def __init__(
        self,
        genus: int,
        lambda_coeff: Rational,
        delta_coeffs: Iterable[Rational],
        lower_bound_deltas: Iterable[int] = frozenset(),
    ) -> None:
        flags = frozenset(lower_bound_deltas)
        _integers(genus, *flags)
        expected = _boundary_count(genus)
        coeffs = tuple(_fraction(c) for c in delta_coeffs)
        if len(coeffs) != expected:
            raise ValueError(
                f"genus {genus} needs {expected} delta coefficients, "
                f"got {len(coeffs)}"
            )
        lambda_coeff = _fraction(lambda_coeff)
        if any(j not in range(expected) for j in flags):
            raise ValueError("lower-bound flag outside delta index range")
        self.__dict__.update(
            genus=genus, lambda_coeff=lambda_coeff, delta_coeffs=coeffs,
            lower_bound_deltas=flags,
        )

    # -- linear structure ----------------------------------------------

    @classmethod
    def zero(cls, genus: int) -> "DivisorClass":
        return cls(genus, Fraction(0), (Fraction(0),) * _boundary_count(genus))

    def __add__(self, other: "DivisorClass") -> "DivisorClass":
        if not isinstance(other, DivisorClass):
            return NotImplemented
        if self.genus != other.genus:
            raise ValueError(
                f"cannot mix genera {self.genus} and {other.genus}"
            )
        return DivisorClass(
            self.genus,
            self.lambda_coeff + other.lambda_coeff,
            tuple(x + y for x, y in zip(self.delta_coeffs, other.delta_coeffs)),
            self.lower_bound_deltas | other.lower_bound_deltas,
        )

    def __sub__(self, other: "DivisorClass") -> "DivisorClass":
        if not isinstance(other, DivisorClass):
            return NotImplemented
        return self + (-1) * other

    def __mul__(self, q: Rational) -> "DivisorClass":
        try:
            q = _fraction(q)
        except TypeError:
            return NotImplemented
        if self.lower_bound_deltas and q < 0:
            raise ValueError(
                "negative scaling would flip lower-bound-only coefficients"
            )
        flags = self.lower_bound_deltas if q != 0 else frozenset()
        return DivisorClass(
            self.genus,
            q * self.lambda_coeff,
            tuple(q * c for c in self.delta_coeffs),
            flags,
        )

    __rmul__ = __mul__

    def __neg__(self) -> "DivisorClass":
        return (-1) * self

    def is_zero(self) -> bool:
        return self.lambda_coeff == 0 and not any(self.delta_coeffs)

    # -- serialization ---------------------------------------------------

    def to_json_dict(self) -> dict:
        out = {
            "genus": self.genus,
            "lambda": rational_to_str(self.lambda_coeff),
            "delta": [rational_to_str(c) for c in self.delta_coeffs],
        }
        if self.lower_bound_deltas:
            out["delta_lower_bounds"] = sorted(self.lower_bound_deltas)
        return out

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "DivisorClass":
        """Inverse of :meth:`to_json_dict`; other JSON types raise ``ValueError``."""
        try:
            genus, lam, delta = data["genus"], data["lambda"], data["delta"]
            flags = data.get("delta_lower_bounds", [])
        except (KeyError, TypeError, AttributeError) as exc:
            raise ValueError(f"malformed divisor-class data: {exc}") from exc
        if type(delta) is not list or type(flags) is not list or any(
                type(x) is not int for x in (genus, *flags)) or any(
                type(c) not in (int, str) for c in (lam, *delta)):
            raise ValueError("need JSON lists of delta and flags, integer "
                             "genus and flags, rational text coefficients")
        lambda_coeff, *delta = map(rational_from_str, (lam, *delta))
        return cls(genus, lambda_coeff, delta, flags)

    def __str__(self) -> str:
        parts = [f"{self.lambda_coeff}*lambda"]
        for j, c in enumerate(self.delta_coeffs):
            if c == 0 and j not in self.lower_bound_deltas:
                continue
            mark = " (lower bound)" if j in self.lower_bound_deltas else ""
            sign = "-" if c < 0 else "+"
            parts.append(f"{sign} {abs(c)}*delta_{j}{mark}")
        return " ".join(parts)


class CurveNumbers(_Record):
    """Intersection numbers of a 1-cycle with the divisor basis.

    Instances are read-only.
    """

    _fields = ("genus", "lambda_pairing", "delta_pairings")

    def __init__(
        self,
        genus: int,
        lambda_pairing: Rational,
        delta_pairings: Iterable[Rational],
    ) -> None:
        expected = _boundary_count(genus)
        pairings = tuple(_fraction(c) for c in delta_pairings)
        if len(pairings) != expected:
            raise ValueError(f"genus {genus} needs {expected} delta pairings")
        self.__dict__.update(
            genus=genus, lambda_pairing=_fraction(lambda_pairing),
            delta_pairings=pairings,
        )


def rational_to_str(q: Rational) -> str:
    """Lowest-terms string form, ``"p"`` or ``"p/q"`` with ``q > 0``, of an
    exact rational; anything else (a float, a bool) raises ``TypeError``."""
    return str(_fraction(q))


# ---------------------------------------------------------------------
# Canonical and tautological classes
# ---------------------------------------------------------------------


def canonical_coarse(g: int) -> DivisorClass:
    """Canonical class of the coarse moduli space.

    For genus at least 4 this is
    ``13*lambda - 2*delta_0 - 3*delta_1 - 2*delta_2 - ... - 2*delta_{g//2}``;
    genus 3 is the special case ``4*lambda - delta_0``.
    """
    _integers(g)
    if g < 3:
        raise ValueError("canonical_coarse requires genus >= 3")
    if g == 3:
        return DivisorClass(3, Fraction(4), (Fraction(-1), Fraction(0)))
    coeffs = [Fraction(-2)] * _boundary_count(g)
    coeffs[1] = Fraction(-3)
    return DivisorClass(g, Fraction(13), tuple(coeffs))


def canonical_stack(g: int) -> DivisorClass:
    """Canonical class of the moduli stack: ``13*lambda - 2*delta``."""
    return DivisorClass(g, Fraction(13), (Fraction(-2),) * _boundary_count(g))


def kappa1(g: int) -> DivisorClass:
    """First kappa class, ``12*lambda - delta`` on the standard basis."""
    return DivisorClass(g, Fraction(12), (Fraction(-1),) * _boundary_count(g))


def lambda_chern_n(g: int, n: int) -> DivisorClass:
    """First Chern class of the order-``n`` Hodge-type bundle.

    Equals ``lambda + C(n,2) * kappa1`` expanded onto the basis.
    """
    _integers(g, n)
    if n < 1:
        raise ValueError("n must be at least 1")
    weight = math.comb(n, 2)
    lam = DivisorClass(g, Fraction(1), (Fraction(0),) * _boundary_count(g))
    return lam + weight * kappa1(g)


# ---------------------------------------------------------------------
# Slope
# ---------------------------------------------------------------------


def slope(D: DivisorClass) -> Fraction | _InfiniteSlope:
    """Slope ``a / min_j b_j`` of ``D = a*lambda - sum b_j delta_j``.

    Returns ``INFINITE`` unless ``a >= 0`` and every ``b_j >= 0``, and
    also when some ``b_j`` vanishes; the zero class has slope 0 by
    convention.
    """
    if D.is_zero() and not D.lower_bound_deltas:
        return Fraction(0)
    a = D.lambda_coeff
    bs = [-c for c in D.delta_coeffs]
    exact = [b for j, b in enumerate(bs) if j not in D.lower_bound_deltas]
    bounded = [b for j, b in enumerate(bs) if j in D.lower_bound_deltas]
    if any(b < 0 for b in bounded):
        raise SlopeUndeterminedError(
            "a lower-bound-only coefficient is negative; the sign of the "
            "true coefficient is unknown"
        )
    if a < 0 or any(b < 0 for b in exact):
        return INFINITE
    if not exact:
        raise SlopeUndeterminedError(
            "every coefficient is lower-bound-only; the minimum is unknown"
        )
    minimum = min(exact)
    if any(b < minimum for b in bounded):
        raise SlopeUndeterminedError(
            "a lower-bound-only coefficient lies below the exact minimum"
        )
    if minimum == 0:
        return INFINITE
    return a / minimum


def slope_conjecture_bound(g: int) -> Fraction:
    """The threshold ``6 + 12/(g+1)`` every slope is measured against."""
    _integers(g)
    return Fraction(6) + Fraction(12, g + 1)


# ---------------------------------------------------------------------
# Test curves and pairing
# ---------------------------------------------------------------------

# Each sweeping curve's pairings in genus g: (lambda, {j: delta_j}), the
# delta_j it does not meet left out.
_TEST_CURVES = {
    "C0": lambda g: (0, {0: 2 - 2 * g, 1: 1}),
    "C1": lambda g: (0, {1: 4 - 2 * g}),
    "R": lambda g: (1, {0: 12, 1: -1}),
    "B": lambda g: (g + 1, {0: 6 * g + 18}),
}


def test_curve(kind: str, g: int) -> CurveNumbers:
    """Intersection numbers of the four standard sweeping curves.

    ``C0``: a pencil in the boundary with a varying node;
    ``C1``: an elliptic-tail pencil inside the genus-1 boundary;
    ``R``: a pencil of plane cubics attached to a fixed tail;
    ``B``: a Lefschetz pencil of curves on a polarized K3 surface.
    The numbers are the table ``_TEST_CURVES``; ``_boundary_count``
    checks the genus of the basis they pair with.
    """
    _integers(g)
    if g < 3:
        raise ValueError("test curves need genus >= 3")
    size, kinds = _boundary_count(g), tuple(_TEST_CURVES)
    if kind not in kinds:
        raise ValueError(f"unknown test curve {kind!r}; expected one of {kinds}")
    lam, meets = _TEST_CURVES[kind](g)
    return CurveNumbers(g, lam, (meets.get(j, 0) for j in range(size)))


def pair(c: CurveNumbers, D: DivisorClass) -> Fraction:
    """Intersection pairing: dot product of coefficient vectors."""
    if c.genus != D.genus:
        raise ValueError(
            f"genus mismatch: curve has {c.genus}, class has {D.genus}"
        )
    for j in D.lower_bound_deltas:
        if c.delta_pairings[j] != 0:
            raise SlopeUndeterminedError(
                f"pairing meets lower-bound-only coefficient delta_{j}"
            )
    total = c.lambda_pairing * D.lambda_coeff
    for x, y in zip(c.delta_pairings, D.delta_coeffs):
        total += x * y
    return total


# ---------------------------------------------------------------------
# Named divisor classes and slope formulas
# ---------------------------------------------------------------------


def _lower_bound_tail(
    g: int, a: Rational, b0: Rational, b1: Rational
) -> DivisorClass:
    """``a*lambda - b0*delta_0 - b1*delta_1 - b0*delta_j`` for ``j >= 2``,
    the coefficients past ``delta_1`` stored as lower bounds."""
    size = _boundary_count(g)
    coeffs = [-b0] * size
    coeffs[1] = -b1
    return DivisorClass(g, a, tuple(coeffs), frozenset(range(2, size)))


def koszul_odd_class(i: int) -> DivisorClass:
    """Syzygy divisor class in odd genus ``g = 2i + 3``.

    The coefficients are solved from the three test-curve relations

        (2g-2)*b0 - b1 = (i+1)*C(2i+2, i)
        (2g-4)*b1     = 6*(i+1)*C(2i+2, i)
        a - 12*b0 + b1 = 0

    and checked against the closed form
    ``(1/(i+2)) * C(2i,i) * (6(i+3) lambda - (i+2) delta_0 - 6(i+1) delta_1)``.
    Boundary coefficients past ``delta_1`` are only known to dominate
    ``b_0`` and are stored as lower bounds.
    """
    _integers(i)
    if i < 0:
        raise ValueError("i must be nonnegative")
    g = 2 * i + 3
    _boundary_count(g)  # the genus guard, ahead of the binomials
    rhs = (i + 1) * math.comb(2 * i + 2, i)
    b1 = Fraction(6 * rhs, 2 * g - 4)
    b0 = (rhs + b1) / (2 * g - 2)
    a = 12 * b0 - b1

    prefactor = Fraction(math.comb(2 * i, i), i + 2)
    closed = (
        prefactor * 6 * (i + 3),
        prefactor * (i + 2),
        prefactor * 6 * (i + 1),
    )
    if (a, b0, b1) != closed:
        raise RuntimeError(
            f"test-curve system {(a, b0, b1)} disagrees with closed form "
            f"{closed} at i={i}"
        )
    return _lower_bound_tail(g, a, b0, b1)


def koszul_even_slope(i: int) -> Fraction:
    """Slope of the virtual syzygy class in even genus ``g = 6i + 10``."""
    _integers(i)
    if i < 0:
        raise ValueError("i must be nonnegative")
    value = Fraction(
        3 * (4 * i + 7) * (6 * i * i + 19 * i + 12),
        (i + 2) * (12 * i * i + 31 * i + 18),
    )
    if not value < slope_conjecture_bound(6 * i + 10):
        raise RuntimeError(f"even-genus slope {value} violates its bound")
    return value


def gieseker_petri_slope(r: int, s: int) -> Fraction:
    """Slope of the Gieseker-Petri divisor for ``g = rs + s``.

    Exceeds ``6 + 12/(g+1)`` except at ``(r, s) = (1, 1)``, where the
    correction term vanishes and the value is exactly the bound (10).
    """
    _integers(r, s)
    if r < 1 or s < 1:
        raise ValueError("r and s must be positive")
    g = r * s + s
    correction = Fraction(
        6 * (s + r + 1) * (r * s + s - 2) * (r * s + s - 1),
        s * (s + 1) * (r + 1) * (r + 2) * (r * s + s + 4) * (r * s + s + 1),
    )
    return slope_conjecture_bound(g) + correction


def d22_class() -> DivisorClass:
    """The effective divisor class driving the genus-22 slope bound.

    Coefficients are imported from the rank-degeneracy computation in
    :mod:`mgbar.tautring` (never hardcoded here); boundary coefficients
    past ``delta_1`` are stored as lower bounds at ``b_0``.
    """
    from . import tautring

    return _lower_bound_tail(22, *tautring.solve_d22())


def general_type_witness(D: DivisorClass) -> bool:
    """Can ``D`` certify that its moduli space is of general type?

    Writing ``D = a*lambda - sum b_j delta_j``, checks ``a/b_0 < 13/2``,
    ``a/b_1 <= 13/3`` and ``a/b_j <= 13/2`` for ``j >= 2`` (for
    lower-bound-only coefficients the stored bound suffices since the
    ratio only drops as ``b_j`` grows).
    """
    if D.genus < 4:
        raise ValueError("general_type_witness needs genus >= 4")
    a = D.lambda_coeff
    bs = [-c for c in D.delta_coeffs]
    if a <= 0 or any(b <= 0 for b in bs):
        return False
    if not a / bs[0] < Fraction(13, 2):
        return False
    if not a / bs[1] <= Fraction(13, 3):
        return False
    return all(a / b <= Fraction(13, 2) for b in bs[2:])


def k3_obstruction(D: DivisorClass) -> bool:
    """Does ``D`` have slope below ``6 + 12/(g+1)``?

    Any such divisor must contain the locus of curves on K3 surfaces.
    When ``b_0`` realizes the minimum the same predicate is computed a
    second way, as ``pair(B, D) < 0`` for the K3 pencil ``B``; the two
    routes are required to agree.
    """
    g = D.genus
    if g < 3:
        raise ValueError("k3_obstruction needs genus >= 3")
    s = slope(D)
    result = s is not INFINITE and s < slope_conjecture_bound(g)

    bs = [-c for c in D.delta_coeffs]
    if (
        not D.is_zero()
        and all(b > 0 for b in bs)
        and 0 not in D.lower_bound_deltas
        and bs[0] == min(bs)
    ):
        via_pencil = pair(test_curve("B", g), D) < 0
        if via_pencil != result:
            raise RuntimeError(
                "slope predicate and K3-pencil pairing disagree; "
                "divisor data is inconsistent"
            )
    return result
