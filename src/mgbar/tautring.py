"""Exact tautological intersection calculus on ``C x Pic(C)``.

This module implements the graded-commutative ring

    Q[eta, gamma, theta, c1, c2, c3] / (eta^2, eta*gamma, gamma^2 + 2*eta*theta)

where ``eta`` is the pullback of the point class from a curve ``C``,
``gamma`` is the Kuenneth middle term, ``theta`` is the theta divisor of
the Picard variety, and ``c1, c2, c3`` are the Chern classes of the dual
rank-3 tautological bundle on a three-dimensional determinantal locus
``W`` sitting inside ``C x Pic^17(C)`` for a general curve of genus 21.
The rewrite system

    eta^2 -> 0,    eta*gamma -> 0,    gamma^2 -> -2*eta*theta

is confluent; ``gamma`` therefore never appears with exponent above one
in normal form, and ``gamma^3 = 0`` is a consequence rather than an
axiom.

Two integration functionals complete the calculus:

* :func:`integrate_over_C` extracts the coefficient of ``eta`` (fibre
  integration along the curve factor); ``gamma``-terms and terms free of
  ``eta`` integrate to zero.
* :func:`integrate_over_W` evaluates a top-degree polynomial in
  ``theta, c1, c2, c3`` against a Gysin pushforward table for the Chern
  *roots* ``x1, x2, x3`` of the dual tautological bundle, then caps with
  ``\\int_{Pic^21} theta^21 = 21!``.  A Chern monomial ``c1^a c2^b c3^c``
  is expanded through the elementary symmetric polynomials into root
  monomials before lookup; the table is not symmetric in the roots, so
  the expansion step is essential.

The pushforward table is generated, not stored: its twenty entries (all
root monomials of degree at most three) are the Harris-Tu Chern numbers
of the dual tautological bundle on ``W^2_17``; see :func:`load_table`.

On top of the ring sits the rank-degeneracy computation that produces
the coefficients of an effective divisor class on the moduli space of
stable genus-22 curves: :func:`degeneracy_total` evaluates the second
Chern class of the virtual bundle ``F - Sym^2(E)`` against two test
surfaces, and :func:`solve_d22` turns the two resulting integers into
the divisor coefficients ``(a, b0, b1)``.  Its only stated inputs are
the two surface classes and the Chern classes of the base bundles; the
rest follows from three rules:

* the first Chern class ``k`` of the kernel line on a surface ``S`` is
  not an honest ring element, but ``k*[S] = -shift([S])`` and
  ``k^2*[S] = shift(shift([S]))``, where ``shift`` raises the Chern
  index of every term (``x*c_i -> x*c_(i+1)``, ``c_0 = 1``, ``c_4 = 0``);
* the restrictions are Whitney sums with a line, ``E = A + U`` and
  ``F = A2 + U^2``, so ``c(E) = c(A)(1 + k)`` and ``c(F) = c(A2)(1 + 2k)``;
* :func:`chern_of_sym2` applies the splitting-principle closed form for
  ``Sym^2`` at any rank.

Until the surface class is applied, expressions in ``k`` are tracked by
:class:`KernelPoly`, a formal polynomial allowed to carry the kernel
symbol at most quadratically.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from functools import lru_cache
from itertools import product as _cartesian
from typing import Iterable, Iterator, Mapping, NamedTuple, Union

from . import _Record, _fraction, _integers, _rational

__all__ = [
    "RingElement",
    "ZERO",
    "ONE",
    "ETA",
    "GAMMA",
    "THETA",
    "C1",
    "C2",
    "C3",
    "element_from_string",
    "MAX_EXPONENT",
    "integrate_over_C",
    "integrate_over_W",
    "PushforwardTable",
    "load_table",
    "KernelPoly",
    "KernelDegreeError",
    "ChernData",
    "chern_of_sym2",
    "degeneracy_total",
    "solve_d22",
]

Rational = Union[int, Fraction]

# A monomial key is (eta, gamma, theta_pow, c1_pow, c2_pow, c3_pow); in
# normal form eta and gamma are 0 or 1 and never both 1.
Key = tuple[int, int, int, int, int, int]

_GEN_NAMES = ("eta", "gamma", "theta", "c1", "c2", "c3")
# Complex degree of each generator, in key order.
_GEN_DEGREES = (1, 1, 1, 1, 2, 3)


def _reduce_term(key: Key, coeff: Fraction) -> tuple[Key, Fraction] | None:
    """Rewrite one raw monomial to normal form; ``None`` if it dies."""
    eta, gamma, theta, c1, c2, c3 = key
    while gamma >= 2:
        gamma -= 2
        eta += 1
        theta += 1
        coeff = -2 * coeff
    if eta >= 2 or (eta and gamma):
        return None
    return (eta, gamma, theta, c1, c2, c3), coeff


class RingElement:
    """An element of the quotient ring, kept in normal form.

    Immutable; supports ``+``, ``-``, ``*`` (ring and scalar), ``/`` by a
    scalar, and ``==``.  The constructor accepts any mapping or iterable
    of ``(key, coefficient)`` pairs and normalizes it; it is the one
    ``reduce`` operation, and sums and products hand it raw terms.
    """

    __slots__ = ("_terms",)

    def __init__(
        self,
        terms: Mapping[Key, Rational] | Iterable[tuple[Key, Rational]] = (),
    ) -> None:
        items = terms.items() if isinstance(terms, Mapping) else terms
        acc: dict[Key, Fraction] = {}
        for key, coeff in items:
            _integers(*key)
            if len(key) != 6 or any(e < 0 for e in key):
                raise ValueError(f"bad monomial key {key!r}")
            reduced = _reduce_term(tuple(key), _fraction(coeff))
            if reduced is None:
                continue
            rkey, rcoeff = reduced
            acc[rkey] = acc.get(rkey, Fraction(0)) + rcoeff
        object.__setattr__(
            self, "_terms", {k: v for k, v in acc.items() if v != 0}
        )

    # -- basic queries ------------------------------------------------

    def degrees(self) -> set[int]:
        """Set of complex degrees present among the terms."""
        return {_key_degree(k) for k in self._terms}

    def is_homogeneous(self, degree: int | None = None) -> bool:
        degs = self.degrees()
        if not degs:
            return True
        if len(degs) > 1:
            return False
        return degree is None or degs == {degree}

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, RingElement):
            return self._terms == other._terms
        if isinstance(other, (int, Fraction)):
            return self == _scalar_element(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other: "RingElement | Rational") -> "RingElement":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return RingElement([*self._terms.items(), *other._terms.items()])

    __radd__ = __add__

    def __neg__(self) -> "RingElement":
        return RingElement({k: -v for k, v in self._terms.items()})

    def __sub__(self, other: "RingElement | Rational") -> "RingElement":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other: Rational) -> "RingElement":
        other = _coerce(other)
        return NotImplemented if other is NotImplemented else other - self

    def __mul__(self, other: "RingElement | Rational") -> "RingElement":
        if not isinstance(other, RingElement):
            try:
                other = _fraction(other)
            except TypeError:
                return NotImplemented
            return RingElement(
                {k: v * other for k, v in self._terms.items()}
            )
        return RingElement(
            (tuple(ea + eb for ea, eb in zip(ka, kb)), va * vb)
            for ka, va in self._terms.items()
            for kb, vb in other._terms.items()
        )

    __rmul__ = __mul__

    def __truediv__(self, other: Rational) -> "RingElement":
        try:
            other = _fraction(other)
        except TypeError:
            return NotImplemented
        return self * (Fraction(1) / other)

    def __pow__(self, n: int) -> "RingElement":
        _integers(n)
        if n < 0:
            raise ValueError("exponent must be a nonnegative integer")
        out, square = ONE, self
        while n:
            if n & 1:
                out = out * square
            n >>= 1
            if n:
                square = square * square
        return out

    # -- rendering ----------------------------------------------------

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        parts: list[str] = []
        for key in sorted(self._terms, key=lambda k: (_key_degree(k), k)):
            coeff = self._terms[key]
            factors = [
                name if e == 1 else f"{name}^{e}"
                for name, e in zip(_GEN_NAMES, key)
                if e
            ]
            body = "*".join(factors)
            if not body:
                text = str(abs(coeff))
            elif abs(coeff) == 1:
                text = body
            else:
                text = f"{abs(coeff)}*{body}"
            sign = "-" if coeff < 0 else "+"
            parts.append(f"{sign} {text}")
        joined = " ".join(parts)
        return joined[2:] if joined.startswith("+ ") else "-" + joined[2:]

    def __repr__(self) -> str:
        return f"RingElement({self})"


def _key_degree(key: Key) -> int:
    return sum(e * d for e, d in zip(key, _GEN_DEGREES))


def _scalar_element(q: Rational) -> RingElement:
    return RingElement({(0, 0, 0, 0, 0, 0): Fraction(q)})


def _coerce(x: "RingElement | Rational") -> RingElement:
    if isinstance(x, RingElement):
        return x
    try:
        return _scalar_element(_fraction(x))
    except TypeError:
        return NotImplemented


def _generator(position: int) -> RingElement:
    key = [0] * 6
    key[position] = 1
    return RingElement({tuple(key): Fraction(1)})


ZERO = RingElement()
ONE = _scalar_element(1)
ETA = _generator(0)
GAMMA = _generator(1)
THETA = _generator(2)
C1 = _generator(3)
C2 = _generator(4)
C3 = _generator(5)

_GENERATORS = dict(zip(_GEN_NAMES, (ETA, GAMMA, THETA, C1, C2, C3)))

_TOKEN = re.compile(r"\s*(\d+/\d+|\d+|[a-z][a-z0-9]*|\^|\*|\+|-)")

# Largest exponent element_from_string accepts.  The genus-22 pipeline
# stays far below it; the cap bounds the exponents a parsed monomial
# carries, and ten times the cap the digits of all literal powers.
MAX_EXPONENT = 1000


def element_from_string(text: str) -> RingElement:
    """Parse a ring element from a ``+``/``-``/``*``/``^`` expression.

    Accepted factors are the generator names (``eta``, ``gamma``,
    ``theta``, ``c1``, ``c2``, ``c3``) and rational literals like ``3``
    or ``7/2`` with a nonzero denominator, optionally raised to a
    nonnegative integer power of at most :data:`MAX_EXPONENT`; the
    literal powers may have at most ``10 * MAX_EXPONENT`` digits in all.
    Parentheses are not supported.
    """
    tokens: list[str] = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            if text[pos:].strip():
                raise ValueError(f"cannot tokenize {text[pos:]!r}")
            break
        tokens.append(m.group(1))
        pos = m.end()
    if not tokens:
        raise ValueError("empty expression")

    result = ZERO
    digits = 0  # of all literal powers read so far
    idx = 0
    while idx < len(tokens):
        sign = 1
        while idx < len(tokens) and tokens[idx] in "+-":
            if tokens[idx] == "-":
                sign = -sign
            idx += 1
        term = _scalar_element(sign)
        expect_factor = True
        while idx < len(tokens):
            tok = tokens[idx]
            if tok in "+-" and not expect_factor:
                break
            if tok == "*":
                idx += 1
                expect_factor = True
                continue
            if tok == "^":
                raise ValueError("dangling '^'")
            power = 1
            if idx + 2 < len(tokens) and tokens[idx + 1] == "^":
                power = int(tokens[idx + 2])
                if power > MAX_EXPONENT:
                    raise ValueError(
                        f"exponent {power} exceeds the limit {MAX_EXPONENT}"
                    )
                extra = 2
            elif idx + 1 < len(tokens) and tokens[idx + 1] == "^":
                raise ValueError("dangling '^'")
            else:
                extra = 0
            if tok in _GENERATORS:
                factor = _GENERATORS[tok] ** power
            elif re.fullmatch(r"\d+(/\d+)?", tok):
                if (digits := digits + len(tok) * power) > 10 * MAX_EXPONENT:
                    raise ValueError(f"literal powers exceed {10 * MAX_EXPONENT} digits")
                factor = _scalar_element(_rational(tok) ** power)
            else:
                raise ValueError(f"unknown symbol {tok!r}")
            term = term * factor
            idx += 1 + extra
            expect_factor = False
        if expect_factor:
            raise ValueError("trailing operator")
        result = result + term
    return result


# ---------------------------------------------------------------------
# Integration functionals
# ---------------------------------------------------------------------


def integrate_over_C(a: RingElement) -> RingElement:
    """Fibre integration along the curve factor: coefficient of ``eta``.

    Terms carrying ``gamma`` and terms without ``eta`` push forward to
    zero; a term ``eta * m`` contributes ``m``.
    """
    out: dict[Key, Fraction] = {}
    for (eta, gamma, theta, c1, c2, c3), coeff in a._terms.items():
        if eta == 1 and gamma == 0:
            out[(0, 0, theta, c1, c2, c3)] = coeff
    return RingElement(out)


class PushforwardTable(NamedTuple):
    """Gysin images of Chern-root monomials on the determinantal locus.

    ``entries`` maps root exponents ``(e1, e2, e3)`` with
    ``e1 + e2 + e3 <= 3`` to the exact rational ``q`` such that the
    monomial ``x1^e1 x2^e2 x3^e3`` pushes forward to
    ``q * theta^(18 + e1 + e2 + e3)`` on ``Pic^21(C)``.  The table is
    genuinely asymmetric in the roots.
    """

    entries: Mapping[tuple[int, int, int], Fraction]

    def entry(self, e1: int, e2: int, e3: int) -> Fraction:
        try:
            return self.entries[(e1, e2, e3)]
        except KeyError:
            raise KeyError(f"no pushforward entry for roots {(e1, e2, e3)}")

    def verify(self) -> None:
        """Check that the entries are exactly the Harris-Tu values."""
        if dict(self.entries) != _w217_entries():
            raise ValueError(
                "pushforward table differs from the Harris-Tu formula"
            )

    def checksum(self) -> str:
        """SHA-256 hex digest of the entries' canonical text.

        The canonical text is ``e1,e2,e3=q`` for each entry in sorted
        order, joined by ``;``.  ``sha256`` comes from CPython's builtin
        module (``_sha2`` from 3.12, ``_sha256`` before), as ``random``
        does for ``sha512``: ``hashlib`` would load OpenSSL to hash a few
        hundred bytes, so it is only the fallback when neither imports.
        """
        try:
            from _sha2 import sha256
        except ImportError:
            try:
                from _sha256 import sha256
            except ImportError:
                from hashlib import sha256

        canonical = ";".join(
            f"{k[0]},{k[1]},{k[2]}={v}" for k, v in sorted(self.entries.items())
        )
        return sha256(canonical.encode()).hexdigest()


def _harris_tu(exps: tuple[int, ...], g: int, r: int, d: int) -> Fraction:
    """Harris-Tu Chern number of a root monomial on ``W^r_d``.

    For a Brill-Noether general curve of genus ``g``, the monomial
    ``x_0^i_0 ... x_r^i_r`` in the Chern roots of the dual tautological
    bundle on ``W^r_d`` pushes forward to ``q * theta^(g - rho + sum i)``
    on the Picard variety, with

        q = prod_{k<j} (i_k - i_j + j - k) / prod_j (g - d + 2r + i_j - j)!

    (Harris-Tu 1984; ACGH, *Geometry of Algebraic Curves I*, ch. VII).
    """
    numerator = math.prod(
        exps[k] - exps[j] + j - k
        for j in range(r + 1)
        for k in range(j)
    )
    denominator = math.prod(
        math.factorial(g - d + 2 * r + i - j) for j, i in enumerate(exps)
    )
    return Fraction(numerator, denominator)


# The genus of the curve carrying ``W^2_17``, so its Picard variety has
# dimension 21: the table's entries and the ``21!`` cap both use it.
_PICARD_GENUS = 21


def _w217_entries() -> dict[tuple[int, int, int], Fraction]:
    """Harris-Tu entries of the 20 root monomials of degree <= 3 on ``W^2_17``."""
    return {
        exps: _harris_tu(exps, _PICARD_GENUS, 2, 17)
        for exps in _cartesian(range(4), repeat=3)
        if sum(exps) <= 3
    }


@lru_cache(maxsize=1)
def load_table() -> PushforwardTable:
    """The pushforward table for ``W^2_17`` of a general genus-21 curve."""
    return PushforwardTable(_w217_entries())


@lru_cache(maxsize=None)
def _root_expansion(a: int, b: int, c: int) -> tuple[tuple[tuple[int, int, int], int], ...]:
    """Expand ``c1^a c2^b c3^c`` into root monomials with multiplicity."""
    e1 = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    e2 = ((1, 1, 0), (1, 0, 1), (0, 1, 1))
    e3 = ((1, 1, 1),)
    counts: dict[tuple[int, int, int], int] = {}
    for picks in _cartesian(*([e1] * a + [e2] * b + [e3] * c)):
        exps = [0, 0, 0]
        for p in picks:
            exps = [x + y for x, y in zip(exps, p)]
        key = tuple(exps)
        counts[key] = counts.get(key, 0) + 1
    return tuple(sorted(counts.items()))


def integrate_over_W(p: RingElement) -> Fraction:
    """Integrate a polynomial in ``theta, c1, c2, c3`` over the locus.

    Every monomial must have complex degree at least 3 (the locus is a
    threefold: lower-degree monomials cannot be evaluated and raise);
    monomials of degree above 3 vanish for dimension reasons.  Each
    degree-3 monomial ``theta^t c1^a c2^b c3^c`` is expanded into Chern
    roots, looked up in the table, and the sum is capped with
    ``\\int_{Pic^21} theta^21 = 21!``.
    """
    table = load_table()
    total = Fraction(0)
    for (eta, gamma, theta, a, b, c), coeff in p._terms.items():
        if eta or gamma:
            raise ValueError(
                "integrate_over_W expects a polynomial in theta, c1, c2, c3; "
                f"apply integrate_over_C first (offending key has eta={eta}, "
                f"gamma={gamma})"
            )
        cdeg = a + 2 * b + 3 * c
        degree = theta + cdeg
        if degree < 3:
            raise ValueError(
                f"monomial theta^{theta}*c1^{a}*c2^{b}*c3^{c} has degree "
                f"{degree} < 3 and cannot be integrated over a threefold"
            )
        if degree > 3:
            continue
        value = Fraction(0)
        for roots, mult in _root_expansion(a, b, c):
            value += mult * table.entry(*roots)
        total += coeff * value
    return total * math.factorial(_PICARD_GENUS)


# ---------------------------------------------------------------------
# Kernel-symbol calculus and bundle data
# ---------------------------------------------------------------------


class KernelDegreeError(ValueError):
    """The kernel symbol appeared with degree three or higher."""


class KernelPoly(_Record):
    """Polynomial in the formal first Chern class of a kernel line bundle.

    The symbol ``k = c1(kernel)`` is not an element of the ambient ring:
    only ``k`` and ``k^2`` against a surface class are defined (by the
    shift rule in :func:`degeneracy_total`).  We therefore track expressions as
    ``const + linear * k + square * k^2`` with ring-element coefficients
    and refuse products in which ``k^3`` or higher would survive.
    Instances are read-only.
    """

    # Slot i holds the coefficient of k^i, in _fields order.
    _fields = ("const", "linear", "square")

    def __init__(
        self,
        const: RingElement = ZERO,
        linear: RingElement = ZERO,
        square: RingElement = ZERO,
    ) -> None:
        self.__dict__.update(const=const, linear=linear, square=square)

    @staticmethod
    def symbol() -> "KernelPoly":
        return KernelPoly(linear=ONE)

    @staticmethod
    def ambient(x: RingElement | Rational) -> "KernelPoly":
        return KernelPoly(const=_coerce(x))

    def __add__(self, other: "KernelPoly | RingElement | Rational") -> "KernelPoly":
        other = _coerce_kernel(other)
        if other is NotImplemented:
            return NotImplemented
        return KernelPoly(*(x + y for x, y in zip(self._key(), other._key())))

    __radd__ = __add__

    def __neg__(self) -> "KernelPoly":
        return KernelPoly(*(-x for x in self._key()))

    def __sub__(self, other: "KernelPoly | RingElement | Rational") -> "KernelPoly":
        other = _coerce_kernel(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other: "RingElement | Rational") -> "KernelPoly":
        other = _coerce_kernel(other)
        return NotImplemented if other is NotImplemented else other - self

    def __mul__(self, other: "KernelPoly | RingElement | Rational") -> "KernelPoly":
        other = _coerce_kernel(other)
        if other is NotImplemented:
            return NotImplemented
        product = [ZERO] * 5
        for i, x in enumerate(self._key()):
            for j, y in enumerate(other._key()):
                product[i + j] += x * y
        if any(product[3:]):
            raise KernelDegreeError(
                "kernel symbol would appear with degree >= 3; only its "
                "pairing and its square are defined"
            )
        return KernelPoly(*product[:3])

    __rmul__ = __mul__

    def is_homogeneous(self, degree: int) -> bool:
        """Homogeneity with the kernel symbol counted as degree one."""
        return all(
            slot.is_homogeneous(degree - i) for i, slot in enumerate(self._key())
        )


def _coerce_kernel(x: "KernelPoly | RingElement | Rational") -> KernelPoly:
    if isinstance(x, KernelPoly):
        return x
    coerced = _coerce(x)
    if coerced is NotImplemented:
        return NotImplemented
    return KernelPoly(const=coerced)


class ChernData(_Record):
    """Rank and first two Chern classes of a bundle.

    ``c1``/``c2`` are ambient ring elements or, for bundles whose Chern
    classes involve a kernel symbol, :class:`KernelPoly` values.
    Instances are read-only.
    """

    _fields = ("rank", "c1", "c2")

    def __init__(
        self, rank: int, c1: RingElement | KernelPoly, c2: RingElement | KernelPoly
    ) -> None:
        _integers(rank)
        if rank < 0:
            raise ValueError("rank must be nonnegative")
        for name, cls, degree in (("c1", c1, 1), ("c2", c2, 2)):
            if not cls.is_homogeneous(degree):
                raise ValueError(f"{name} must be homogeneous of degree {degree}")
        self.__dict__.update(rank=rank, c1=c1, c2=c2)


def chern_of_sym2(E: ChernData) -> ChernData:
    """Chern data of ``Sym^2`` of a rank-``r`` bundle.

    By the splitting principle ``Sym^2`` has roots ``x_i + x_j`` for
    ``i <= j``, which gives ``c1 -> (r+1) c1`` and
    ``c2 -> (r-1)(r+2)/2 c1^2 + (r+2) c2``.
    """
    r = E.rank
    return ChernData(
        rank=r * (r + 1) // 2,
        c1=(r + 1) * E.c1,
        c2=(r - 1) * (r + 2) // 2 * E.c1 * E.c1 + (r + 2) * E.c2,
    )


def _with_line(base: ChernData, k: KernelPoly) -> ChernData:
    """Whitney sum ``base + L`` with ``c1(L) = k``: ``c = c(base)(1 + k)``."""
    return ChernData(base.rank + 1, base.c1 + k, base.c2 + k * base.c1)


# Exponents of (c1, c2, c3) in c_0 = 1, c_1, c_2, c_3, indexed by i.
_CHERN_INDEX = ((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1))


def _shift(cls: RingElement) -> RingElement:
    """Send every term ``x*c_i`` to ``x*c_(i+1)``, with ``c_0 = 1``, ``c_4 = 0``.

    Defined only on classes linear in the Chern generators.
    """
    out: dict[Key, Fraction] = {}
    for (eta, gamma, theta, *chern), coeff in cls._terms.items():
        i = _CHERN_INDEX.index(tuple(chern)) + 1
        if i < len(_CHERN_INDEX):
            out[(eta, gamma, theta) + _CHERN_INDEX[i]] = coeff
    return RingElement(out)


# Chern data of the base bundles: A, with E = A + U on both surfaces,
# and the two pushforward bundles A2, B2 on C x Pic^17(C).
_A_C1 = C1 - THETA
_A_C2 = Fraction(1, 2) * THETA * THETA + C2 - THETA * C1
_A2_C1 = -4 * THETA - 4 * GAMMA - 28 * ETA
_A2_C2 = 8 * THETA * THETA + 104 * ETA * THETA + 16 * GAMMA * THETA
_B2_C1 = -4 * THETA + 7 * ETA - 2 * GAMMA
_B2_C2 = 8 * THETA * THETA - 28 * ETA * THETA + 8 * THETA * GAMMA

# Classes of the two test surfaces inside C x W.
_CLASS_X = C2 - 6 * ETA * THETA + (74 * ETA + 2 * GAMMA) * C1
_CLASS_Y = C2 - 2 * ETA * THETA + (16 * ETA + GAMMA) * C1

# (surface class, base bundle of F) for each side.
_SIDES = {
    "C1": (_CLASS_X, ChernData(28, _A2_C1, _A2_C2)),
    "C0": (_CLASS_Y, ChernData(28, _B2_C1, _B2_C2)),
}


def degeneracy_total(side: str) -> int:
    """Full evaluation of ``c2(F - Sym^2 E)`` against one test surface.

    ``side`` selects the surface: ``"C1"`` uses ``X`` with the bundle
    ``A2``; ``"C0"`` uses ``Y`` with ``B2``.  With ``k`` the first Chern
    class of the kernel line, ``E = A + U`` and ``F = base + U^2``; the
    expression is expanded in ``k``, paired with the surface class
    through the shift rule, integrated over the curve factor and then
    over the locus; the result must be an integer and is returned as
    one.
    """
    if side not in _SIDES:
        raise ValueError("side must be 'C1' or 'C0'")
    surface, base = _SIDES[side]
    k = KernelPoly.symbol()
    F = _with_line(base, 2 * k)
    S = chern_of_sym2(_with_line(ChernData(6, _A_C1, _A_C2), k))
    expr = F.c2 - F.c1 * S.c1 + S.c1 * S.c1 - S.c2
    if not expr.is_homogeneous(2):
        raise ArithmeticError("degeneracy class is not homogeneous of degree 2")
    shifted = _shift(surface)
    ambient = (
        expr.const * surface
        - expr.linear * shifted
        + expr.square * _shift(shifted)
    )
    total = integrate_over_W(integrate_over_C(ambient))
    if total.denominator != 1:
        raise ArithmeticError(
            f"degeneracy total for side {side} is not an integer: {total}"
        )
    return int(total)


@lru_cache(maxsize=1)
def solve_d22() -> tuple[int, int, int]:
    """Divisor coefficients ``(a, b0, b1)`` from the two test pairings.

    The two surfaces sweep the interior boundary curves, so the totals
    equal ``40*b1`` and ``42*b0 - b1`` respectively; the lambda
    coefficient follows from the elliptic-tail relation
    ``a - 12*b0 + b1 = 0``.  All divisions are checked exact.
    """
    t1 = degeneracy_total("C1")
    b1, rem = divmod(t1, 40)
    if rem:
        raise ArithmeticError(f"C1 total {t1} is not divisible by 40")
    t0 = degeneracy_total("C0")
    b0, rem = divmod(t0 + b1, 42)
    if rem:
        raise ArithmeticError(f"C0 total {t0} plus b1 is not divisible by 42")
    a = 12 * b0 - b1
    if not (a > 0 and b0 > 0 and b1 > 0):
        raise ArithmeticError(
            f"expected positive coefficients, got a={a}, b0={b0}, b1={b1}"
        )
    return a, b0, b1
