"""Exact descendent integrals over moduli of stable pointed curves.

``correlator_value`` computes the intersection numbers

    <tau_{a_1} ... tau_{a_n}>_g = integral of psi_1^{a_1}...psi_n^{a_n}

by the KdV / Virasoro (DVV) recursion.  The recursion runs on the
integers

    V(g; a_1..a_n) = 2^(4g+n-2) prod_i (2a_i+1)!! <tau_{a_1} ... tau_{a_n}>_g

and ``correlator_value`` divides once, at the top.  With ``k = a - 1`` for
a chosen insertion ``tau_a`` with ``a >= 2``, and ``rest`` the remaining
exponents, DVV reads::

    V(g; k+1, rest) =
        2 sum_j (2a_j+1) V(g; rest with a_j -> a_j+k)
      + sum_{a+b=k-1} [ 4 V(g-1; a, b, rest)
                        + sum_{I, J} V(g1; a, I) V(g-g1; b, J) ]

where ``I`` and ``J = rest - I`` run over ordered index splits of
``rest``.  In the double-factorial normalisation ``prod (2a_i+1)!! <...>``
the only non-integral coefficient of DVV is the 1/2 in front of the pair
sum; the power of two absorbs it.  Each child has a smaller exponent
``e = 4g+n-2``: a bump drops ``n`` by one, genus lowering goes to
``(g-1, n+1)``, and a split pair has ``e1 + e2 = e - 1``.  So, by
induction on ``e`` from the seeds ``V(0; 0,0,0) = 2`` and ``V(1; 1) = 1``,
every value is an integer.  The string and dilaton equations become

    V(g; 0, S) = 2 sum_j (2a_j+1) V(g; S with a_j -> a_j-1),
    V(g; 1, S) = 6 (2g-2+|S|) V(g; S).

The recursion runs on the cone: stable, nonnegative, on-dimension keys,
where ``3g = sum(exps) + 3 - n``, so the memo is keyed by the sorted
exponent tuple alone.  :func:`correlator_value` answers every other
correlator (they vanish) before any lookup; every child is on the cone:

* string, dilaton and bump children drop ``n`` and the dimension by one
  and stay stable (at ``g = 0`` only string steps at ``n >= 4`` apply);
* DVV frames have ``g >= 2`` (at ``g <= 1`` every on-dimension key has a
  0 or a 1), so the genus-lowering child is stable;
* a split's ``g1`` is fixed by dimension, ``3 g1 = a + sum(I) + 2 - |I|``;
  ``g1 = 0`` would force ``|I| >= 2 + a``, and as every exponent of
  ``rest`` is at least the pivot ``>= 2``, in fact ``1 <= g1 <= g - 1``.

The pair sum is evaluated over its nonzero terms only:

* splits are taken as sub-multisets ``I`` of ``rest``, each weighted by
  ``prod_v C(count_v(rest), count_v(I))``, the number of index splits
  giving it;
* the sub-multisets are built one group of equal exponents at a time and
  bucketed by ``sum(I) + 2 - |I| mod 3``, so each ``a`` visits only the
  bucket of splits whose ``g1`` is integral;
* ``(a, b, g1, I) -> (b, a, g-g1, J)`` maps terms to equal terms, so only
  ``a <= b`` is visited and the ``a < b`` terms are doubled.

String and bump terms come one per group of equal exponents of ``rest``,
times the group's size.  Every child key is built sorted, and is looked up
in the memo where it is built; the recursion is entered only on a miss.
The string and dilaton equations are applied first when a 0 or 1
exponent is available (they keep the recursion shallow).  The two seeds
``<tau_0^3>_0 = 1`` and ``<tau_1>_1 = 1/24`` are memo entries like any
other, stored on their first miss.

The integers ``V`` are kept in a process-wide memo (:func:`cache_info`,
:func:`cache_clear`).  One top-level evaluation may add at most
``MAX_NEW_ENTRIES`` entries to it and raises :class:`ResourceLimitError`
past that; a top-level evaluation that finds ``MAX_NEW_ENTRIES`` entries
or more drops them first, so the memo never holds twice that.

The recursion's correctness is pinned by exact agreement with the
closed forms it must reproduce: ``<tau_{3g-2}>_g = 1/(24^g g!)``, the
genus-0 multinomial formula, and the slope-bound ratio assembled in
:func:`pand_bound`, which must collapse to ``60/(g+4)``.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from fractions import Fraction
from itertools import groupby
from typing import Iterable, NamedTuple

from . import ResourceLimitError, _Record, _integers

__all__ = [
    "Correlator",
    "ResourceLimitError",
    "string_reduce",
    "psi_one_point",
    "correlator_value",
    "pand_numerator",
    "pand_denominator",
    "pand_bound",
    "cache_info",
    "cache_clear",
]

# Reject moduli of complex dimension above this.  On adversarial inputs
# it bounds the recursion's depth and the size of the one-point integral.
_MAX_DIMENSION = 200

# Dimension bounds depth, not time: one top-level evaluation may add at
# most this many memo entries.  A cold pand_bound(22) adds 5 549, the
# one-point integral at genus 34 (dimension 100) 39 495; at high genus an
# entry costs about 12 us, so `mgbar psi eval --g 60 --a 178` is refused
# after about 0.8 s of CPU, 0.6 s of it in the recursion (2 CPUs, Python
# 3.11.7).
MAX_NEW_ENTRIES = 50_000


def _check_dimension(dimension: int) -> None:
    if dimension > _MAX_DIMENSION:
        raise ResourceLimitError(
            f"moduli dimension {dimension} exceeds the guard "
            f"({_MAX_DIMENSION})"
        )


class Correlator(_Record):
    """A descendent correlator ``<tau_{a_1} ... tau_{a_n}>_g``.

    Exponents are stored sorted (correlators are symmetric).  The genus
    and every exponent pass :func:`mgbar._integers`, the one integer
    check, and the marked curve must be stable: ``2g - 2 + n > 0``.
    Instances are read-only.
    """

    _fields = ("genus", "exponents")

    def __init__(self, genus: int, exponents: Iterable[int]) -> None:
        exps = tuple(exponents)
        _integers(genus, *exps)
        exps = tuple(sorted(exps))
        if genus < 0:
            raise ValueError("genus must be nonnegative")
        if any(a < 0 for a in exps):
            raise ValueError("exponents must be nonnegative")
        if 2 * genus - 2 + len(exps) <= 0:
            raise ValueError(
                f"unstable correlator: genus {genus} with {len(exps)} insertions"
            )
        self.__dict__.update(genus=genus, exponents=exps)

    @property
    def dimension(self) -> int:
        return 3 * self.genus - 3 + len(self.exponents)

    def on_dimension(self) -> bool:
        return sum(self.exponents) == self.dimension


def string_reduce(c: Correlator) -> list[Correlator]:
    """Apply the string equation to one ``tau_0`` insertion.

    Returns the correlators obtained by deleting a ``tau_0`` and
    decrementing each remaining exponent in turn; decrements of zero
    exponents are dropped (those terms vanish).
    """
    if 0 not in c.exponents:
        raise ValueError("string_reduce needs a tau_0 insertion")
    if len(c.exponents) < 2:
        raise ValueError("string_reduce needs at least one other insertion")
    if 2 * c.genus - 2 + (len(c.exponents) - 1) <= 0:
        raise ValueError(
            "forgetting the tau_0 point leaves an unstable configuration; "
            "the string equation does not apply"
        )
    rest = list(c.exponents)
    rest.remove(0)
    out = []
    for j, a in enumerate(rest):
        if a == 0:
            continue
        out.append(Correlator(c.genus, rest[:j] + [a - 1] + rest[j + 1 :]))
    return out


def psi_one_point(g: int) -> Fraction:
    """The one-point integral ``<tau_{3g-2}>_g = 1/(24^g g!)``."""
    _integers(g)
    if g < 1:
        raise ValueError("one-point integrals need genus >= 1")
    _check_dimension(3 * g - 2)
    return Fraction(1, 24**g * math.factorial(g))


# Sorted exponents -> V (on the cone they fix g); seeds are stored too.
_memo: dict[tuple[int, ...], int] = {}
_SEEDS = {(0, 0, 0): 2, (1,): 1}
_hits = 0
_misses = 0
_miss_limit = MAX_NEW_ENTRIES


class CacheInfo(NamedTuple):
    hits: int
    misses: int
    size: int


def cache_info() -> CacheInfo:
    """Memo hits, misses (evaluations started, seeds too), entries held."""
    return CacheInfo(_hits, _misses, len(_memo))


def cache_clear() -> None:
    """Empty the memo and reset its counters."""
    global _hits, _misses
    _memo.clear()
    _hits = _misses = 0


def _value(g: int, exps: tuple[int, ...]) -> int:
    """Store and return ``V(g; exps)`` on a memo miss; exps sorted, on cone."""
    global _hits, _misses
    _misses += 1
    if _misses > _miss_limit:
        raise ResourceLimitError(
            f"evaluation needs more than {MAX_NEW_ENTRIES} new memo entries"
        )
    if (total := _SEEDS.get(exps)) is not None:
        _memo[exps] = total
        return total
    hits = 0  # added to _hits in the finally, also on a refusal
    rest = exps[1:]
    try:
        if exps[0] == 0:
            # String equation.  A group's first index takes the decrement,
            # so the key stays sorted.
            total = 0
            for v in dict.fromkeys(rest):
                if v:
                    j = rest.index(v)
                    child = rest[:j] + (v - 1,) + rest[j + 1 :]
                    if (value := _memo.get(child)) is None:
                        value = _value(g, child)
                    else:
                        hits += 1
                    total += rest.count(v) * (2 * v + 1) * value
            total *= 2
        elif exps[0] == 1:
            # Dilaton equation (the remaining correlator is stable here).
            if (total := _memo.get(rest)) is None:
                total = _value(g, rest)
            else:
                hits += 1
            total *= 6 * (2 * g - 3 + len(exps))
        else:
            # Full recursion on the smallest exponent (>= 2 here): the
            # genus-lowering term's new exponents stay small, so string and
            # dilaton absorb them instead of widening the correlator.
            k = exps[0] - 1
            groups = [(v, len(list(run))) for v, run in groupby(rest)]
            total = 0
            for v, count in groups:
                # v + k > v goes in after the group of v: the key is sorted.
                j = rest.index(v)
                i = bisect_right(rest, v + k, j + count)
                child = rest[:j] + rest[j + 1 : i] + (v + k,) + rest[i:]
                if (value := _memo.get(child)) is None:
                    value = _value(g, child)
                else:
                    hits += 1
                total += count * (2 * v + 1) * value
            total *= 2
            # Sub-multisets I of rest with J = rest - I, as (I, J, number of
            # index subsets giving I, sum(I) + 2 - |I|), built one group of
            # equal exponents at a time and bucketed by that shift mod 3.
            splits = [((), (), 1, 2)]
            for v, count in groups:
                splits = [
                    (left + (v,) * t, right + (v,) * (count - t),
                     ways * math.comb(count, t), shift + t * (v - 1))
                    for left, right, ways, shift in splits
                    for t in range(count + 1)
                ]
            buckets = ([], [], [])
            for split in splits:
                buckets[split[3] % 3].append(split)
            del splits  # the buckets hold every split through the recursion
            # a <= b <= k - 1 < min(rest), and left and right are built in
            # group order, so every key below is sorted as it is built.
            for a in range((k + 1) // 2):
                b = k - 1 - a
                child = (a, b) + rest
                if (term := _memo.get(child)) is None:
                    term = _value(g - 1, child)
                else:
                    hits += 1
                term *= 4
                for left, right, ways, shift in buckets[-a % 3]:
                    # <tau_a tau_I>_{g1} is on-dimension only at
                    # g1 = (a + shift) / 3, and 1 <= g1 <= g - 1 (module doc).
                    child = (a,) + left
                    if (lhs := _memo.get(child)) is None:
                        lhs = _value((a + shift) // 3, child)
                    else:
                        hits += 1
                    child = (b,) + right
                    if (rhs := _memo.get(child)) is None:
                        rhs = _value(g - (a + shift) // 3, child)
                    else:
                        hits += 1
                    term += ways * lhs * rhs
                # (a, b, g1, I) -> (b, a, g - g1, J) pairs equal terms.
                total += term if a == b else 2 * term
    finally:
        _hits += hits

    _memo[exps] = total
    return total


def correlator_value(c: Correlator) -> Fraction:
    """Exact value of a stable correlator; 0 when off-dimension.

    An off-dimension correlator is answered before any memo lookup, so the
    recursion, and the memo keyed by exponent tuples, see the cone only.
    One call may add at most ``MAX_NEW_ENTRIES`` entries to the memo;
    past that it raises :class:`ResourceLimitError`, keeping the entries
    already finished.  A call that finds ``MAX_NEW_ENTRIES`` entries or
    more in the memo empties it first.
    """
    global _hits, _miss_limit
    _check_dimension(c.dimension)
    if not c.on_dimension():
        # Before the scale, which a huge exponent would make huge.
        return Fraction(0)
    if len(_memo) >= MAX_NEW_ENTRIES:
        _memo.clear()
    _miss_limit = _misses + MAX_NEW_ENTRIES
    if (value := _memo.get(c.exponents)) is None:
        value = _value(c.genus, c.exponents)
    else:
        _hits += 1
    scale = 2 ** (4 * c.genus + len(c.exponents) - 2)
    for a in c.exponents:
        scale *= math.prod(range(2 * a + 1, 0, -2))
    return Fraction(value, scale)


# ---------------------------------------------------------------------
# Slope bound for the one-point boundary ratio
# ---------------------------------------------------------------------


def pand_numerator(g: int) -> Fraction:
    """Boundary intersection of a maximal psi-power pencil.

    Equals half the one-point integral one genus down: the node of an
    irreducible boundary curve is separated into two of the three
    points on the normalization, and the string equation collapses them.
    """
    _integers(g)
    if g < 2:
        raise ValueError("the bound needs genus >= 2")
    return psi_one_point(g - 1) / 2


def pand_denominator(g: int) -> Fraction:
    """Hodge-class intersection via the Grothendieck-Riemann-Roch split.

    Assembled from the two-point correlator ``<tau_{3g-3} tau_2>_g``,
    the one-point integral at genus ``g``, and the collapsed three-point
    term one genus down.
    """
    _integers(g)
    if g < 2:
        raise ValueError("the bound needs genus >= 2")
    two_point = correlator_value(Correlator(g, (3 * g - 3, 2)))
    return (
        two_point / 12
        - psi_one_point(g) / 12
        + psi_one_point(g - 1) / 24
    )


def pand_bound(g: int) -> Fraction:
    """The slope lower bound ``delta/lambda`` ratio, exactly ``60/(g+4)``.

    The closed form is asserted against the assembled ratio on every
    call; a mismatch means the recursion or the GRR bookkeeping broke.
    """
    value = pand_numerator(g) / pand_denominator(g)
    expected = Fraction(60, g + 4)
    if value != expected:
        raise RuntimeError(
            f"assembled bound {value} differs from closed form {expected} "
            f"at genus {g}"
        )
    return value
