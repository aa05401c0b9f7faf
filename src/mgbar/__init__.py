"""Exact slope and intersection computations on the moduli space of
stable curves.

The package is organized around five calculators:

- :mod:`mgbar.divclass` — divisor classes on the standard
  lambda/delta basis, slopes, test-curve pairings, and the named
  syzygy and degeneracy classes;
- :mod:`mgbar.tautring` — the tautological coefficient ring of a
  curve times its Picard variety, Gysin pushforwards, and the
  genus-22 degeneracy pipeline;
- :mod:`mgbar.psi` — descendent integrals of psi classes by the
  KdV/Virasoro recursion with string and dilaton reductions;
- :mod:`mgbar.bn` — Brill-Noether numbers, limit linear series,
  formal bundle arithmetic, Severi and liaison numerology;
- :mod:`mgbar.koszul` — Koszul cohomology of graded modules by
  exact linear algebra.

Each public name has one home, its layer: it is read as
``mgbar.<layer>.<name>`` (or ``from mgbar import <layer>``), never from
the package itself, whose own names are the five layers,
:class:`ResourceLimitError` and ``__version__``.  This module alone
decides which layers load eagerly: :mod:`mgbar.psi` and
:mod:`mgbar.koszul` load with the package, the other three on first
use.  A command-line front end lives in :mod:`mgbar.cli` (entry point
``mgbar``); it reaches every layer as ``mgbar.<layer>``, so it loads
only the layers its command uses.
"""

import importlib
from fractions import Fraction


class _Record:
    """Read-only record: ``==``, ``hash()`` and ``repr()`` follow the
    ``_fields`` that the subclass's ``__init__`` puts in ``__dict__`` (no
    ``__slots__``, so instances stay weak-referenceable)."""

    _fields: tuple[str, ...] = ()

    def _key(self) -> tuple:
        return tuple(map(self.__dict__.__getitem__, self._fields))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        pairs = zip(self._fields, self._key())
        fields = ", ".join(f"{name}={value!r}" for name, value in pairs)
        return f"{self.__class__.__name__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {name!r}: read-only")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {name!r}: read-only")


class _Named:
    """A layer's singleton that pickles, copies and prints as ``_name``."""

    def __reduce__(self) -> str:
        return self._name

    __repr__ = __reduce__


class ResourceLimitError(RuntimeError):
    """Input exceeds a work or size guard (psi memo, Koszul elimination)."""


def _rational(text) -> Fraction:
    """``Fraction(str(text))``, the one parse of rational text: a zero
    denominator or a decimal exponent above 1000 (``"1e999999999"``
    would build ``10**999999999``) raises ``ValueError``."""
    text = str(text)
    power = text.lower().partition("e")[2].strip().lstrip("+-")
    if power.replace("_", "").isdigit() and int(power) > 1000:
        raise ValueError(f"decimal exponent of {text!r} exceeds 1000")
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None


def _fraction(value) -> Fraction:
    """An exact rational that is already a number: a ``Fraction`` or an
    ``int`` that is no ``bool``; anything else raises ``TypeError``."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    raise TypeError(f"expected an exact rational, got {type(value).__name__}")


def _integers(*values) -> None:
    """The one check of an integer argument (a genus, rank, degree, index,
    count or exponent): each value must be an ``int`` that is no ``bool``;
    anything else raises ``TypeError``, ahead of any range check."""
    for value in values:
        # A plain int passes on its type alone: every ring term's key
        # comes through here.
        if type(value) is not int and (
                not isinstance(value, int) or isinstance(value, bool)):
            raise TypeError(f"expected an integer, got {type(value).__name__}")


# Eager: deferring them moves their load into the first job (psi_sweep +10%).
from . import koszul, psi

__version__ = "0.1.0"

__all__ = ["__version__", "ResourceLimitError",
           "divclass", "tautring", "psi", "bn", "koszul"]


def __getattr__(name: str):
    if name not in ("divclass", "tautring", "bn"):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return importlib.import_module(f".{name}", __name__)
