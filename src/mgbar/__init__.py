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

:mod:`mgbar.psi` and :mod:`mgbar.koszul` load with the package;
:mod:`mgbar.divclass`, :mod:`mgbar.tautring` and :mod:`mgbar.bn` load
on first use, when one of their names (or the module itself) is first
read from the package.  A command-line front end lives in
:mod:`mgbar.cli` (entry point ``mgbar``); it loads only the layers its
command uses.
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

# The public names of each layer, read from the layer on first access.
_EXPORTS = {
    "divclass": (
        "INFINITE", "DivisorClass", "CurveNumbers", "SlopeUndeterminedError",
        "canonical_coarse", "canonical_stack", "d22_class",
        "gieseker_petri_slope", "general_type_witness", "k3_obstruction",
        "kappa1", "koszul_even_slope", "koszul_odd_class", "lambda_chern_n",
        "pair", "slope", "slope_conjecture_bound", "test_curve",
    ),
    "tautring": (
        "RingElement", "PushforwardTable", "element_from_string",
        "integrate_over_C", "integrate_over_W", "load_table", "solve_d22",
    ),
    "psi": (
        "Correlator", "ResourceLimitError", "correlator_value", "pand_bound",
        "psi_one_point",
    ),
    "bn": (
        "INFEASIBLE", "FormalBundle", "LinearSeriesData", "TreeCurve",
        "hilbert_dim", "liaison_solve", "limit_series_compatible",
        "quadric_count", "rho", "severi_analyze",
    ),
    "koszul": (
        "GradedModule", "KoszulStrand", "green_lazarsfeld_Np",
        "koszul_cohomology", "koszul_matrix", "matrix_rank",
    ),
}
_LAYER_OF = {name: layer for layer, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *_LAYER_OF]


def __getattr__(name: str):
    layer = name if name in _EXPORTS else _LAYER_OF.get(name)
    if layer is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f".{layer}", __name__)
    if layer == name:
        return module
    globals()[name] = value = getattr(module, name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_EXPORTS})
