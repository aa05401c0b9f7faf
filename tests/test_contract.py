"""The integer contract of the public API.

Every public function and record that takes a genus, rank, degree,
index, count or exponent refuses a float, a bool or a string there with
one ``TypeError``, ``expected an integer, got <type>``, ahead of any range
check, so no such value reaches a result or a record.  The table below is
written here, not read from the library: each entry is a valid call
whose every argument is an integer parameter.  A scan of the sources
keeps that decision in one place, ``mgbar._integers``.
"""

import ast
import importlib
from pathlib import Path

import pytest

import mgbar
from mgbar import bn, divclass, koszul, psi, tautring

MODULE = koszul.veronese_module(3, 3)
MATRIX = koszul.koszul_matrix(MODULE, 1, 0)
PRIME = koszul.DEFAULT_PRIME
TREE = bn.TreeCurve((1, 1), ((0, 1),))
ASPECTS = [bn.LinearSeriesData(1, 1, 4)] * 2

# name -> (call, valid integer arguments)
CASES = {
    # divclass
    "DivisorClass": (lambda g, flag: divclass.DivisorClass(
        g, 1, (-1, -1, -1), {flag}), (4, 2)),
    "DivisorClass.zero": (divclass.DivisorClass.zero, (4,)),
    "CurveNumbers": (lambda g: divclass.CurveNumbers(g, 1, (2, 3)), (2,)),
    "canonical_coarse": (divclass.canonical_coarse, (4,)),
    "canonical_stack": (divclass.canonical_stack, (4,)),
    "gieseker_petri_slope": (divclass.gieseker_petri_slope, (1, 1)),
    "kappa1": (divclass.kappa1, (4,)),
    "koszul_even_slope": (divclass.koszul_even_slope, (0,)),
    "koszul_odd_class": (divclass.koszul_odd_class, (1,)),
    "lambda_chern_n": (divclass.lambda_chern_n, (4, 2)),
    "slope_conjecture_bound": (divclass.slope_conjecture_bound, (22,)),
    "test_curve": (lambda g: divclass.test_curve("B", g), (4,)),
    # tautring
    "RingElement": (lambda *key: tautring.RingElement({key: 1}),
                    (0, 0, 1, 0, 0, 0)),
    "RingElement.__pow__": (lambda n: tautring.THETA ** n, (2,)),
    "ChernData": (lambda rank: tautring.ChernData(
        rank, tautring.C1, tautring.C2), (6,)),
    # psi
    "Correlator": (lambda g, a, b: psi.Correlator(g, (a, b)), (2, 3, 2)),
    "pand_bound": (psi.pand_bound, (2,)),
    "pand_numerator": (psi.pand_numerator, (2,)),
    "pand_denominator": (psi.pand_denominator, (2,)),
    "psi_one_point": (psi.psi_one_point, (1,)),
    # bn
    "FormalBundle": (bn.FormalBundle, (2, 3, 1)),
    "FormalBundle.exterior_power": (
        lambda k: bn.FormalBundle(2, 3, 1).exterior_power(k), (1,)),
    "FormalBundle.sym_power": (
        lambda k: bn.FormalBundle(2, 3, 1).sym_power(k), (2,)),
    "LinearSeriesData": (lambda g, r, d, a, b: bn.LinearSeriesData(
        g, r, d, (a, b)), (4, 1, 4, 0, 4)),
    "TreeCurve": (lambda g, h, i, j: bn.TreeCurve((g, h), ((i, j),)),
                  (1, 2, 0, 1)),
    "limit_series_compatible": (lambda a: bn.limit_series_compatible(
        TREE, ASPECTS, {(0, 1): (0, a), (1, 0): (0, 4)}), (4,)),
    "balanced_rank_check": (bn.balanced_rank_check, (1,)),
    "canonical_bundle": (bn.canonical_bundle, (2,)),
    "canonical_syzygy_bundle": (bn.canonical_syzygy_bundle, (2,)),
    "hilbert_dim": (bn.hilbert_dim, (7, 5, 3)),
    "koszul_threshold": (bn.koszul_threshold, (5, 1)),
    "liaison_solve": (bn.liaison_solve, (5, 7, 3)),
    "quadric_count": (bn.quadric_count, (5, 3, 6)),
    "rho": (bn.rho, (22, 1, 11)),
    "severi_analyze": (bn.severi_analyze, (4,)),
    # koszul
    "GradedModule": (lambda n, a, b: koszul.GradedModule(
        n, (a, b), [[[[1]]]]), (1, 1, 1)),
    "KoszulStrand": (koszul.KoszulStrand, (0, 0, 3, 1, 2)),
    "SparseMatrix": (lambda nrows, ncols, r, c: koszul.SparseMatrix(
        nrows, ncols, {(r, c): 1}), (2, 2, 0, 1)),
    "green_lazarsfeld_Np": (lambda p: koszul.green_lazarsfeld_Np(
        MODULE, p), (1,)),
    "koszul_cohomology": (lambda i, j, prime: koszul.koszul_cohomology(
        MODULE, i, j, prime), (1, 1, PRIME)),
    "koszul_matrix": (lambda i, j: koszul.koszul_matrix(MODULE, i, j),
                      (1, 0)),
    "matrix_rank": (lambda prime: koszul.matrix_rank(MATRIX, prime),
                    (PRIME,)),
    "betti_table": (lambda i, j, prime: koszul.betti_table(
        MODULE, i, j, prime), (1, 1, PRIME)),
    "polynomial_ring_module": (koszul.polynomial_ring_module, (2, 2)),
    "veronese_module": (koszul.veronese_module, (2, 2)),
    "monomial_quotient_module": (lambda n, top, a, b: (
        koszul.monomial_quotient_module(n, top, [(a, b)])), (2, 2, 1, 1)),
}

# Public names that take no integer, with the reason.
NO_INTEGER_PARAMETERS = {
    "INFINITE": "a constant",
    "INFEASIBLE": "a constant",
    "SlopeUndeterminedError": "an exception",
    "ResourceLimitError": "an exception",
    "d22_class": "takes nothing",
    "load_table": "takes nothing",
    "solve_d22": "takes nothing",
    "general_type_witness": "takes a DivisorClass",
    "k3_obstruction": "takes a DivisorClass",
    "slope": "takes a DivisorClass",
    "pair": "takes a CurveNumbers and a DivisorClass",
    "correlator_value": "takes a Correlator",
    "element_from_string": "takes text",
    "integrate_over_C": "takes a RingElement",
    "integrate_over_W": "takes a RingElement",
    "PushforwardTable": "verify refuses any table that differs from "
                        "Harris-Tu",
    "SeveriReport": "a result tuple that severi_analyze builds from "
                    "integers it checked",
    "LiaisonResult": "a result tuple that liaison_solve builds from "
                     "integers it checked",
    "ZERO": "a ring constant",
    "ONE": "a ring constant",
    "ETA": "a ring constant",
    "GAMMA": "a ring constant",
    "THETA": "a ring constant",
    "C1": "a ring constant",
    "C2": "a ring constant",
    "C3": "a ring constant",
    "MAX_EXPONENT": "a budget",
    "MAX_MATRIX_SIDE": "a budget",
    "MAX_ELIMINATION_WORK": "a budget",
    "MAX_COMMUTATIVITY_WORK": "a budget",
    "DEFAULT_PRIME": "a constant",
    "KernelDegreeError": "an exception",
    "KernelPoly": "takes ring elements",
    "chern_of_sym2": "takes a ChernData",
    "degeneracy_total": "takes a side name",
    "string_reduce": "takes a Correlator",
    "cache_info": "takes nothing",
    "cache_clear": "takes nothing",
    "rational_to_str": "takes an exact rational",
    "rational_from_str": "takes text",
    "module_to_json": "takes a GradedModule",
    "module_from_json": "takes module JSON, whose non-integer sizes are "
                        "malformed data (ValueError)",
}

LAYERS = ("divclass", "tautring", "psi", "bn", "koszul")

BAD = [(2.0, "float"), (True, "bool"), ("2", "str")]


def _integer_calls():
    for name, (call, args) in CASES.items():
        for position in range(len(args)):
            for value, kind in BAD:
                yield pytest.param(call, args, position, value, kind,
                                   id=f"{name}-{position}-{kind}")


@pytest.mark.parametrize("name", sorted(CASES))
def test_each_valid_call_succeeds(name):
    call, args = CASES[name]
    call(*args)


@pytest.mark.parametrize("call, args, position, value, kind",
                         _integer_calls())
def test_an_integer_parameter_refuses_anything_else(
        call, args, position, value, kind):
    bad = args[:position] + (value,) + args[position + 1:]
    with pytest.raises(TypeError, match=f"^expected an integer, got {kind}$"):
        call(*bad)


def test_every_public_name_is_swept_or_exempt():
    names = {name for layer in LAYERS
             for name in importlib.import_module(f"mgbar.{layer}").__all__}
    assert not CASES.keys() & NO_INTEGER_PARAMETERS.keys()
    assert names <= CASES.keys() | NO_INTEGER_PARAMETERS.keys()
    # Nor is a name swept or exempt that no layer makes public.
    swept = {name.split(".")[0] for name in CASES}
    assert swept | NO_INTEGER_PARAMETERS.keys() <= names


# The functions allowed to ask isinstance(x, bool): the two number
# checks, the Koszul entry reader and the CLI's output encoder.
BOOL_CHECK_SITES = {
    ("__init__", "_fraction"), ("__init__", "_integers"),
    ("koszul", "_exact"), ("cli", "_encode"),
}


class _BoolChecks(ast.NodeVisitor):
    """The functions of one module that call ``isinstance(_, bool)``."""

    def __init__(self) -> None:
        self.where, self.sites = ["<module>"], set()

    def visit_FunctionDef(self, node) -> None:
        self.where.append(node.name)
        self.generic_visit(node)
        self.where.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Call(self, node) -> None:
        if (isinstance(node.func, ast.Name) and node.func.id == "isinstance"
                and len(node.args) == 2
                and any(isinstance(n, ast.Name) and n.id == "bool"
                        for n in ast.walk(node.args[1]))):
            self.sites.add(self.where[-1])
        self.generic_visit(node)


def test_the_bool_check_lives_in_one_place():
    sources = sorted(Path(mgbar.__file__).parent.glob("*.py"))
    assert sources
    found = set()
    for path in sources:
        visitor = _BoolChecks()
        visitor.visit(ast.parse(path.read_text(), str(path)))
        found |= {(path.stem, site) for site in visitor.sites}
    assert ("__init__", "_integers") in found
    assert found <= BOOL_CHECK_SITES, found - BOOL_CHECK_SITES
