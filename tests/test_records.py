"""The public record classes: constructor forms, validation, ``==``,
``repr()``, hashing and read-only attributes.

The records are ``NamedTuple``s or subclasses of ``mgbar._Record``, which
derives ``==``, ``hash()`` and ``repr()`` from the class's ``_fields``.
Each record is built twice, positionally and by keyword, and once with
different values.  Frozen records must refuse attribute assignment and
deletion and hash by value (unless a field holds a dict); the Koszul
records that the benchmark tracer follows must stay weak-referenceable.
The sentinels ``INFINITE`` and ``INFEASIBLE`` must stay single objects
through ``copy`` and every pickle protocol.
"""

import copy
import pickle
import weakref
from fractions import Fraction

import pytest

from mgbar import bn, cli, divclass, koszul, psi, tautring

F = Fraction
T = tautring

# (positional, keyword, different, repr, frozen, hashable)
RECORDS = {
    "CommandResult": (
        lambda: cli.CommandResult("bn rho", {"g": 1}, 0, ["x"], "0"),
        lambda: cli.CommandResult(command="bn rho", inputs={"g": 1}, value=0,
                                  provenance=["x"], human="0", json_mode=False),
        lambda: cli.CommandResult("bn rho", {"g": 1}, 0, ["x"], "0", True),
        "CommandResult(command='bn rho', inputs={'g': 1}, value=0, "
        "provenance=['x'], human='0', json_mode=False)",
        False, False,
    ),
    "Command": (
        lambda: cli.Command("bn rho", (), len, ("count-formula",)),
        lambda: cli.Command(name="bn rho", flags=(), compute=len,
                            provenance=("count-formula",), derived=None,
                            human=None),
        lambda: cli.Command("bn rho", (), len, ("count-formula",), human=str),
        "Command(name='bn rho', flags=(), compute=<built-in function len>, "
        "provenance=('count-formula',), derived=None, human=None)",
        True, True,
    ),
    "Correlator": (
        lambda: psi.Correlator(1, [1]),
        lambda: psi.Correlator(genus=1, exponents=(1,)),
        lambda: psi.Correlator(0, [0, 0, 0]),
        "Correlator(genus=1, exponents=(1,))",
        True, True,
    ),
    "LinearSeriesData": (
        lambda: bn.LinearSeriesData(2, 1, 2, [0, 1]),
        lambda: bn.LinearSeriesData(g=2, r=1, d=2, vanishing=(0, 1)),
        lambda: bn.LinearSeriesData(2, 1, 2),
        "LinearSeriesData(g=2, r=1, d=2, vanishing=(0, 1))",
        True, True,
    ),
    "TreeCurve": (
        lambda: bn.TreeCurve((1, 2), [(1, 0)]),
        lambda: bn.TreeCurve(component_genera=(1, 2), edges=((0, 1),)),
        lambda: bn.TreeCurve((2, 1), [(0, 1)]),
        "TreeCurve(component_genera=(1, 2), edges=((0, 1),))",
        True, True,
    ),
    "FormalBundle": (
        lambda: bn.FormalBundle(2, 3, 4),
        lambda: bn.FormalBundle(rank=2, degree=3, ambient_genus=4),
        lambda: bn.FormalBundle(2, 3, 5),
        "FormalBundle(rank=2, degree=3, ambient_genus=4)",
        True, True,
    ),
    "SeveriReport": (
        lambda: bn.SeveriReport(1, 2, 3, True),
        lambda: bn.SeveriReport(d_min=1, delta=2, dim_U=3, feasible=True),
        lambda: bn.SeveriReport(1, 2, 3, False),
        "SeveriReport(d_min=1, delta=2, dim_U=3, feasible=True)",
        True, True,
    ),
    "LiaisonResult": (
        lambda: bn.LiaisonResult(1, 2, 3, 4),
        lambda: bn.LiaisonResult(f=1, d_res=2, g_res=3, intersections=4),
        lambda: bn.LiaisonResult(1, 2, 3, 5),
        "LiaisonResult(f=1, d_res=2, g_res=3, intersections=4)",
        True, True,
    ),
    "PushforwardTable": (
        lambda: T.PushforwardTable({(0, 0, 0): F(1, 2)}),
        lambda: T.PushforwardTable(entries={(0, 0, 0): F(1, 2)}),
        lambda: T.PushforwardTable({(0, 0, 0): F(1, 3)}),
        "PushforwardTable(entries={(0, 0, 0): Fraction(1, 2)})",
        True, False,
    ),
    "KernelPoly": (
        lambda: T.KernelPoly(T.ZERO, T.ETA),
        lambda: T.KernelPoly(linear=T.ETA),
        lambda: T.KernelPoly(),
        "KernelPoly(const=RingElement(0), linear=RingElement(eta), "
        "square=RingElement(0))",
        True, True,
    ),
    "ChernData": (
        lambda: T.ChernData(1, T.THETA, T.THETA * T.THETA),
        lambda: T.ChernData(rank=1, c1=T.THETA, c2=T.THETA * T.THETA),
        lambda: T.ChernData(2, T.THETA, T.THETA * T.THETA),
        "ChernData(rank=1, c1=RingElement(theta), c2=RingElement(theta^2))",
        True, True,
    ),
    "GradedModule": (
        lambda: koszul.GradedModule(1, [1, 1], [[[[1]]]]),
        lambda: koszul.GradedModule(base_dim=1, piece_dims=(1, 1),
                                    mult=((((F(1),),),),)),
        lambda: koszul.GradedModule(1, [1, 1], [[[[2]]]]),
        "GradedModule(base_dim=1, piece_dims=(1, 1), "
        "mult=((((Fraction(1, 1),),),),))",
        True, True,
    ),
    "KoszulStrand": (
        lambda: koszul.KoszulStrand(1, 2, 3, 1, 2),
        lambda: koszul.KoszulStrand(i=1, j=2, kernel_dim=3, image_dim=1,
                                    k_dim=2),
        lambda: koszul.KoszulStrand(1, 2, 3, 0, 3),
        "KoszulStrand(i=1, j=2, kernel_dim=3, image_dim=1, k_dim=2)",
        True, True,
    ),
    "SparseMatrix": (
        lambda: koszul.SparseMatrix(2, 2, {(0, 1): F(2), (1, 1): 0}),
        lambda: koszul.SparseMatrix(nrows=2, ncols=2, entries={(0, 1): 2}),
        lambda: koszul.SparseMatrix(2, 3, {(0, 1): 2}),
        "SparseMatrix(nrows=2, ncols=2, entries={(0, 1): 2})",
        True, False,
    ),
    "DivisorClass": (
        lambda: divclass.DivisorClass(4, 1, (0, 0, 1), {2}),
        lambda: divclass.DivisorClass(
            genus=4, lambda_coeff=F(1), delta_coeffs=[F(0), F(0), F(1)],
            lower_bound_deltas=frozenset({2})),
        lambda: divclass.DivisorClass(4, 1, (0, 0, 1)),
        "DivisorClass(genus=4, lambda_coeff=Fraction(1, 1), delta_coeffs="
        "(Fraction(0, 1), Fraction(0, 1), Fraction(1, 1)), "
        "lower_bound_deltas=frozenset({2}))",
        True, True,
    ),
    "CurveNumbers": (
        lambda: divclass.CurveNumbers(2, 1, [2, F(1, 3)]),
        lambda: divclass.CurveNumbers(genus=2, lambda_pairing=F(1),
                                      delta_pairings=(F(2), F(1, 3))),
        lambda: divclass.CurveNumbers(2, 0, [2, F(1, 3)]),
        "CurveNumbers(genus=2, lambda_pairing=Fraction(1, 1), "
        "delta_pairings=(Fraction(2, 1), Fraction(1, 3)))",
        True, True,
    ),
}

NAMES = sorted(RECORDS)
FROZEN = [name for name in NAMES if RECORDS[name][4]]


@pytest.mark.parametrize("name", NAMES)
def test_positional_and_keyword_forms_agree(name):
    positional, keyword, different, text, _, _ = RECORDS[name]
    assert positional() == keyword()
    assert not positional() != keyword()
    assert positional() != different()
    assert positional() != object()
    assert repr(positional()) == repr(keyword()) == text


@pytest.mark.parametrize("name", NAMES)
def test_hash_follows_equality(name):
    positional, keyword, _, _, _, hashable = RECORDS[name]
    if hashable:
        assert hash(positional()) == hash(keyword())
        assert len({positional(), keyword()}) == 1
    else:
        with pytest.raises(TypeError):
            hash(positional())


@pytest.mark.parametrize("name", FROZEN)
def test_frozen_records_are_read_only(name):
    record = RECORDS[name][0]()
    field = repr(record).split("(", 1)[1].split("=", 1)[0]
    before = repr(record)
    with pytest.raises(AttributeError):
        setattr(record, field, 0)
    with pytest.raises(AttributeError):
        record.no_such_field = 0
    assert repr(record) == before


@pytest.mark.parametrize("name", FROZEN)
def test_frozen_records_refuse_attribute_deletion(name):
    record = RECORDS[name][0]()
    field = repr(record).split("(", 1)[1].split("=", 1)[0]
    before = repr(record)
    with pytest.raises(AttributeError):
        delattr(record, field)
    with pytest.raises(AttributeError):
        del record.no_such_field
    assert repr(record) == before
    if RECORDS[name][5]:
        assert hash(record) == hash(RECORDS[name][1]())


def test_command_result_fields_read_back():
    result = RECORDS["CommandResult"][0]()
    assert (result.command, result.inputs, result.value, result.provenance,
            result.human, result.json_mode) == (
        "bn rho", {"g": 1}, 0, ["x"], "0", False)
    assert result.to_dict() == {"command": "bn rho", "inputs": {"g": 1},
                                "value": 0, "provenance": ["x"]}


def test_defaults():
    command = cli.Command("a b", (), len, [])
    assert command.derived is None and command.human is None
    assert bn.LinearSeriesData(1, 0, 0).vanishing is None
    poly = T.KernelPoly()
    assert (poly.const, poly.linear, poly.square) == (T.ZERO,) * 3
    assert divclass.DivisorClass(3, 4, (-1, 0)).lower_bound_deltas == frozenset()


def test_fields_are_normalised():
    assert psi.Correlator(2, [3, 0, 1]).exponents == (0, 1, 3)
    assert bn.LinearSeriesData(2, 1, 2, [0, 1]).vanishing == (0, 1)
    assert bn.TreeCurve((1, 2, 0), [(1, 0), (2, 1)]).edges == ((0, 1), (1, 2))
    curve = bn.TreeCurve([1, 1], [(0, 1)])
    assert curve.component_genera == (1, 1)
    assert curve == bn.TreeCurve((1, 1), [(0, 1)])
    assert hash(curve) == hash(bn.TreeCurve((1, 1), [(0, 1)]))
    module = koszul.GradedModule(1, [1, 1], [[[[1]]]])
    assert module.piece_dims == (1, 1)
    assert module.mult == ((((F(1),),),),)
    matrix = koszul.SparseMatrix(2, 2, {(0, 1): F(2), (1, 1): 0, (0, 0): F(1, 2)})
    assert matrix.entries == {(0, 1): 2, (0, 0): F(1, 2)}
    assert type(matrix.entries[0, 1]) is int
    cls = divclass.DivisorClass(3, 4, [-1, 0], [1])
    assert cls.lambda_coeff == F(4) and type(cls.lambda_coeff) is F
    assert cls.delta_coeffs == (F(-1), F(0))
    assert all(type(c) is F for c in cls.delta_coeffs)
    assert cls.lower_bound_deltas == frozenset({1})
    numbers = divclass.CurveNumbers(2, 1, [2, 3])
    assert type(numbers.lambda_pairing) is F
    assert all(type(c) is F for c in numbers.delta_pairings)


@pytest.mark.parametrize("build, error, message", [
    (lambda: psi.Correlator(-1, [1]), ValueError, "genus must be nonnegative"),
    (lambda: psi.Correlator(1, [-1]), ValueError, "exponents must be nonnegative"),
    (lambda: psi.Correlator(0, [1, 1]), ValueError,
     "unstable correlator: genus 0 with 2 insertions"),
    (lambda: bn.LinearSeriesData(-1, 0, 0), ValueError,
     "g, r, d must be nonnegative"),
    (lambda: bn.LinearSeriesData(4, 2, 6, (0, 1)), ValueError,
     "vanishing sequence needs 3 entries, got 2"),
    (lambda: bn.LinearSeriesData(4, 2, 6, (0, 2, 2)), ValueError,
     "vanishing sequence must be strictly increasing"),
    (lambda: bn.LinearSeriesData(4, 1, 4, (0, 5)), ValueError,
     "vanishing orders must lie in [0, d]"),
    # Sizes and orders are ints that are no bools; none is rounded.
    (lambda: bn.LinearSeriesData(4, 1, 4, (0.9, 3.7)), TypeError,
     "expected an integer, got float"),
    (lambda: bn.LinearSeriesData(4, 1, 4, (False, True)), TypeError,
     "expected an integer, got bool"),
    (lambda: bn.LinearSeriesData(4, 1, 4, ("0", "3")), TypeError,
     "expected an integer, got str"),
    (lambda: bn.LinearSeriesData(4.5, 1.2, 4), TypeError,
     "expected an integer, got float"),
    (lambda: bn.limit_series_compatible(
        bn.TreeCurve((1, 1), ((0, 1),)), [bn.LinearSeriesData(1, 1, 4)] * 2,
        {(0, 1): (0, 4.0), (1, 0): (0, 4)}), TypeError,
     "expected an integer, got float"),
    (lambda: bn.TreeCurve((), ()), ValueError, "need at least one component"),
    (lambda: bn.TreeCurve((1, -1), ((0, 1),)), ValueError,
     "component genera must be nonnegative"),
    (lambda: bn.TreeCurve((1, 1), ()), ValueError,
     "a tree on n components has n - 1 edges"),
    (lambda: bn.TreeCurve((1, 1), ((0, 2),)), ValueError, "bad edge (0, 2)"),
    (lambda: bn.TreeCurve((1, 1, 1), ((0, 1), (1, 0))), ValueError,
     "edges contain a cycle"),
    (lambda: bn.FormalBundle(0, 1, 1), ValueError, "rank must be at least 1"),
    (lambda: bn.FormalBundle(1, 1, -1), ValueError, "genus must be nonnegative"),
    (lambda: T.ChernData(-1, T.THETA, T.THETA * T.THETA), ValueError,
     "rank must be nonnegative"),
    (lambda: T.ChernData(1, T.THETA * T.THETA, T.THETA * T.THETA), ValueError,
     "c1 must be homogeneous of degree 1"),
    (lambda: T.ChernData(1, T.THETA, T.THETA), ValueError,
     "c2 must be homogeneous of degree 2"),
    (lambda: koszul.GradedModule(0, [1, 1], []), ValueError,
     "base_dim must be at least 1"),
    (lambda: koszul.GradedModule(1, [1.9, 1], [[[[1]]]]), TypeError,
     "expected an integer, got float"),
    (lambda: koszul.GradedModule(True, [1, 1], [[[[1]]]]), TypeError,
     "expected an integer, got bool"),
    (lambda: koszul.GradedModule(1, [1], []), ValueError,
     "need at least pieces M_0 and M_1"),
    (lambda: koszul.GradedModule(1, [1, -1], [[[[1]]]]), ValueError,
     "piece dimensions must be nonnegative"),
    (lambda: koszul.GradedModule(1, [1, 1], []), ValueError,
     "need 1 multiplication tensors, got 0"),
    (lambda: koszul.GradedModule(1, [1, 1], [[]]), ValueError,
     "mult[0] must have base_dim layers"),
    (lambda: koszul.GradedModule(1, [1, 1], [[[]]]), ValueError,
     "mult[0][0] must have 1 rows"),
    (lambda: koszul.GradedModule(1, [1, 1], [[[[1, 2]]]]), ValueError,
     "mult[0][0] rows must have length 1"),
    (lambda: koszul.GradedModule(1, [1, 1], [[[[0.5]]]]), TypeError, None),
    (lambda: koszul.GradedModule(
        2, [1, 1, 1], [[[[1]], [[0]]], [[[0]], [[1]]]]), ValueError,
     "multiplication tensors do not commute: f_0 f_1 != f_1 f_0 on basis "
     "vector 0 of piece 0"),
    (lambda: koszul.KoszulStrand(0, 0, 3, 1, 1), ValueError,
     "k_dim must equal kernel_dim - image_dim"),
    (lambda: koszul.KoszulStrand(0, 0, 1, 2, -1), ValueError,
     "negative strand dimension"),
    (lambda: koszul.SparseMatrix(2, 2, {(2, 0): 1}), ValueError,
     "entry (2, 0) outside matrix shape"),
    (lambda: divclass.DivisorClass(1, 1, (0,)), ValueError,
     "genus must be at least 2"),
    (lambda: divclass.DivisorClass(3, 1, (0,)), ValueError,
     "genus 3 needs 2 delta coefficients, got 1"),
    (lambda: divclass.DivisorClass(3, 0.5, (0, 0)), TypeError,
     "expected an exact rational, got float"),
    (lambda: divclass.DivisorClass(3, 1, (0.5, 0)), TypeError,
     "expected an exact rational, got float"),
    (lambda: divclass.DivisorClass(3, 1, (0, 0), {2}), ValueError,
     "lower-bound flag outside delta index range"),
    (lambda: divclass.CurveNumbers(2, 1, (0,)), ValueError,
     "genus 2 needs 2 delta pairings"),
    (lambda: divclass.CurveNumbers(2, 0.5, (0, 0)), TypeError,
     "expected an exact rational, got float"),
    # bool is an int subclass, but True is no coefficient.
    (lambda: divclass.DivisorClass(2, True, (1, 0)), TypeError,
     "expected an exact rational, got bool"),
    (lambda: divclass.DivisorClass(2, 1, (1, False)), TypeError,
     "expected an exact rational, got bool"),
    (lambda: divclass.CurveNumbers(2, True, (1, 1)), TypeError,
     "expected an exact rational, got bool"),
    (lambda: divclass.CurveNumbers(2, 1, (False, 1)), TypeError,
     "expected an exact rational, got bool"),
    # Ring coefficients pass the same check: no float, bool or text.
    (lambda: T.RingElement({(0, 0, 1, 0, 0, 0): 0.5}), TypeError,
     "expected an exact rational, got float"),
    (lambda: T.RingElement({(0, 0, 1, 0, 0, 0): True}), TypeError,
     "expected an exact rational, got bool"),
    (lambda: T.RingElement([((0, 0, 1, 0, 0, 0), "1/0")]), TypeError,
     "expected an exact rational, got str"),
    # An integer that is a float or a bool never reaches a record or a
    # result, where it would print as 2.0 or act as 1.
    (lambda: divclass.DivisorClass(4, 1, (-1, -1, -1), {2.0}), TypeError,
     "expected an integer, got float"),
    (lambda: bn.TreeCurve((1.5, 2), ((0, 1),)), TypeError,
     "expected an integer, got float"),
    (lambda: bn.FormalBundle(2, 3, 1.5), TypeError,
     "expected an integer, got float"),
    (lambda: koszul.koszul_cohomology(koszul.veronese_module(3, 3), True, 1),
     TypeError, "expected an integer, got bool"),
    (lambda: divclass.lambda_chern_n(4, True), TypeError,
     "expected an integer, got bool"),
    (lambda: divclass.koszul_odd_class(True), TypeError,
     "expected an integer, got bool"),
    (lambda: koszul.monomial_quotient_module(2, 2, [(1.0, 1)]), TypeError,
     "expected an integer, got float"),
    # Ring exponents and ranks pass the same integer check.
    (lambda: T.RingElement({(0, 0, 3.0, 0, 0, 0): 1}), TypeError,
     "expected an integer, got float"),
    (lambda: T.RingElement({(0, 0, True, 0, 0, 0): 1}), TypeError,
     "expected an integer, got bool"),
    (lambda: T.THETA ** True, TypeError, "expected an integer, got bool"),
    (lambda: T.THETA ** -1, ValueError, "exponent must be a nonnegative integer"),
    (lambda: T.ChernData(6.0, T.C1, T.C2), TypeError,
     "expected an integer, got float"),
])
def test_validation_messages(build, error, message):
    with pytest.raises(error) as info:
        build()
    if message is not None:
        assert str(info.value) == message


def test_traced_records_are_weak_referenceable():
    matrix = RECORDS["SparseMatrix"][0]()
    module = RECORDS["GradedModule"][0]()
    assert weakref.ref(matrix)() is matrix
    assert weakref.ref(module)() is module


@pytest.mark.parametrize("sentinel", [divclass.INFINITE, bn.INFEASIBLE],
                         ids=repr)
def test_sentinels_survive_copy_and_pickle(sentinel):
    assert copy.copy(sentinel) is sentinel
    assert copy.deepcopy(sentinel) is sentinel
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        assert pickle.loads(pickle.dumps(sentinel, protocol)) is sentinel


def test_unpickled_infinite_encodes_as_infinite():
    # Protocols 0 and 1 rebuild an object through object.__new__ unless
    # its __reduce__ names it.
    copied = pickle.loads(pickle.dumps(divclass.INFINITE, 0))
    assert cli._encode(copied) == ("infinite", "infinite")
