"""Command-line front end for the exact moduli-space calculators.

Every subcommand prints a deterministic, exact result: rationals are
rendered in lowest terms as ``p/q`` (never floats), ``--json`` switches
to a machine-readable record with the command, its inputs, the value,
and neutral provenance identifiers, and ``--tolerance`` only adds a
decimal rendering alongside the exact value.

Flags may be spelled either ``--g 22`` or ``g=22``; the second form is
rewritten to the first before parsing.

Each subcommand is one row of :data:`COMMANDS`, from which the parser,
the dispatch and the JSON record are generated; a layer's named result
encodes through its ``_text``, a record through its ``to_json_dict``.

A process is short, so it loads only what its command runs.  Importing
this module loads ``mgbar.psi`` and ``mgbar.koszul`` with the package
(deferring them would move their load into the first library call) and
reaches the other layers as ``mgbar.<layer>`` when a command first uses
them.  ``json`` loads only for ``--json`` output and Koszul module
input, no process loads ``hashlib`` or OpenSSL (the pushforward-table
checksum uses CPython's builtin SHA-256), and no module uses
``dataclasses``.  There is one parser tree, whose group and
subcommand parsers are built when argparse first uses them, so any argv
builds at most four parsers; each words an invalid choice the same way
on every supported Python.
"""

from __future__ import annotations

import argparse
import re
import sys
from fractions import Fraction
from typing import Callable, NamedTuple

import mgbar

from . import __version__, _rational, koszul, psi

__all__ = ["COMMANDS", "Command", "CommandResult", "run", "main"]


class CommandResult(NamedTuple):
    """What a subcommand produced, in JSON-safe form."""

    command: str
    inputs: dict
    value: object
    provenance: list
    human: str
    json_mode: bool = False

    def to_dict(self) -> dict:
        keys = ("command", "inputs", "value", "provenance")
        return {key: getattr(self, key) for key in keys}


def _decimal(value: Fraction, tolerance: Fraction) -> str:
    digits = 1
    while Fraction(1, 10**digits) > tolerance and digits < 50:
        digits += 1
    scaled = value * 10**digits
    whole = scaled.numerator // scaled.denominator
    if 2 * (scaled - whole) >= 1:
        whole += 1
    sign = "-" if whole < 0 else ""
    head, tail = divmod(abs(whole), 10**digits)
    return f"{sign}{head}.{str(tail).zfill(digits)}"


def _encode(value, tolerance: Fraction | None = None) -> tuple:
    """A raw result as ``(JSON value, human text)``, by its type.

    Integers stay integers and other rationals become ``p/q`` strings;
    ``tolerance`` only appends a decimal to the human text of a
    non-integer rational, never to the JSON value.  A layer's named
    result encodes as its ``_text``, a record as its ``to_json_dict()``
    and ``str()``, and dicts and named tuples as ``k=v ...``.
    """
    if isinstance(value, bool):
        return value, "true" if value else "false"
    if isinstance(value, (int, Fraction)):
        exact = Fraction(value)
        if exact.denominator == 1:
            return int(exact), str(exact)
        if tolerance is None:
            return str(exact), str(exact)
        return str(exact), f"{exact} ({_decimal(exact, tolerance)})"
    if isinstance(value, mgbar._Named):
        return value._text, value._text
    if hasattr(value, "to_json_dict"):
        return value.to_json_dict(), str(value)
    if isinstance(value, tuple) and hasattr(value, "_asdict"):
        value = value._asdict()
    if isinstance(value, dict):
        fields = {key: _encode(item) for key, item in value.items()}
        return (
            {key: encoded for key, (encoded, _) in fields.items()},
            " ".join(f"{key}={text}" for key, (_, text) in fields.items()),
        )
    return value, str(value)


def _table_id() -> str:
    return "pushforward-table@" + mgbar.tautring.load_table().checksum()[:12]


# ---------------------------------------------------------------------
# Divisor-class selector shared by slope / k3-check / pair
# ---------------------------------------------------------------------


def _require(args, name: str) -> int:
    value = getattr(args, name)
    if value is None:
        raise ValueError(f"this command needs --{name}")
    return value


def _d22_class(args) -> mgbar.divclass.DivisorClass:
    if args.g not in (None, 22):
        raise ValueError("the genus-22 class only lives at g=22")
    return mgbar.divclass.d22_class()


def _custom_class(args) -> mgbar.divclass.DivisorClass:
    if args.coeffs is None:
        raise ValueError("--class custom needs --coeffs a,b0,b1,...")
    g = _require(args, "g")
    parts = [_rational(x) for x in args.coeffs.split(",")]
    if len(parts) != g // 2 + 2:
        raise ValueError(
            f"genus {g} needs {g // 2 + 2} coefficients "
            "(a followed by b_0..b_{g//2})"
        )
    return mgbar.divclass.DivisorClass(g, parts[0], tuple(-b for b in parts[1:]))


_CLASSES = {
    "canonical": lambda a: mgbar.divclass.canonical_coarse(_require(a, "g")),
    "canonical-stack": lambda a: mgbar.divclass.canonical_stack(_require(a, "g")),
    "kappa1": lambda a: mgbar.divclass.kappa1(_require(a, "g")),
    "koszul-odd": lambda a: mgbar.divclass.koszul_odd_class(_require(a, "i")),
    "d22": _d22_class,
    "custom": _custom_class,
}


def _pair(args):
    cls = _CLASSES[args.klass](args)
    curve = mgbar.divclass.test_curve(args.curve, cls.genus)
    return mgbar.divclass.pair(curve, cls)


def _exponents(args) -> tuple[int, ...]:
    return tuple(int(x) for x in args.a.split(","))


# The check builds vanishing sequences of length g.
_MAX_LIMIT_GENUS = 10_000


def _limit_check(args) -> bool:
    g = args.g
    if g < 2:
        raise ValueError("the canonical limit-series check needs g >= 2")
    if g > _MAX_LIMIT_GENUS:
        raise ValueError(
            f"the canonical limit-series check needs g <= {_MAX_LIMIT_GENUS}"
        )
    # The canonical series on a genus g-1 component meeting an elliptic
    # tail, with complementary vanishing orders at the node.
    bn = mgbar.bn
    aspects = [
        bn.LinearSeriesData(g - 1, g - 1, 2 * g - 2, (0, *range(2, g + 1))),
        bn.LinearSeriesData(
            1, g - 1, 2 * g - 2, (*range(g - 2, 2 * g - 3), 2 * g - 2)
        ),
    ]
    curve = bn.TreeCurve((g - 1, 1), ((0, 1),))
    return bn.limit_series_compatible(curve, aspects)


def _integrate(args):
    element = mgbar.tautring.element_from_string(args.expr)
    if args.over == "C":
        return str(mgbar.tautring.integrate_over_C(element))
    return mgbar.tautring.integrate_over_W(element)


def _d22_solve(args) -> dict:
    a, b0, b1 = mgbar.tautring.solve_d22()
    return {"a": a, "b0": b0, "b1": b1, "slope": Fraction(a, b0)}


def _table_verify(args) -> dict:
    table = mgbar.tautring.load_table()
    table.verify()
    return {"ok": True, "checksum": table.checksum()}


def _load_module(path: str) -> koszul.GradedModule:
    with open(path, "r", encoding="utf-8") as handle:
        return koszul.module_from_json(handle.read())


def _betti_text(table, args) -> str:
    width = max(3, *(len(str(x)) for row in table for x in row))
    header = "     " + " ".join(
        f"i={i}".rjust(width) for i in range(args.max_i + 1)
    )
    lines = [header]
    for j, row in enumerate(table):
        lines.append(f"j={j}: " + " ".join(str(x).rjust(width) for x in row))
    return "\n".join(lines)


class Command(NamedTuple):
    """One subcommand.

    ``name`` is ``"group subcommand"``.  ``flags`` holds ``(flag,
    argparse keyword arguments)`` pairs; the values set on the command
    line become the JSON ``inputs`` under the flag's name (``--max-i``
    as ``max_i``).  ``compute`` maps the parsed arguments to a raw
    result, which :func:`_encode` turns into the JSON value and the
    human text.  ``provenance`` is a list, or a function of the
    arguments.  ``derived`` adds inputs computed from the arguments, and
    ``human(raw, args)`` replaces the type-driven human text.
    """

    name: str
    flags: tuple
    compute: Callable
    provenance: list | Callable
    derived: Callable | None = None
    human: Callable | None = None


def _ints(*names: str) -> tuple:
    """Required integer flags ``--name``."""
    return tuple(
        (f"--{name}", {"type": int, "required": True}) for name in names
    )


def _text(name: str, **spec) -> tuple:
    """A required string flag ``--name``."""
    return (f"--{name}", {"type": str, "required": True, **spec})


_CLASS_FLAGS = (
    ("--class", {"dest": "klass", "choices": list(_CLASSES), "required": True}),
    ("--g", {"type": int}),
    ("--i", {"type": int}),
    ("--coeffs", {"type": str}),
)


def _table_provenance(*names: str) -> Callable:
    return lambda args: [*names, _table_id()]


COMMANDS = (
    Command("divclass canonical",
            (*_ints("g"), ("--stack", {"action": "store_true"})),
            lambda a: (mgbar.divclass.canonical_stack if a.stack
                       else mgbar.divclass.canonical_coarse)(a.g),
            ["closed-form"]),
    Command("divclass slope", _CLASS_FLAGS,
            lambda a: mgbar.divclass.slope(_CLASSES[a.klass](a)),
            ["slope-definition"]),
    Command("divclass k3-check", _CLASS_FLAGS,
            lambda a: mgbar.divclass.k3_obstruction(_CLASSES[a.klass](a)),
            ["slope-bound", "pencil-pairing"]),
    Command("divclass pair",
            (*_CLASS_FLAGS, _text("curve", choices=["C0", "C1", "R", "B"])),
            _pair, ["test-curve-pairing"]),
    Command("divclass koszul-odd", _ints("i"),
            lambda a: mgbar.divclass.koszul_odd_class(a.i),
            ["test-curve-system", "closed-form"],
            derived=lambda a: {"g": 2 * a.i + 3}),
    Command("divclass koszul-even", _ints("i"),
            lambda a: mgbar.divclass.koszul_even_slope(a.i), ["closed-form"],
            derived=lambda a: {"g": 6 * a.i + 10}),
    Command("divclass gp-slope", _ints("r", "s"),
            lambda a: mgbar.divclass.gieseker_petri_slope(a.r, a.s),
            ["closed-form"]),
    Command("divclass d22", (), lambda a: mgbar.divclass.d22_class(),
            _table_provenance("degeneracy-pipeline")),
    Command("psi eval",
            (*_ints("g"), _text("a", help="comma-separated exponents, e.g. 2,3")),
            lambda a: psi.correlator_value(psi.Correlator(a.g, _exponents(a))),
            ["dvv-recursion"],
            derived=lambda a: {"a": list(_exponents(a))}),
    Command("psi one-point", _ints("g"),
            lambda a: psi.psi_one_point(a.g), ["closed-form"]),
    Command("psi pand-bound", _ints("g"),
            lambda a: psi.pand_bound(a.g), ["dvv-recursion", "closed-form"]),
    Command("bn rho", tuple((x, {"type": int}) for x in ("g", "r", "d")),
            lambda a: mgbar.bn.rho(a.g, a.r, a.d), ["count-formula"]),
    Command("bn liaison", _ints("g", "d", "r"),
            lambda a: mgbar.bn.liaison_solve(a.g, a.d, a.r),
            ["linkage-equations"]),
    Command("bn severi", _ints("g"),
            lambda a: mgbar.bn.severi_analyze(a.g), ["plane-model-count"]),
    Command("bn hilbert-dim", _ints("d", "g", "r"),
            lambda a: mgbar.bn.hilbert_dim(a.d, a.g, a.r), ["count-formula"]),
    Command("bn quadrics", _ints("g", "r", "d"),
            lambda a: mgbar.bn.quadric_count(a.g, a.r, a.d), ["count-formula"]),
    Command("bn limit-check", _ints("g"), _limit_check,
            ["vanishing-compatibility"]),
    Command("taut reduce", (_text("expr"),),
            lambda a: str(mgbar.tautring.element_from_string(a.expr)),
            ["ring-normal-form"]),
    Command("taut integrate",
            (_text("expr"), _text("over", choices=["C", "W"])), _integrate,
            lambda a: ["ring-normal-form"] + (
                [_table_id()] if a.over == "W" else [])),
    Command("taut d22-solve", (), _d22_solve,
            _table_provenance("degeneracy-pipeline")),
    Command("taut table-verify", (), _table_verify, _table_provenance(),
            human=lambda value, a:
            f"pushforward table ok (checksum {value['checksum'][:12]})"),
    Command("koszul betti",
            (_text("input"), *_ints("max-i", "max-j"),
             ("--modulus", {"type": int})),
            lambda a: koszul.betti_table(_load_module(a.input), a.max_i,
                                         a.max_j, a.modulus),
            lambda a: ["exact-linear-algebra"] + (
                [] if a.modulus is None else [f"prime-field@{a.modulus}"]),
            human=_betti_text),
    Command("koszul np", (_text("input"), *_ints("p")),
            lambda a: koszul.green_lazarsfeld_Np(_load_module(a.input), a.p),
            ["exact-linear-algebra"]),
)


# ---------------------------------------------------------------------
# Parser and dispatch, generated from COMMANDS
# ---------------------------------------------------------------------


class _Version(argparse.Action):
    def __init__(self, option_strings, dest, **kwargs):
        super().__init__(option_strings, dest, nargs=0, **kwargs)

    def __call__(self, parser, namespace, values, option_string=None):
        checksum = mgbar.tautring.load_table().checksum()[:12]
        print(f"mgbar {__version__} (pushforward table {checksum})")
        parser.exit(0)


class _Store(argparse.Action):
    """Store one value.  Unlike argparse's own store, refuse the empty
    value of ``--flag=--``: ``[]`` before Python 3.13, ``"--"`` after."""

    def __call__(self, parser, namespace, values, option_string=None):
        if values == [] or values == "--":
            raise argparse.ArgumentError(self, "expected one argument")
        setattr(namespace, self.dest, values)


class _Tolerance(_Store):
    """``--tolerance``: a positive rational."""

    def __call__(self, parser, namespace, values, option_string=None):
        super().__call__(parser, namespace, values, option_string)
        try:
            values = _rational(values)
        except ValueError:
            raise argparse.ArgumentError(
                self, f"invalid Fraction value: {values!r}") from None
        if values <= 0:
            raise argparse.ArgumentError(self, f"must be positive, got {values}")
        setattr(namespace, self.dest, values)


class _Parser(argparse.ArgumentParser):
    """An argparse parser whose invalid-choice message quotes the value and
    the choices on every Python, as 3.10-3.12 do (3.13 quotes neither)."""

    def _check_value(self, action, value):
        if action.choices is not None and value not in action.choices:
            choices = ", ".join(map(repr, action.choices))
            raise argparse.ArgumentError(
                action, f"invalid choice: {value!r} (choose from {choices})")


class _Branch:
    """A group or subcommand parser, built when argparse first uses it.

    ``add_parser(name, build=...)`` makes one with the keyword arguments
    of a :class:`_Parser`.  The first attribute argparse asks of it builds
    that parser and runs ``build`` on it; every attribute then comes from
    the built parser.
    """

    def __init__(self, build: Callable, **kwargs):
        self._build, self._kwargs, self._parser = build, kwargs, None

    def __getattr__(self, name: str):
        if self._parser is None:
            self._parser = _Parser(**self._kwargs)
            self._build(self._parser)
        return getattr(self._parser, name)


def _build_parser() -> argparse.ArgumentParser:
    """The parser of every command.  Usage lines, choices and errors above
    a subcommand need only the names below, so a parse builds the group
    and subcommand parsers it reaches and no others."""
    # SUPPRESS keeps a subcommand's unset flag from clobbering a value
    # parsed before the subcommand; run() fills in the real defaults
    # after parsing.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--json", action="store_true", dest="json_mode",
        default=argparse.SUPPRESS,
        help="emit the full machine-readable record",
    )
    common.add_argument(
        "--tolerance", action=_Tolerance,
        default=argparse.SUPPRESS,
        help="also render scalar results as decimals to this accuracy "
        "(display only; all computation stays exact)",
    )

    def add_command(parser, command):
        parser.set_defaults(command=command)
        for flag, spec in command.flags:
            parser.add_argument(flag, **{"action": _Store, **spec})

    def add_group(parser, group):
        subcommands = parser.add_subparsers(
            dest="subcommand", required=True, parser_class=_Branch)
        for command in COMMANDS:
            if command.name.split()[0] == group:
                subcommands.add_parser(
                    command.name.split()[1], parents=[common],
                    build=lambda p, command=command: add_command(p, command))

    parser = _Parser(
        prog="mgbar",
        description="Exact slope and intersection computations on the "
        "moduli space of stable curves.",
        parents=[common],
    )
    parser.add_argument("--version", action=_Version)
    groups = parser.add_subparsers(
        dest="group", required=True, parser_class=_Branch)
    for group in dict.fromkeys(command.name.split()[0] for command in COMMANDS):
        groups.add_parser(group, build=lambda p, group=group: add_group(p, group))
    return parser


_KEY_VALUE = re.compile(r"[A-Za-z][A-Za-z0-9\-]*=.*", re.DOTALL)


def _rewrite_key_value(argv: list[str]) -> list[str]:
    """Allow ``g=22`` as shorthand for ``--g=22``."""
    return [f"--{token}" if _KEY_VALUE.fullmatch(token) else token
            for token in argv]


def _inputs(command: Command, args) -> dict:
    """The flags set on the command line, then the derived inputs."""
    inputs = {}
    for flag, spec in command.flags:
        key = flag.lstrip("-").replace("-", "_")
        value = getattr(args, spec.get("dest", key))
        if value is not None:
            inputs[key] = value
    if command.derived is not None:
        inputs.update(command.derived(args))
    return inputs


def run(argv: list[str]) -> CommandResult:
    """Parse and execute; raises on domain errors, exits 2 on usage."""
    args = _build_parser().parse_args(_rewrite_key_value(list(argv)))
    command = args.command
    raw = command.compute(args)
    value, human = _encode(raw, getattr(args, "tolerance", None))
    if command.human is not None:
        human = command.human(raw, args)
    provenance = command.provenance
    if callable(provenance):
        provenance = provenance(args)
    return CommandResult(
        command.name,
        _inputs(command, args),
        value,
        list(provenance),
        human,
        bool(getattr(args, "json_mode", False)),
    )


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        result = run(argv)
    except (ValueError, ArithmeticError, RuntimeError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if result.json_mode:
        import json

        print(json.dumps(result.to_dict()))
    else:
        print(result.human)
    return 0


if __name__ == "__main__":
    sys.exit(main())
