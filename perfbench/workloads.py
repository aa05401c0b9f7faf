"""Seeded inputs for the four benchmark workloads.

Every workload is a list of jobs, each a JSON-safe dict with a ``kind``.
The same ``(workload, seed, tiny)`` always gives the same jobs; the seed
changes the inputs but never their shape, so runs on different seeds
cost about the same.  Nothing here imports mgbar: the modules and
expressions handed to the program are built from first principles, and
the expected answers live in :mod:`oracles`.
"""

from __future__ import annotations

import itertools
import json
import random
from fractions import Fraction

WORKLOADS = ("psi_sweep", "koszul_monomial", "koszul_generic", "cli_mix")

# Placeholder in a cli job's argv for the path of the file it carries.
FILE_TOKEN = "@FILE@"


def build(workload: str, seed: int, tiny: bool = False) -> list[dict]:
    """The job list of one run of ``workload``."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    return _BUILDERS[workload](rng, tiny)


# ---------------------------------------------------------------------
# psi_sweep
# ---------------------------------------------------------------------


def _balanced(total: int, n: int) -> list[int]:
    """``n`` exponents summing to ``total``, as even as possible."""
    return [total // n + (1 if k < total % n else 0) for k in range(n)]


def _psi_sweep(rng: random.Random, tiny: bool) -> list[dict]:
    top = 6 if tiny else 20
    jobs = [{"kind": "pand", "g": g} for g in range(2, top + 1)]
    if tiny:
        slots = [(6, 3), (6, 4)]
    else:
        slots = [(g, n) for g in range(6, 15, 2) for n in (3, 4, 5, 6)]
        slots += [(6, 7), (6, 8), (8, 7)]
        slots.sort()
    for g, n in slots:
        # The seed orders the exponents; the program canonicalises them, so
        # every seed does the same recursion work.  A seeded change of the
        # exponents themselves changes the cost of the slots near the median
        # job latency, which then spreads by 0.09 to 0.15 of itself over seeds.
        a = _balanced(3 * g - 3 + n, n)
        rng.shuffle(a)
        jobs.append({"kind": "corr", "g": g, "a": a})
    # Two correlators with closed forms: a one-point integral and a
    # genus-0 n-point integral.
    g = rng.randint(3, 5) if tiny else rng.randint(6, 16)
    jobs.append({"kind": "closed", "g": g, "a": [3 * g - 2]})
    n = rng.randint(5, 6) if tiny else rng.randint(8, 12)
    a = [0] * n
    for _ in range(n - 3):
        a[rng.randrange(n)] += 1
    jobs.append({"kind": "closed", "g": 0, "a": a})
    return jobs


# ---------------------------------------------------------------------
# Koszul modules, built without mgbar
# ---------------------------------------------------------------------


def _monomials(n: int, degree: int) -> list[tuple[int, ...]]:
    out = []
    for combo in itertools.combinations_with_replacement(range(n), degree):
        exp = [0] * n
        for v in combo:
            exp[v] += 1
        out.append(tuple(exp))
    return out


def _monomial_module(n: int, bases: list[list[tuple[int, ...]]]) -> dict:
    """``x_l`` acting on monomial bases; products outside the next basis
    are zero."""
    mult = []
    for j in range(len(bases) - 1):
        index = {mono: w for w, mono in enumerate(bases[j + 1])}
        tensor = []
        for l in range(n):
            layer = [[0] * len(bases[j + 1]) for _ in bases[j]]
            for u, mono in enumerate(bases[j]):
                bumped = list(mono)
                bumped[l] += 1
                w = index.get(tuple(bumped))
                if w is not None:
                    layer[u][w] = 1
            tensor.append(layer)
        mult.append(tensor)
    return {"base_dim": n, "pieces": [len(b) for b in bases], "mult": mult}


def veronese(d: int, top: int) -> dict:
    """Coordinate ring of the rational normal curve of degree ``d``."""
    dims = [d * j + 1 for j in range(top + 1)]
    mult = [
        [
            [[1 if w == u + l else 0 for w in range(dims[j + 1])]
             for u in range(dims[j])]
            for l in range(d + 1)
        ]
        for j in range(top)
    ]
    return {"base_dim": d + 1, "pieces": dims, "mult": mult}


def polynomial_ring(n: int, top: int) -> dict:
    return _monomial_module(n, [_monomials(n, j) for j in range(top + 1)])


def monomial_quotient(n: int, top: int, gens: list[list[int]]) -> dict:
    def in_ideal(mono):
        return any(all(m >= e for m, e in zip(mono, g)) for g in gens)

    bases = [
        [m for m in _monomials(n, j) if not in_ideal(m)] for j in range(top + 1)
    ]
    return _monomial_module(n, bases)


def _disjoint_generators(n: int, pattern, rng: random.Random) -> list[list[int]]:
    """Monomials with pairwise disjoint supports (a regular sequence), one
    per ``(support size, degree)`` in ``pattern``.  The seed picks the
    variables; the degrees fix the Hilbert function, so every seed gives
    modules of the same dimensions."""
    order = list(range(n))
    rng.shuffle(order)
    gens, pos = [], 0
    for size, degree in pattern:
        support = order[pos:pos + size]
        pos += size
        exp = [0] * n
        for v in support:
            exp[v] = 1
        for _ in range(degree - size):
            exp[rng.choice(support)] += 1
        gens.append(exp)
    return gens


def change_coordinates(module: dict, a: list[list[int]]) -> dict:
    """Replace the basis ``f_l`` of V by ``sum_m a[l][m] f_m``.  This is a
    change of basis of V, so every Koszul group keeps its dimension."""
    n = module["base_dim"]
    mult = []
    for tensor in module["mult"]:
        rows, cols = len(tensor[0]), len(tensor[0][0])
        mult.append([
            [[sum(a[l][m] * tensor[m][u][w] for m in range(n) if a[l][m])
              for w in range(cols)] for u in range(rows)]
            for l in range(n)
        ])
    return dict(module, mult=mult)


def signed_permutation(n: int, rng: random.Random) -> list[list[int]]:
    """A seeded signed permutation: keeps entries in {-1, 0, 1} and keeps
    the monomial structure of the matrices."""
    perm = list(range(n))
    rng.shuffle(perm)
    return [
        [rng.choice((1, -1)) if m == perm[l] else 0 for m in range(n)]
        for l in range(n)
    ]


def mixing(n: int, rng: random.Random) -> list[list[int]]:
    """A seeded change of coordinates of determinant +-1: the new
    coordinate ``l`` is a signed sum of the first ``l + 1`` old ones, taken
    in a seeded order.  Each new coordinate mixes all earlier ones, so the
    matrices stop splitting into components; the fixed pattern keeps the
    cost of a table nearly the same on every seed."""
    perm = list(range(n))
    rng.shuffle(perm)
    signs = [rng.choice((1, -1)) for _ in range(n)]
    rows = []
    for l in range(n):
        row = [0] * n
        for k in range(l + 1):
            row[perm[k]] = signs[k]
        rows.append(row)
    return rows


def module_json(module: dict) -> str:
    """The module as the JSON text ``koszul.module_from_json`` reads."""
    mult = [
        [[[str(x) for x in row] for row in layer] for layer in tensor]
        for tensor in module["mult"]
    ]
    return json.dumps(dict(module, mult=mult))


# Module plans: (family, size, top degree, max_i, max_j[, generator
# pattern]); a pattern lists (support size, degree) per generator.
_TINY_PLAN = [
    ("veronese", 3, 3, 3, 2), ("poly", 3, 3, 3, 2),
    ("quot", 3, 3, 3, 2, ((1, 2), (2, 2))),
]
_QUOTIENTS_5 = [
    ("quot", 5, 4, 5, 3, ((1, 3), (2, 2))),
    ("quot", 5, 4, 5, 3, ((2, 2), (2, 3))),
]
_QUOTIENTS_4 = [
    ("quot", 4, 4, 4, 3, ((1, 2), (2, 2))),
    ("quot", 4, 4, 4, 3, ((1, 3), (2, 3))),
    ("quot", 4, 4, 4, 3, ((2, 2), (1, 2), (1, 3))),
]
_MONOMIAL_PLAN = [
    ("veronese", 3, 4, 3, 3), ("veronese", 4, 4, 4, 3),
    ("veronese", 5, 4, 5, 3), ("veronese", 6, 4, 6, 3),
    ("poly", 4, 4, 4, 3), ("poly", 5, 4, 5, 3),
    ("quot", 5, 4, 5, 3, ((1, 2), (2, 2), (2, 3))),
] + _QUOTIENTS_5 + _QUOTIENTS_4
# In generic coordinates the six-dimensional Veronese alone takes over ten
# seconds, so the generic plan keeps the smaller members of each family.
_GENERIC_PLAN = [
    ("veronese", 3, 4, 3, 3), ("veronese", 4, 4, 4, 3),
    ("veronese", 5, 4, 5, 3), ("poly", 4, 4, 4, 3),
] + _QUOTIENTS_5 + _QUOTIENTS_4


def _betti_jobs(plan, transform, rng: random.Random) -> list[dict]:
    """One Betti-table job per planned module, after the seeded change of
    coordinates ``transform(n, rng)``; ``spec`` names the monomial twin so
    the oracle can give its table in closed form."""
    jobs = []
    for kind, size, top, max_i, max_j, *pattern in plan:
        spec = {"family": kind, "size": size, "max_i": max_i, "max_j": max_j}
        if kind == "veronese":
            module = veronese(size, top)
        elif kind == "poly":
            module = polynomial_ring(size, top)
        else:
            spec["gens"] = _disjoint_generators(size, pattern[0], rng)
            module = monomial_quotient(size, top, spec["gens"])
        module = change_coordinates(module, transform(module["base_dim"], rng))
        jobs.append({
            "kind": "betti",
            "spec": spec,
            "module": module_json(module),
            "max_i": max_i,
            "max_j": max_j,
            "modular": False,
        })
    return jobs


def _koszul_monomial(rng: random.Random, tiny: bool) -> list[dict]:
    return _betti_jobs(_TINY_PLAN if tiny else _MONOMIAL_PLAN,
                       signed_permutation, rng)


def _koszul_generic(rng: random.Random, tiny: bool) -> list[dict]:
    jobs = _betti_jobs(_TINY_PLAN if tiny else _GENERIC_PLAN, mixing, rng)
    size = 3 if tiny else 5
    modular = _betti_jobs([("veronese", size, 3, size, 2)], mixing, rng)[0]
    modular["modular"] = True
    return jobs + [modular]


# ---------------------------------------------------------------------
# cli_mix
# ---------------------------------------------------------------------

_CURVES = ("C0", "C1", "R", "B")


def _expression(rng: random.Random, names: tuple[str, ...], terms: int,
                max_degree: int, min_degree: int = 1) -> tuple[str, list]:
    """A seeded ``+``/``-``/``*``/``^`` expression and its terms as
    ``(coefficient, {generator: exponent})``."""
    degrees = {"eta": 1, "gamma": 1, "theta": 1, "c1": 1, "c2": 2, "c3": 3}
    text, parsed = [], []
    for t in range(terms):
        target = rng.randint(min_degree, max_degree)
        powers: dict[str, int] = {}
        degree = 0
        while degree < target:
            name = rng.choice(names)
            if degree + degrees[name] > target:
                name = next(x for x in names if degrees[x] == 1)
            powers[name] = powers.get(name, 0) + 1
            degree += degrees[name]
        num, den = rng.randint(1, 9), rng.choice((1, 1, 2, 3))
        sign = rng.choice(("+", "-"))
        body = "*".join(
            name if e == 1 else f"{name}^{e}" for name, e in powers.items()
        )
        piece = (f"{num}/{den}" if den != 1 else str(num)) + "*" + body
        if t == 0:
            text.append(piece if sign == "+" else "-" + piece)
        else:
            text.append(f" {sign} {piece}")
        coeff = Fraction(num, den) * (1 if sign == "+" else -1)
        parsed.append((str(coeff), powers))
    return "".join(text), parsed


def _cli_jobs(rng: random.Random) -> list[dict]:
    jobs = []

    def add(argv, **expect):
        jobs.append({"kind": "cli", "argv": argv, "expect": expect})

    i = rng.randint(1, 8)
    add(["divclass", "slope", "--class", "koszul-odd", "--i", str(i)],
        check="slope_threshold", g=2 * i + 3)
    add(["divclass", "slope", "--class", "d22"], check="d22_slope")
    g = rng.randint(4, 40)
    add(["divclass", "slope", "--class", "canonical", "--g", str(g)],
        check="rational", value="13/2")
    curve = rng.choice(_CURVES)
    add(["divclass", "pair", "--class", "d22", "--curve", curve],
        check="d22_pair", curve=curve)
    i = rng.randint(0, 9)
    add(["divclass", "koszul-odd", "--i", str(i)], check="koszul_odd_class", i=i)
    add(["divclass", "d22"], check="d22_class")
    g = rng.randint(10, 40)
    r = rng.randint(1, 6)
    d = rng.randint(g // 2, g + r)
    add(["bn", "rho", str(g), str(r), str(d)], check="rho", g=g, r=r, d=d)
    # Linkage through r - 1 hypersurfaces of degree f = (r+2)/(r-2); the
    # genus is chosen so that the residual genus is a nonnegative integer.
    r = rng.choice((3, 4, 6))
    f = (r + 2) // (r - 2)
    d = rng.randint(8, 20)
    k = (r - 1) * f - r - 1
    g = max(0, rng.randint(0, 10) + k * (2 * d - f ** (r - 1)) // 2)
    add(["bn", "liaison", "--g", str(g), "--d", str(d), "--r", str(r)],
        check="liaison", g=g, d=d, r=r)
    g = rng.randint(3, 60)
    add(["bn", "severi", "--g", str(g)], check="severi", g=g)
    add(["taut", "d22-solve"], check="d22_solve")
    add(["taut", "table-verify"], check="table_verify")
    text, terms = _expression(
        rng, ("eta", "gamma", "theta", "c1", "c2", "c3"), rng.randint(3, 5), 25)
    add(["taut", "reduce", "--expr", text], check="reduce", terms=terms)
    text, terms = _expression(
        rng, ("eta", "gamma", "theta", "c1", "c2"), rng.randint(3, 5), 12)
    add(["taut", "integrate", "--expr", text, "--over", "C"],
        check="integrate_C", terms=terms)
    text, terms = _expression(
        rng, ("theta", "c1", "c2", "c3"), rng.randint(3, 6), 6, min_degree=3)
    add(["taut", "integrate", "--expr", text, "--over", "W"],
        check="integrate_W", terms=terms)
    g = rng.randint(1, 5)
    shape = rng.choice(("one", "string", "dilaton", "double_string", "genus0"))
    if shape == "genus0":
        n = rng.randint(4, 7)
        a = [0] * n
        for _ in range(n - 3):
            a[rng.randrange(n)] += 1
        g = 0
    else:
        a = {"one": [3 * g - 2], "string": [0, 3 * g - 1],
             "dilaton": [1, 3 * g - 2], "double_string": [0, 0, 3 * g]}[shape]
    add(["psi", "eval", "--g", str(g), "--a", ",".join(map(str, a))],
        check="psi_closed", g=g, a=a)
    g = rng.randint(1, 12)
    add(["psi", "one-point", "--g", str(g)], check="one_point", g=g)
    g = rng.randint(2, 8)
    add(["psi", "pand-bound", "--g", str(g)], check="pand", g=g)
    module = change_coordinates(veronese(3, 3), signed_permutation(4, rng))
    jobs.append({
        "kind": "cli",
        "argv": ["koszul", "betti", "--input", FILE_TOKEN, "--max-i", "3",
                 "--max-j", "2"],
        "file": module_json(module),
        "expect": {"check": "betti",
                   "spec": {"family": "veronese", "size": 3, "max_i": 3,
                            "max_j": 2}},
    })
    return jobs


def _cli_mix(rng: random.Random, tiny: bool) -> list[dict]:
    jobs = _cli_jobs(rng)
    if tiny:
        jobs = jobs[::3]
    # Half of the commands, chosen by the seed, ask for --json.
    flags = [True] * (len(jobs) // 2) + [False] * (len(jobs) - len(jobs) // 2)
    rng.shuffle(flags)
    for job, flag in zip(jobs, flags):
        if flag:
            job["argv"] = job["argv"] + ["--json"]
        job["expect"]["json"] = flag
    rng.shuffle(jobs)
    return jobs


_BUILDERS = {
    "psi_sweep": _psi_sweep,
    "koszul_monomial": _koszul_monomial,
    "koszul_generic": _koszul_generic,
    "cli_mix": _cli_mix,
}
