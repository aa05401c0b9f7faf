"""Self-test of the benchmark, at a tiny size (a few seconds).

    python3 perfbench/selftest.py

Checks that
1. untraced and traced runs of every workload are correct and emit every
   metric of BENCHMARK.json with its unit;
2. a deliberately corrupted answer is caught: with ``psi.correlator_value``
   or ``koszul.betti_table`` perturbed by a wrapper, or with the psi
   recursion dropping its genus-1 split terms, the fail ratio of the
   affected workload rises above 0, while the unperturbed program scores 0;
3. the same seed gives the same inputs, and a second seed gives different
   inputs of the same shape;
4. the oracle's own correlator recursion reproduces the closed forms and
   a few classical values.
Exits 0 if every check passes.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction

import oracles
import run
import worker
import workloads

sys.path.insert(0, str(run.ROOT / "src"))


def check_metrics() -> list[str]:
    problems = []
    for trace in (False, True):
        units = run.metric_units(trace)
        for name in workloads.WORKLOADS:
            result = run.measure(name, 1, 0.0, trace, tiny=True)
            final = json.loads(json.dumps(run.result_object(result, units)))
            if not final["correct"] or final["failed"]:
                problems.append(f"{name} trace={trace}: {result['report']}")
            for metric, unit in units.items():
                got = final["metrics"].get(metric, {})
                if got.get("unit") != unit or not isinstance(got.get("value"), (int, float)):
                    problems.append(f"{name} trace={trace}: {metric} emitted as {got}")
    return problems


def fail_ratio(jobs: list[dict]) -> float:
    """Share of jobs whose in-process answer the oracles reject."""
    results, _, _ = worker.run(jobs, "base")
    bad = sum(1 for job, res in zip(jobs, results)
              if res["error"] or oracles.check(job, res["out"]))
    return bad / len(jobs)


def check_corruption() -> list[str]:
    from mgbar import koszul, psi

    def perturb_correlator(original):
        return lambda c: original(c) + Fraction(1, 10**9)

    def drop_genus1_splits(original):
        # The genus-6 correlators reach genus-1 correlators with three or
        # more insertions only through split and genus-lowering terms of
        # the recursion; reading them as 0 drops those terms, while every
        # answer still obeys the string and dilaton equations.  Only the
        # correlator jobs are scored, so their own check must catch it.
        def value(g, exps):
            return Fraction(0) if g == 1 and len(exps) >= 3 else original(g, exps)
        return value

    def perturb_table(original):
        def table(*args, **kwargs):
            rows = original(*args, **kwargs)
            rows[-1][-1] += 1
            return rows
        return table

    problems = []
    for workload, kinds, owner, attr, perturb in (
        ("psi_sweep", None, psi, "correlator_value", perturb_correlator),
        ("psi_sweep", ("corr",), psi, "_value", drop_genus1_splits),
        ("koszul_monomial", None, koszul, "betti_table", perturb_table),
    ):
        jobs = [job for job in workloads.build(workload, 1, tiny=True)
                if kinds is None or job["kind"] in kinds]
        clean = fail_ratio(jobs)
        original = getattr(owner, attr)
        setattr(owner, attr, perturb(original))
        psi._memo.clear()  # so that no clean value is reused
        try:
            corrupted = fail_ratio(jobs)
        finally:
            setattr(owner, attr, original)
            psi._memo.clear()  # so that no corrupted value is kept
        if clean != 0 or corrupted <= 0:
            problems.append(f"{workload} with {attr} perturbed: fail_ratio "
                            f"{clean} clean, {corrupted} corrupted")
    return problems


def shape(job: dict) -> tuple:
    kind = job["kind"]
    if kind == "corr":
        return kind, job["g"], len(job["a"])
    if kind == "closed":
        return kind, job["g"] == 0
    if kind == "betti":
        spec = job["spec"]
        pieces = tuple(json.loads(job["module"])["pieces"])
        return kind, spec["family"], spec["size"], job["modular"], pieces
    if kind == "cli":
        return kind, job["argv"][0], job["argv"][1]
    return kind, job["g"]


def check_seeds() -> list[str]:
    problems = []
    for name in workloads.WORKLOADS:
        first, again, second = (workloads.build(name, s) for s in (1, 1, 2))
        if first != again:
            problems.append(f"{name}: seed 1 gave two different job lists")
        if first == second:
            problems.append(f"{name}: seeds 1 and 2 gave the same inputs")
        if sorted(map(shape, first)) != sorted(map(shape, second)):
            problems.append(f"{name}: seeds 1 and 2 gave inputs of different shapes")
    return problems


def check_reference() -> list[str]:
    known = [(g, [3 * g - 2], oracles.one_point(g)) for g in range(1, 7)]
    known += [(0, a, oracles.genus0(a))
              for a in ([0, 0, 0, 1], [0, 0, 0, 0, 2], [0, 0, 1, 1, 0, 0, 2])]
    known += [(1, [1, 1], Fraction(1, 24)), (2, [2, 3], Fraction(29, 5760)),
              (2, [2, 2, 2], Fraction(7, 240))]
    return [f"<{a}>_{g}: reference {oracles.reference_correlator(g, a)} != {want}"
            for g, a, want in known
            if oracles.reference_correlator(g, a) != want]


def main() -> int:
    failed = False
    for check in (check_reference, check_seeds, check_corruption, check_metrics):
        problems = check()
        print(f"{'FAIL' if problems else 'PASS'} {check.__name__}")
        for line in problems:
            print(f"  {line}")
        failed |= bool(problems)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
