"""One run of one workload, in a fresh interpreter.

    python perfbench/worker.py JOBS_FILE MODE

with ``PYTHONPATH`` pointing at ``src``; JOBS_FILE holds the job list as
JSON, written by ``run.py``.  MODE is ``e2e`` (untraced; a
cli job is a ``python -m mgbar.cli`` process), ``base`` (untraced, cli
jobs run in this process through ``cli.main``), ``traced`` (as
``base``, with the layer wrappers of :mod:`tracer` installed).

The worker imports mgbar and reads its inputs, prints ``ready`` and the
CPU seconds it has used so far, runs the jobs one after another, and
prints one JSON line with each job's output, wall and CPU latency, the
run's wall time, its peak resident memory and the CPU times of the
reference work (:mod:`calibrate`) it did before, between and after the
jobs.
mgbar's process-wide caches (the psi memo, the pushforward table, the
genus-22 solution) start empty in every worker and are never cleared.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import subprocess
import sys
import time

from calibrate import reference_cpu_s

CLI_TIMEOUT_S = 120
CALIBRATE_EVERY_S = 0.5   # a job waits for a reference timing once this much wall time has passed
CALIBRATE_ENDS = 2        # reference timings before the first and after the last job


def execute(job: dict, mode: str):
    """Run one job and return its output in JSON-safe form."""
    from mgbar import cli, koszul, psi

    kind = job["kind"]
    if kind == "pand":
        return str(psi.pand_bound(job["g"]))
    if kind == "corr":
        g, a = job["g"], job["a"]
        x = psi.correlator_value(psi.Correlator(g, a))
        y = psi.correlator_value(psi.Correlator(g, [1, *a]))
        return [str(x), str(y)]
    if kind == "closed":
        return str(psi.correlator_value(psi.Correlator(job["g"], job["a"])))
    if kind == "betti":
        module = koszul.module_from_json(job["module"])
        modulus = koszul.DEFAULT_PRIME if job["modular"] else None
        return koszul.betti_table(module, job["max_i"], job["max_j"], modulus)
    if kind == "cli":
        if mode == "e2e":
            proc = subprocess.run(
                [sys.executable, "-m", "mgbar.cli", *job["argv"]],
                capture_output=True, text=True, timeout=CLI_TIMEOUT_S,
            )
            return {"rc": proc.returncode, "stdout": proc.stdout}
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            try:
                rc = cli.main(list(job["argv"]))
            except SystemExit as exc:  # argparse rejected the argv
                rc = exc.code
        return {"rc": rc, "stdout": buffer.getvalue()}
    raise ValueError(f"unknown job kind {kind!r}")


def cpu_seconds() -> float:
    """CPU time of this process and of its waited-for children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def run(jobs: list[dict], mode: str) -> tuple[list[dict], float, list[float]]:
    """Each job's output (or error), wall latency ``ms`` and CPU latency
    ``cpu_ms`` (an ``mgbar`` process counts with its CPU time), the total
    wall time of the jobs, and the CPU times of the reference work done
    before the first job, between jobs once ``CALIBRATE_EVERY_S`` has
    passed, and after the last job."""
    reference_cpu_s()  # warm-up, not counted
    reference = [reference_cpu_s() for _ in range(CALIBRATE_ENDS)]
    results = []
    wall = 0.0
    last = time.perf_counter()
    for job in jobs:
        if time.perf_counter() - last > CALIBRATE_EVERY_S:
            reference.append(reference_cpu_s())
            last = time.perf_counter()
        c0, t0 = cpu_seconds(), time.perf_counter()
        try:
            out, error = execute(job, mode), None
        except Exception as exc:  # a failed job is counted, not fatal
            out, error = None, f"{type(exc).__name__}: {exc}"
        ms = (time.perf_counter() - t0) * 1000.0
        cpu_ms = (cpu_seconds() - c0) * 1000.0
        wall += ms / 1000.0
        results.append({"ms": ms, "cpu_ms": cpu_ms, "out": out, "error": error})
    reference += [reference_cpu_s() for _ in range(CALIBRATE_ENDS)]
    return results, wall, reference


def main(argv: list[str]) -> int:
    jobs_file, mode = argv
    if mode not in ("e2e", "base", "traced"):
        raise SystemExit(f"unknown mode {mode!r}")
    import mgbar.cli  # noqa: F401  (importing the program is part of set-up)

    with open(jobs_file, encoding="utf-8") as handle:
        jobs = json.load(handle)
    tracer = None
    if mode == "traced":
        from tracer import Tracer, install

        tracer = Tracer()
        install(tracer)
    print(f"ready {cpu_seconds()!r}", flush=True)
    results, wall, reference = run(jobs, mode)
    children = mode == "e2e" and any(job["kind"] == "cli" for job in jobs)
    usage = resource.getrusage(
        resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    )
    print(json.dumps({
        "wall_s": wall,
        "jobs": results,
        "rss_kb": usage.ru_maxrss,
        "reference_s": reference,
        "layers": tracer.layer_metrics() if tracer else None,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
