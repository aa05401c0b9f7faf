"""mgbar benchmark: one workload, one seed, a fixed measuring time.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the repository root is the parent of this directory.
The benchmark repeats closed-loop runs of the workload, one client and
one fresh worker process per run (see ``worker.py``), until ``--seconds``
would be exceeded, then checks every output against the oracles and
prints a summary followed, on the last line, by one JSON object.

With ``--trace 0`` the runs are untraced and the metrics are the
end-to-end ones of BENCHMARK.json.  With ``--trace 1`` untraced and
traced runs alternate and the metrics are the per-layer ones, including
the ratio of traced to untraced CPU time.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402
import oracles  # noqa: E402
import workloads  # noqa: E402

WORKER_TIMEOUT_S = 150
PROBES = 5          # python -c starts per cli.interp_s / cli.import_s value


class BenchError(RuntimeError):
    """The program could not be run at all."""


def environment() -> dict:
    """What the numbers depend on, read without changing anything."""
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
        with open("/proc/loadavg", encoding="utf-8") as handle:
            loadavg = [float(x) for x in handle.read().split()[:3]]
    except OSError:
        loadavg = None
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "loadavg": loadavg,
        "commit": git_commit(),
    }


def git_commit() -> str | None:
    """The checked-out commit, or ``None`` outside a git repository."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _worker_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(ROOT / "src"))


def write_jobs(jobs: list[dict], tmp: str) -> str:
    """Write the job list, and the files that cli jobs carry, into
    ``tmp``; returns the path of the job list."""
    jobs = [dict(job) for job in jobs]
    for k, job in enumerate(jobs):
        if "file" in job:
            path = os.path.join(tmp, f"job{k}.json")
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(job.pop("file"))
            job["argv"] = [path if a == workloads.FILE_TOKEN else a
                           for a in job["argv"]]
    path = os.path.join(tmp, "jobs.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(jobs, handle)
    return path


def run_worker(jobs_file: str, mode: str) -> dict:
    """One run in a fresh process; adds ``setup_s``, the wall time from
    starting the process until it is ready to run the first job, and
    ``setup_cpu_s``, the CPU time the worker used until then."""
    cmd = [sys.executable, str(HERE / "worker.py"), jobs_file, mode]
    start = time.perf_counter()
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=_worker_env(), text=True,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    timer = threading.Timer(WORKER_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        out, err = proc.communicate()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    word, _, cpu = ready.partition(" ")
    if word != "ready" or proc.returncode != 0:
        raise BenchError(
            f"worker exited with {proc.returncode}: {err.strip()[-2000:]}"
        )
    data = json.loads(out.splitlines()[-1])
    data["setup_s"] = setup_s
    data["setup_cpu_s"] = float(cpu)
    return data


def _child_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def _probe(code: str) -> float:
    """Least CPU time of ``python -c code`` with the program on the path;
    other processes slow a start down, never up.  (Wall time here would
    be rounded to the polling steps of ``subprocess`` waiting with a
    timeout, about 50 ms.)"""
    times = []
    for _ in range(PROBES):
        start = _child_cpu()
        subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=_worker_env(),
                       check=True, stdout=subprocess.DEVNULL, timeout=60)
        times.append(_child_cpu() - start)
    return min(times)


def speed_scale(run: dict) -> float:
    """The factor that turns a run's CPU times into CPU times at the
    reference speed: ``calibrate.NOMINAL_S`` over the median CPU time of
    the reference work done during the run."""
    return calibrate.NOMINAL_S / statistics.median(run["reference_s"])


def job_latencies(runs: list[dict], clock: str = "cpu_ms") -> list[float]:
    """Each job's median latency, in ms, over runs of the same job list;
    ``clock`` is ``"cpu_ms"`` for CPU time at the reference speed or
    ``"ms"`` for wall time as measured."""
    def latency(run: dict, k: int) -> float:
        value = run["jobs"][k][clock]
        return value * speed_scale(run) if clock == "cpu_ms" else value

    return [statistics.median(latency(run, k) for run in runs)
            for k in range(len(runs[0]["jobs"]))]


def measure(workload: str, seed: int, seconds: float, trace: bool,
            tiny: bool = False) -> dict:
    """Runs until ``seconds`` would be exceeded; returns the result
    object plus ``report`` lines for people.

    Latencies are CPU times (an ``mgbar`` process counts with its own
    CPU time), which other processes on the machine inflate far less than
    wall times, scaled to the reference speed of :mod:`calibrate` run by
    run, which removes the drift of the CPU's own speed.  Each job's
    latency is its median over the runs; the percentiles are formed over
    these latencies, and ``cpu_s`` is their sum.  ``setup_s`` is the
    median over the runs' workers of the CPU time each used before its
    first job, scaled alike.  Unscaled and wall-clock figures are printed
    in the report.
    """
    jobs = workloads.build(workload, seed, tiny)
    start = time.perf_counter()
    layers = {"cli.interp_s": 0.0, "cli.import_s": 0.0}
    if trace and workload == "cli_mix":
        interp = _probe("pass")
        layers["cli.interp_s"] = interp
        layers["cli.import_s"] = _probe("import mgbar.cli") - interp
    modes = ["base", "traced"] if trace else ["e2e"]
    runs: dict[str, list[dict]] = {m: [] for m in modes}
    with tempfile.TemporaryDirectory(dir=HERE, prefix=".work-") as tmp:
        jobs_file = write_jobs(jobs, tmp)
        while True:
            t0 = time.perf_counter()
            for mode in modes:
                runs[mode].append(run_worker(jobs_file, mode))
            modes.reverse()  # alternate which side runs first
            now = time.perf_counter()
            if now - start + (now - t0) > seconds:
                break

    attempted = failed = 0
    failures = []
    for mode_runs in runs.values():
        for run in mode_runs:
            for job, res in zip(jobs, run["jobs"], strict=True):
                attempted += 1
                reason = res["error"] or oracles.check(job, res["out"])
                if reason:
                    failed += 1
                    failures.append(f"{job['kind']}: {reason}"[:300])

    report = [f"runs {sum(len(r) for r in runs.values())}  jobs {attempted}"
              f"  failed {failed}  fail_ratio {failed / attempted}"]
    report += [f"fail {line}" for line in failures[:5]]
    if trace:
        traced = [run["layers"] for run in runs["traced"]]
        for name in traced[0]:
            layers[name] = statistics.median(t[name] for t in traced)
        layers["trace.overhead_ratio"] = (
            sum(job_latencies(runs["traced"])) / sum(job_latencies(runs["base"]))
        )
        values = layers
    else:
        e2e = runs["e2e"]
        cpu = sorted(job_latencies(e2e))
        values = {
            "setup_s": statistics.median(r["setup_cpu_s"] * speed_scale(r)
                                         for r in e2e),
            "cpu_s": sum(cpu) / 1000,
            "job_cpu_ms_p50": statistics.median(cpu),
            "job_cpu_ms_p90": statistics.quantiles(cpu, n=10)[-1],
            "ok_ratio": (attempted - failed) / attempted,
            "peak_rss_mb": statistics.median(r["rss_kb"] for r in e2e) / 1024,
        }
        scales = [speed_scale(r) for r in e2e]
        raw = [sum(job["cpu_ms"] for job in r["jobs"]) / 1000 for r in e2e]
        wall = sorted(job_latencies(e2e, "ms"))
        report.append(
            f"job_cpu_ms_p50/p90 over {len(jobs)} jobs, each the median of "
            f"{len(e2e)} runs; setup_s over {len(e2e)} starts"
        )
        report.append(
            f"speed scale per run: median {statistics.median(scales):.4g}, "
            f"range {min(scales):.4g}..{max(scales):.4g}; unscaled CPU per "
            f"run: median {statistics.median(raw):.6g} s"
        )
        report.append(
            f"wall clock: setup median {statistics.median(r['setup_s'] for r in e2e):.6g} s, "
            f"run median {statistics.median(r['wall_s'] for r in e2e):.6g} s, "
            f"median job latencies sum {sum(wall) / 1000:.6g} s, "
            f"p50 {statistics.median(wall):.6g} ms, "
            f"p90 {statistics.quantiles(wall, n=10)[-1]:.6g} ms"
        )
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "values": values,
        "report": report,
    }


def metric_units(trace: bool) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def result_object(result: dict, units: dict[str, str]) -> dict:
    """The last output line: every listed metric with its unit."""
    values = result["values"]
    if set(values) != set(units):
        raise BenchError(f"measured {sorted(values)}, BENCHMARK.json lists "
                         f"{sorted(units)}")
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }


def _terminate(signum, frame):
    # Unwinds through the ``finally`` of ``run_worker``, which kills and
    # waits for the current worker, and removes the temporary directory.
    raise SystemExit(128 + signum)


def main(argv: list[str]) -> int:
    signal.signal(signal.SIGTERM, _terminate)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "mgbar" / "cli.py").is_file():
        print(f"error: no mgbar sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    units = metric_units(bool(args.trace))
    env = environment()
    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
        final = result_object(result, units)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print("env " + json.dumps(env))
    for line in result["report"]:
        print(line)
    for name, unit in units.items():
        print(f"{name:24} {result['values'][name]:.6g} {unit}")
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
