"""Run every workload over several seeds and summarise the spread.

    python3 perfbench/suite.py [--seeds 10] [--trace] [--record LABEL]

Each (workload, seed) is one ``run.py`` invocation lasting BENCHMARK.json's
``run_seconds``, run one after another.  For every metric the summary
gives the median over seeds, the quartiles, and the spread (quartile
distance over median) next to the metric's bound from BENCHMARK.json,
flagging a spread above a third of the bound, and then every seed's
value.  Where ``trajectory.json`` has an earlier entry of the same kind,
each bounded metric also gets its ``shift``, the relative change of its
median against that entry; the entry lists as ``unresolved`` every
metric whose spread or shift exceeds its bound.  For two sets of runs of
the same code these are the metrics the benchmark cannot resolve at
their bounds.  ``--record`` appends the summary, with the environment,
to ``trajectory.json``.
"""

from __future__ import annotations

import argparse
import datetime
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

TRAJECTORY = HERE / "trajectory.json"


def invoke(workload: str, seed: int, seconds: int, trace: bool) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed:\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    env = next(json.loads(l[4:]) for l in lines if l.startswith("env "))
    return env, json.loads(lines[-1])


def summarise(values: list[float]) -> dict:
    q1, med, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                   else (values[0],) * 3)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--record", metavar="LABEL")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    metrics = spec["per_layer" if args.trace else "end_to_end"]
    history = json.loads(TRAJECTORY.read_text()) if TRAJECTORY.exists() else []
    previous = next((e for e in reversed(history) if e["trace"] == args.trace),
                    None)
    entry = {"label": args.record, "date": datetime.date.today().isoformat(),
             "trace": args.trace, "seconds": seconds,
             "seeds": list(range(1, args.seeds + 1)), "workloads": {},
             "unresolved": []}
    for workload in workloads.WORKLOADS:
        results = []
        for seed in entry["seeds"]:
            env, result = invoke(workload, seed, seconds, args.trace)
            entry.setdefault("env", env)
            results.append(result)
        attempted = sum(r["attempted"] for r in results)
        failed = sum(r["failed"] for r in results)
        print(f"== {workload}: {len(results)} seeds, {attempted} jobs, "
              f"fail_ratio {failed / attempted}")
        summary = {"attempted": attempted, "failed": failed, "metrics": {}}
        for m in metrics:
            stats = summarise([r["metrics"][m["name"]]["value"] for r in results])
            stats["unit"] = m["unit"]
            summary["metrics"][m["name"]] = stats
            flag = ""
            if "bound" in m:
                flag = f"bound {m['bound']}"
                if stats["spread"] > m["bound"] / 3:
                    flag += "  SPREAD ABOVE A THIRD OF THE BOUND"
                try:
                    before = previous["workloads"][workload]["metrics"][m["name"]]
                    stats["shift"] = stats["median"] / before["median"] - 1
                    flag += f"  shift {stats['shift']:+.3f}"
                except (TypeError, KeyError, ZeroDivisionError):
                    pass
                if max(stats["spread"], abs(stats.get("shift", 0))) > m["bound"]:
                    entry["unresolved"].append(f"{workload}/{m['name']}")
            print(f"  {m['name']:22} {stats['median']:12.6g} {m['unit']:6}"
                  f" q1 {stats['q1']:.6g} q3 {stats['q3']:.6g}"
                  f" spread {stats['spread']:.3f}  {flag}")
            print("    " + " ".join(f"{v:.4g}" for v in stats["values"]))
        entry["workloads"][workload] = summary
    print("unresolved at their bounds: " + (", ".join(entry["unresolved"]) or "none"))
    if args.record:
        history.append(entry)
        TRAJECTORY.write_text(json.dumps(history, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
