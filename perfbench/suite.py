"""Run the benchmark across workloads and seeds and summarize it.

Usage (from the repository root)::

    python3 perfbench/suite.py                       # every workload, 1 seed
    python3 perfbench/suite.py --seeds 10 --workload readout
    python3 perfbench/suite.py --trace               # add one traced run each
    python3 perfbench/suite.py --seeds 10 --record "<commit>"

Each run is a fresh ``perfbench/run.py`` process.  The summary has one
row per workload and end-to-end metric: the median over seeds, the
quartile spread as a share of the median (``statistics.quantiles``,
n=4) against a third of the metric's bound in ``BENCHMARK.json``, the
workload-only metrics (ISS and campaign throughput, serve latency and
throughput) and the error rate.  With ``--trace`` it adds each
workload's unattributed share of its passes and the tracing overhead:
the traced run's ``wall_ref_s`` minus the untraced median.  ``--record``
appends the medians, with the host's core count and Python and numpy
versions, as a point of ``perfbench/trajectory.json``.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

import run


def one_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(run.HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True,
                          timeout=600, check=False)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"{workload} seed {seed} exited "
                         f"{proc.returncode}")
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    stem = f"{workload}-{seed}-trace{trace}"
    detail = json.loads((run.HERE / "out" / f"result-{stem}.json")
                        .read_text(encoding="utf-8"))
    return {"result": last, **detail}


def spread(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def summarize(workload: str, runs: list[dict], bounds: dict) -> dict:
    """Print one workload's rows; return its medians for the trajectory."""
    point = {}
    print(f"\n{workload}: {len(runs)} run(s)")
    for name, bound in bounds.items():
        values = [r["metrics"][name] for r in runs]
        share = spread(values)
        flag = "ok" if share < bound / 3 else "WIDE"
        point[name] = statistics.median(values)
        print(f"  {name:22s} median {statistics.median(values):12.6g}  "
              f"spread {share:7.2%} (bound/3 {bound / 3:6.2%}) {flag}  "
              f"values " + " ".join(f"{v:.4g}" for v in values))
    extras = {}
    for r in runs:
        for name, entry in r["end_to_end"].items():
            extras.setdefault(name, []).append(entry)
    for name, entries in extras.items():
        values = [e[0] for e in entries]
        point[name] = statistics.median(values)
        note = f" ({entries[0][2]})" if len(entries[0]) > 2 else ""
        print(f"  {name:22s} median {statistics.median(values):12.6g} "
              f"{entries[0][1]}  spread {spread(values):7.2%}{note}")
    attempted = sum(r["result"]["attempted"] for r in runs)
    failed = sum(r["result"]["failed"] for r in runs)
    print(f"  {'error_rate':22s} {failed / attempted:.6g} "
          f"({failed} of {attempted} operations failed)")
    point["error_rate"] = failed / attempted
    return point


def record(label: str, seeds: int, points: dict) -> None:
    import numpy

    path = run.HERE / "trajectory.json"
    history = json.loads(path.read_text(encoding="utf-8")) \
        if path.exists() else []
    history.append({
        "label": label, "seeds": seeds,
        "host": {"nproc": os.cpu_count(),
                 "python": platform.python_version(),
                 "numpy": numpy.__version__},
        "medians": points,
    })
    path.write_text(json.dumps(history, indent=1) + "\n", encoding="utf-8")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append",
                        choices=run.WORKLOADS)
    parser.add_argument("--seeds", type=int, default=1)
    parser.add_argument("--first-seed", type=int, default=0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--record", metavar="LABEL")
    args = parser.parse_args(argv)
    spec = json.loads((run.ROOT / "BENCHMARK.json")
                      .read_text(encoding="utf-8"))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    points = {}
    for workload in args.workload or run.WORKLOADS:
        seeds = range(args.first_seed, args.first_seed + args.seeds)
        runs = [one_run(workload, s, seconds, 0) for s in seeds]
        points[workload] = summarize(workload, runs, bounds)
        if args.trace:
            traced = one_run(workload, args.first_seed, seconds, 1)
            untraced = statistics.median(r["wall_ref_s"] for r in runs)
            layers = traced["metrics"]
            print(f"  traced run: unattributed "
                  f"{layers['trace.unattributed_share']:.3%} of its passes; "
                  f"tracing overhead {traced['wall_ref_s'] - untraced:+.4f} s "
                  f"(traced {traced['wall_ref_s']:.4f} s - untraced median "
                  f"{untraced:.4f} s; span cost estimate "
                  f"{layers['trace.overhead_s']:.2e} s per pass)")
            points[workload].update({
                "unattributed_share": layers["trace.unattributed_share"],
                "tracing_overhead_s": traced["wall_ref_s"] - untraced})
    if args.record:
        record(args.record, args.seeds, points)
    return 0


if __name__ == "__main__":
    sys.exit(main())
