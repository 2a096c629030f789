"""The repository benchmark: one workload, one fresh process, one result.

Usage (from the repository root)::

    python3 perfbench/run.py --workload signoff --seed 1 --seconds 30 --trace 0

Workloads (each a module beside this file): ``signoff`` (analytic cells,
synthesis, STA, power), ``device`` (calibration and the SPICE kernel),
``readout`` (the ISS and SEU campaigns) and ``serve`` (the
classification service under open- and closed-loop load).

A run imports the program from ``src/``, sets the workload up
``SETUP_REPEATS`` times (``setup_s`` is the import time plus the median
set-up), then measures whole passes for ``--seconds`` (at least one;
``wall_ref_s`` is their median) and checks every pass's outputs
against ``perfbench/reference/``.  Both times are at the reference
host's speed: a fixed probe computation interleaved with the work
measures how fast the shared host runs right then (``harness.Meter``).
It prints a human-readable table and, as its last line, one JSON
object: with ``--trace 0`` the end-to-end metrics, with ``--trace 1``
the per-layer metrics from spans the benchmark places around each
layer call (written to ``perfbench/out/``).

The program sees only inputs generated from ``--seed``; the run refuses
to start when a result cache, worker pool or telemetry is switched on
from the environment, so neither can pass for a speed-up.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import harness  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("signoff", "device", "readout", "serve")
VARIANTS = 4
"""Distinct input sets per workload; ``--seed`` picks one (seed mod 4),
so every input has a committed reference."""
SETUP_REPEATS = 5
REFUSED_ENV = ("REPRO_CACHE_DIR", "REPRO_JOBS", "REPRO_EXECUTOR")

LAYER_TIMES = (
    "cells.analytic", "synth.build", "synth.place", "sta.setup", "sta.hold",
    "power.analyze", "device.calibrate", "cells.spice", "spice.grid",
    "spice.transient", "spice.dc", "quantum.dataset", "classify.calibrate",
    "classify.predict", "soc.run", "reliability.campaign",
)
LAYER_COUNTS = (
    "cells.analytic_cells", "cells.analytic_failed", "synth.gates",
    "sta.endpoints", "device.calibrate_evals", "cells.spice_fallback_cells",
    "spice.grid_newton_iters", "spice.transient_newton_iters",
    "spice.dc_calls", "classify.shots", "soc.instructions", "soc.cycles",
    "reliability.injections",
)
SERVE_LAYERS = (
    ("serve.requests", "count"), ("serve.failed", "count"),
    ("serve.rejected", "count"), ("serve.batches", "count"),
    ("serve.batch_shots_mean", "shots"), ("serve.queue_ms_p50", "ms"),
    ("loadgen.late_ms_max", "ms"),
)
WORKLOAD_E2E = (
    ("sim_minstr_per_s", "Minstr/s"), ("injections_per_s", "1/s"),
    ("serve_lat_p50_ms", "ms"), ("serve_lat_tail_ms", "ms"),
    ("serve_shots_per_s", "shots/s"),
)
"""End-to-end metrics that exist on one workload only; printed by every
run that has them and reported with the per-layer metrics."""


def per_layer_units() -> dict[str, str]:
    units = {f"{name}_s": "s" for name in LAYER_TIMES}
    units.update({name: "count" for name in LAYER_COUNTS})
    units.update({"spice.jacobian_reuse_ratio": "ratio",
                  "reliability.hang_share": "ratio"})
    units.update(dict(SERVE_LAYERS))
    units.update(dict(WORKLOAD_E2E))
    units.update({"trace.unattributed_share": "ratio",
                  "trace.overhead_s": "s", "wall_s": "s",
                  "host.probe_ms": "ms"})
    return units


def refuse_environment() -> str | None:
    """Why this environment cannot give a clean measurement, if it can't."""
    for name in REFUSED_ENV:
        if name in os.environ:
            return f"{name} is set; unset it to measure the program itself"
    from repro import telemetry

    if telemetry.enabled():
        return "repro telemetry is enabled"
    return None


def pin_to_one_cpu() -> None:
    """Run every thread of this process on the CPU it started on.

    The host slows each of its CPUs on its own, so the speed probe must
    run where the work runs, and serve's thread hand-offs must not wait
    for a second CPU that is slowed separately.
    """
    if not hasattr(os, "sched_setaffinity"):
        return
    with open("/proc/self/stat", encoding="ascii") as f:
        cpu = int(f.read().rsplit(")", 1)[1].split()[36])
    os.sched_setaffinity(0, {cpu})


def execute(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Set up and measure one workload in this process."""
    module = importlib.import_module(workload)
    import_s = time.perf_counter() - T_START
    meter = harness.Meter()
    tracer = harness.Tracer(trace, meter=meter)
    variant = seed % VARIANTS
    teardown = getattr(module, "teardown", None)

    setup_times = []
    state = {}

    def set_up() -> None:
        with tracer.span("setup"):
            state["inputs"] = module.setup(variant, tracer)

    for i in range(SETUP_REPEATS):
        setup_times.append(meter.timed(set_up)[1])
        if teardown is not None and i < SETUP_REPEATS - 1:
            teardown(state["inputs"])
    inputs = state["inputs"]
    # The imports ran before any probe: scale them by the set-up's probes.
    import_s *= harness.PROBE_REFERENCE_S / statistics.fmean(meter.durations)

    counts = harness.Counts()
    tally = harness.Tally()
    try:
        if hasattr(module, "measure"):
            (pass_times, ref_times), outputs, extras = module.measure(
                inputs, tracer, counts, tally, seconds, meter)
        else:
            outputs = []

            def one_pass() -> None:
                with tracer.span("pass"):
                    outputs.append(
                        module.run_pass(inputs, tracer, counts, tally))

            pass_times, ref_times = harness.run_passes(one_pass, seconds,
                                                       meter)
            extras = {}
    finally:
        if teardown is not None:
            teardown(inputs)
    if hasattr(module, "end_to_end"):
        extras.setdefault("end_to_end", {}).update(module.end_to_end(counts))
    return {
        "variant": variant, "tracer": tracer,
        "setup_s": import_s + harness.median(setup_times),
        "pass_times": pass_times, "ref_times": ref_times,
        "probes": meter.durations, "outputs": outputs, "counts": counts,
        "tally": tally, "extras": extras,
    }


def reference_path(workload: str) -> Path:
    return HERE / "reference" / f"{workload}.json"


def check_outputs(run: dict, workload: str) -> None:
    if not run["outputs"]:
        return
    path = reference_path(workload)
    references = (json.loads(path.read_text(encoding="utf-8"))
                  if path.exists() else {})
    reference = references.get(str(run["variant"]), {})
    for outputs in run["outputs"]:
        harness.compare(outputs, reference, run["tally"])


def layer_metrics(run: dict) -> dict[str, float]:
    tracer = run["tracer"]
    passes = len(run["pass_times"])
    counts = run["counts"].per_pass(passes)
    seconds = harness.layer_seconds(tracer.spans)
    values = {f"{name}_s": seconds.get(name, 0.0) for name in LAYER_TIMES}
    values.update({name: counts.get(name, 0) for name in LAYER_COUNTS})
    iters = counts.get("spice.newton_iters", 0)
    values["spice.jacobian_reuse_ratio"] = (
        counts.get("spice.jacobian_reuses", 0) / iters if iters else 0.0)
    injections = counts.get("reliability.injections", 0)
    values["reliability.hang_share"] = (
        counts.get("reliability.hangs", 0) / injections if injections
        else 0.0)
    layers = run["extras"].get("layers", {})
    values.update({name: layers.get(name, 0) for name, _ in SERVE_LAYERS})
    e2e = run["extras"].get("end_to_end", {})
    values.update({name: e2e[name][0] if name in e2e else 0.0
                   for name, _ in WORKLOAD_E2E})
    values["trace.unattributed_share"] = harness.unattributed_share(
        tracer.spans)
    in_passes = sum(
        1 for i in range(len(tracer.spans))
        if tracer.spans[harness.root_of(tracer.spans, i)].name == "pass")
    values["trace.overhead_s"] = (in_passes / passes
                                  * harness.span_cost_s())
    values["wall_s"] = harness.median(run["pass_times"])
    values["host.probe_ms"] = harness.median(run["probes"]) * 1e3
    return values


def print_report(workload: str, seed: int, run: dict,
                 metrics: dict[str, tuple[float, str]]) -> None:
    tally = run["tally"]
    times = run["pass_times"]
    print(f"workload {workload}  seed {seed} (input set {run['variant']})  "
          f"{len(times)} pass(es): "
          + ", ".join(f"{t:.3f}" for t in times) + " s; at reference "
          "speed " + ", ".join(f"{t:.3f}" for t in run["ref_times"])
          + " s (median host probe "
          f"{harness.median(run['probes']) * 1e3:.2f} ms, reference "
          f"{harness.PROBE_REFERENCE_S * 1e3:.2f} ms)")
    for name, (value, unit) in metrics.items():
        print(f"  {workload:8s} {name:30s} {value:16.6g} {unit}")
    for name, entry in run["extras"].get("end_to_end", {}).items():
        if name in metrics:
            continue
        note = f"  ({entry[2]})" if len(entry) > 2 else ""
        print(f"  {workload:8s} {name:30s} {entry[0]:16.6g} {entry[1]}"
              f"{note}")
    print(f"  {workload:8s} {'error_rate':30s} {tally.error_rate:16.6g} "
          f"ratio  ({tally.failed} of {tally.attempted} operations failed)")
    for note in tally.notes:
        print(f"  FAILED: {note}", file=sys.stderr)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    reason = refuse_environment()
    if reason:
        print(f"perfbench: refusing to run: {reason}", file=sys.stderr)
        return 2

    pin_to_one_cpu()
    run = execute(args.workload, args.seed, args.seconds, bool(args.trace))
    check_outputs(run, args.workload)
    tally = run["tally"]
    wall_ref_s = harness.median(run["ref_times"])
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-{args.seed}-trace{args.trace}"
    if args.trace:
        units = per_layer_units()
        metrics = {name: (value, units[name])
                   for name, value in layer_metrics(run).items()}
        (out_dir / f"spans-{stem}.json").write_text(
            json.dumps(run["tracer"].to_json()), encoding="utf-8")
    else:
        metrics = {
            "wall_ref_s": (wall_ref_s, "s"),
            "setup_s": (run["setup_s"], "s"),
            "peak_rss_mb": (resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
        }
    print_report(args.workload, args.seed, run, metrics)
    # Everything the run measured, for perfbench/suite.py.
    (out_dir / f"result-{stem}.json").write_text(json.dumps({
        "wall_ref_s": wall_ref_s, "pass_times": run["pass_times"],
        "ref_times": run["ref_times"], "probes": run["probes"],
        "error_rate": tally.error_rate,
        "metrics": {k: v[0] for k, v in metrics.items()},
        "end_to_end": {k: list(v) for k, v in
                       run["extras"].get("end_to_end", {}).items()},
    }), encoding="utf-8")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
