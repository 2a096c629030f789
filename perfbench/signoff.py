"""``signoff``: the golden-model sign-off flow at 10 K, on a datapath block.

One pass characterizes the cell families the block maps to (every
drive strength) with the analytic engine, builds the SoC's execute
datapath (operand registers, carry-select adder/subtractor, logic
unit, barrel shifter, result mux and register) with the synthesizer's
RTL builder, buffers, upsizes and places it, runs setup and hold STA,
runs one small kNN kernel on the ISS for the switching activity and
analyzes power.  Analytic ``cells`` and ``sta`` do nearly all the work;
calibration and SPICE do none.

The block stands in for the full Rocket-class SoC (~14k gates, whose
setup STA alone takes longer than a whole pass here) so that a run
holds many passes and reports their median; every layer call is the
one the full flow makes.  The seed picks the readout data whose ISS
profile sets the power activity.
"""

from __future__ import annotations

import hashlib

from repro.cells import CharacterizationConfig, TechModels, build_library
from repro.cells.catalog import full_catalog
from repro.cells.liberty import dumps as liberty_text
from repro.core import CryoStudy, StudyConfig
from repro.device import golden_nfet, golden_pfet
from repro.power import UncoreModel, activity_from_profile, analyze_power
from repro.quantum import falcon_backend, generate_dataset
from repro.soc import RocketSoC
from repro.sta import analyze, analyze_hold
from repro.synth import place, upsize_for_load
from repro.synth.netlist import GateNetlist
from repro.synth.opt import buffer_high_fanout
from repro.synth.rtl import RTLBuilder

NAME = "signoff"
WHY = ("golden-model sign-off at 10 K on a datapath block: analytic cells "
       "and STA do nearly all the work; calibration and SPICE none")

TEMPERATURE_K = 10.0
WIDTH = 32
ADDER_BLOCK = 16
FAMILIES = ("AND2", "BUF", "DFF", "MAJ3", "MUX2", "NAND2", "XNOR2", "XOR2",
            "XOR3")
"""Cell footprints the block maps to, and NAND2 for the uncore power
model; the library holds every drive strength."""
ACTIVITY_QUBITS = 20
ACTIVITY_SHOTS = 15
REPORT_PERIOD_S = 1e-9
"""Clock period the setup slack is reported against."""


def build_block(width: int = WIDTH) -> GateNetlist:
    """The execute-stage datapath of the SoC at ``width`` bits."""
    nl = GateNetlist("exu")
    nl.ensure_constants()
    clk = nl.add_input("clk")
    nl.set_clock(clk)
    ex = RTLBuilder(nl, module="alu")
    a = ex.register(ex.word_input("a", width), clk, "ra")
    b = ex.register(ex.word_input("b", width), clk, "rb")
    sub = nl.add_input("sub")
    logic_sel = nl.add_input("logic")
    shift_sel = nl.add_input("shift")
    add_out, _ = ex.carry_select_adder(a, ex.xor_w(b, [sub] * width), sub,
                                       block=ADDER_BLOCK)
    logic_out = ex.mux_w(ex.and_w(a, b), ex.xor_w(a, b), logic_sel)
    shift_out = ex.barrel_shifter(a, b[:5], right=True)
    result = ex.mux_w(ex.mux_w(add_out, logic_out, logic_sel), shift_out,
                      shift_sel)
    nl.add_output(ex.equal(a, b))
    ex.register(result, clk, "ro")
    return nl


def setup(variant: int, tracer) -> dict:
    models = TechModels(golden_nfet(), golden_pfet())
    with tracer.span("quantum.dataset"):
        backend = falcon_backend(n_qubits=ACTIVITY_QUBITS, seed=variant)
        dataset = generate_dataset(backend, n_shots=ACTIVITY_SHOTS,
                                   n_calibration_shots=256,
                                   seed=variant + 1)
    _, _, points = dataset.interleaved()
    study = CryoStudy(StudyConfig(fast=True))
    return {
        "models": models,
        "catalog": [c for c in full_catalog() if c.footprint in FAMILIES],
        "centers": dataset.calibration_centers,
        "points": points,
        "macro_scale": study.macro_delay_scale(TEMPERATURE_K),
    }


def run_pass(inputs: dict, tracer, counts, tally) -> dict:
    models = inputs["models"]
    with tracer.span("cells.analytic"):
        lib = build_library(
            models, CharacterizationConfig(temperature_k=TEMPERATURE_K),
            catalog=inputs["catalog"])
    coverage = lib.coverage
    bad = len(coverage.degraded) + len(coverage.quarantined)
    counts.add("cells.analytic_cells", len(lib))
    counts.add("cells.analytic_failed", bad)
    for name in coverage.clean:
        tally.record(True, name)
    for name in sorted(coverage.degraded) + sorted(coverage.quarantined):
        tally.record(False, f"cell {name} degraded or quarantined")

    with tracer.span("synth.build"):
        netlist = build_block()
        buffer_high_fanout(netlist, lib)
        upsize_for_load(netlist, lib)
    with tracer.span("synth.place"):
        placement = place(netlist, lib)
    counts.add("synth.gates", len(netlist.gates))

    with tracer.span("sta.setup"):
        timing = analyze(netlist, lib, placement,
                         macro_delay_scale=inputs["macro_scale"])
    with tracer.span("sta.hold"):
        hold = analyze_hold(netlist, lib, placement)
    counts.add("sta.endpoints", len(timing.endpoint_arrivals))

    n_points = len(inputs["points"])
    with tracer.span("soc.run"):
        result = RocketSoC().run_knn(inputs["centers"], inputs["points"],
                                     ACTIVITY_QUBITS)
    counts.add("soc.instructions", result.stats.instructions)
    counts.add("soc.cycles", result.stats.cycles)
    activity = activity_from_profile("knn", result.stats.profile())
    with tracer.span("power.analyze"):
        power = analyze_power(netlist, lib, activity, timing.fmax_hz,
                              models, placement, uncore=UncoreModel())

    return {
        "fmax_hz": timing.fmax_hz,
        "critical_endpoint": timing.critical_endpoint,
        "setup_slack_s": timing.slack(REPORT_PERIOD_S),
        "hold_slack_s": hold.worst_hold_slack,
        "hold_clean": bool(hold.clean),
        "liberty_sha256": hashlib.sha256(
            liberty_text(lib).encode("utf-8")).hexdigest(),
        "gates": len(netlist.gates),
        "activity_cycles_per_classification": result.stats.cycles / n_points,
        "power_total_w": power.total,
        "power_dynamic_w": power.dynamic_total,
        "power_leakage_w": power.leakage_total,
    }
