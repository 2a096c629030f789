"""``device``: the device-to-cell path on calibrated models.

One pass calibrates the n- and p-FinFET compact models against a
probe-station campaign (the room-temperature extraction stages),
characterizes INV_X1 with the SPICE engine at 10 K on the calibrated
models, and then drives the SPICE kernel three ways: a batched grid
(``transient_grid``, one planned INV batch), a single transient of a
NAND2 circuit, and DC transfer sweeps (the SRAM bitcell hold-SNM path,
nominal plus one Monte-Carlo mismatch sample).

The sizes keep a pass to a few seconds so that a run holds several
passes and reports their median.  The campaign is the flow's default
(seed 2023), so the calibration work is the same in every run; the
seed draws the Monte-Carlo mismatch sample.
"""

from __future__ import annotations

from repro.cells import (
    CellCharacterizer,
    CharacterizationConfig,
    TechModels,
    build_library,
    cell_by_name,
)
from repro.device import (
    Calibrator,
    MeasurementCampaign,
    default_nfet,
    default_pfet,
)
from repro.device.sram_cell import SRAMCellAnalysis
from repro.spice import propagation_delay, transient, transient_grid

NAME = "device"
WHY = ("calibration and the SPICE kernel (batched grid, single transient, "
       "DC sweeps) do all the work; signoff runs none of them")

CAMPAIGN_SEED = 2023
CALIBRATION_STAGES = ("subthreshold", "mobility", "series_resistance",
                      "dibl", "velocity_saturation")
"""The room-temperature extraction; the joint polish and cryogenic
stages cost ten times as much and would leave room for one pass."""
TEMPERATURE_K = 10.0
SLEWS = (32e-12,)
LOADS = (5e-16, 8e-15)
SPICE_CELL = "INV_X1"
SNM_POINTS = 15
MC_CELLS = 1
TRANSIENT_POINT = 0
"""Index into NAND2's first planned batch solved as a single circuit."""

_TABLES = ("cell_rise", "cell_fall", "rise_transition", "fall_transition")


def setup(variant: int, tracer) -> dict:
    with tracer.span("device.campaign"):
        datasets = MeasurementCampaign(seed=CAMPAIGN_SEED).run(n_points=61)
    return {"datasets": datasets, "mc_seed": variant}


def run_pass(inputs: dict, tracer, counts, tally) -> dict:
    out: dict = {}
    fits = {}
    with tracer.span("device.calibrate"):
        for pol, initial in (("n", default_nfet()), ("p", default_pfet())):
            fits[pol] = Calibrator(inputs["datasets"][pol],
                                   initial).calibrate(
                                       stages=CALIBRATION_STAGES)
    for pol, fit in fits.items():
        counts.add("device.calibrate_evals", fit.total_evaluations)
        for key, value in vars(fit.params).items():
            if isinstance(value, float):
                out[f"{pol}.param.{key}"] = value
        for key, err in fit.validation.items():
            out[f"{pol}.fit_error.{key}"] = err
    models = TechModels(fits["n"].params, fits["p"].params)

    config = CharacterizationConfig(temperature_k=TEMPERATURE_K,
                                    engine="spice", slew_index=SLEWS,
                                    load_index=LOADS)
    with tracer.span("cells.spice"):
        lib = build_library(models, config,
                            catalog=[cell_by_name(SPICE_CELL)])
    coverage = lib.coverage
    fallback = sorted(coverage.degraded) + sorted(coverage.quarantined)
    counts.add("cells.spice_fallback_cells", len(fallback))
    tally.record(not fallback, f"SPICE fallback cells {fallback}")
    for arc in lib[SPICE_CELL].arcs:
        for table in _TABLES:
            values = getattr(arc, table).values
            out[f"inv.{arc.related_pin}.{table}"] = [
                float(v) for v in values.ravel()]

    solver_stats = []
    char = CellCharacterizer(models, config)
    inv = cell_by_name("INV_X1")
    batch = char.plan_grid_batches(inv, "A")[0]
    circuits = [char.build_cell_circuit(inv, p.load, p.wave_map)
                for p in batch.points]
    with tracer.span("spice.grid"):
        results = transient_grid(circuits, batch.t_stop, batch.dt,
                                 record=["A", inv.output])
    solved = [r for r in results if r is not None]
    tally.record(len(solved) == len(results),
                 f"grid evicted {len(results) - len(solved)} replicas")
    if solved:
        counts.add("spice.grid_newton_iters",
                   solved[0].stats.newton_iterations)
        solver_stats.append(solved[0].stats)
    out["inv_grid_delays"] = [
        propagation_delay(res.waveform("A"), res.waveform(inv.output),
                          config.vdd, p.in_tr, p.out_tr)
        for p, res in zip(batch.points, results) if res is not None]

    nand2 = cell_by_name("NAND2_X1")
    p = char.plan_grid_batches(nand2, "A")[0].points[TRANSIENT_POINT]
    circuit = char.build_cell_circuit(nand2, p.load, p.wave_map)
    with tracer.span("spice.transient"):
        res = transient(circuit, p.t_stop, p.dt, record=["A", nand2.output])
    counts.add("spice.transient_newton_iters", res.stats.newton_iterations)
    solver_stats.append(res.stats)
    out["nand2_transient.delay"] = propagation_delay(
        res.waveform("A"), res.waveform(nand2.output), config.vdd,
        p.in_tr, p.out_tr)
    iterations = sum(s.newton_iterations for s in solver_stats)
    counts.add("spice.jacobian_reuses",
               sum(s.jacobian_reuses for s in solver_stats))
    counts.add("spice.newton_iters", iterations)

    bitcell = SRAMCellAnalysis.bitcell(models)
    with tracer.span("spice.dc"):
        nominal = bitcell.nominal_snm(TEMPERATURE_K, n_points=SNM_POINTS)
        mc = bitcell.monte_carlo(TEMPERATURE_K, n_cells=MC_CELLS,
                                 seed=inputs["mc_seed"],
                                 n_points=SNM_POINTS)
    # Each hold-SNM evaluation sweeps two inverter VTCs point by point.
    counts.add("spice.dc_calls", 2 * SNM_POINTS * (1 + MC_CELLS))
    out["snm_nominal_v"] = nominal
    out["snm_mc_v"] = [float(v) for v in mc]
    return out
