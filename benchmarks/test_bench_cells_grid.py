"""Batched-grid characterization bench: batched vs. per-point SPICE.

One NAND2 timing arc is characterized twice -- through the
characterizer (a handful of batched-grid transients via
``transient_grid``) and as a per-point baseline (one ``transient`` per
planned table point, each on its own ``t_stop``/``dt``, with the same
delay and slew measurements) -- interleaved best-of-N so machine noise
hits both equally.  The batched win comes from the step-count ratio:
one lockstep Newton step costs nearly the same for a whole load row (or
several merged rows) as for a single point, because the stacked
compact-model call dominates and its cost is size-independent at these
widths.

The slew axis is a three-point subset spanning the default range; the
load axis is the full seven-point row (the batching dimension).  Both
wall times land in ``bench_summary.json`` via ``bench_record``.
"""

from __future__ import annotations

import time

from repro.cells import (
    CellCharacterizer,
    CharacterizationConfig,
    TechModels,
    cell_by_name,
)
from repro.device import golden_nfet, golden_pfet
from repro.spice import propagation_delay, transient

BENCH_SLEWS = (8e-12, 32e-12, 128e-12)
REPEATS = 3
MIN_SPEEDUP = 4.0


def _per_point_arc(char: CellCharacterizer, cell, pin: str) -> None:
    """The arc's planned points solved one ``transient`` at a time.

    Each point runs on its own ``t_stop``/``dt`` (not its batch's union
    grid) and gets the same delay and slew measurements as the batched
    path -- the work a per-point characterizer does.
    """
    vdd = char.config.vdd
    for batch in char.plan_grid_batches(cell, pin):
        for p in batch.points:
            circuit = char.build_cell_circuit(cell, p.load, p.wave_map)
            res = transient(circuit, p.t_stop, p.dt,
                            record=[pin, cell.output])
            wout = res.waveform(cell.output)
            propagation_delay(res.waveform(pin), wout, vdd, p.in_tr,
                              p.out_tr)
            wout.transition_time(0.0, vdd, direction=p.out_tr)


def test_bench_cells_grid_speedup(bench_record):
    models = TechModels(golden_nfet(), golden_pfet())
    cell = cell_by_name("NAND2_X1")
    char = CellCharacterizer(
        models,
        CharacterizationConfig(engine="spice", slew_index=BENCH_SLEWS),
    )

    # Warm model/temperature caches with a tiny arc so neither timed
    # path pays first-touch costs.
    warm = CellCharacterizer(
        models,
        CharacterizationConfig(engine="spice", slew_index=(32e-12,),
                               load_index=(1e-15,)),
    )
    warm._characterize_arc_spice(cell, "A", [])

    t_batch = t_seq = float("inf")
    notes_batch: list[str] = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        notes_batch = []
        char._characterize_arc_spice(cell, "A", notes_batch)
        t_batch = min(t_batch, time.perf_counter() - t0)
        t0 = time.perf_counter()
        _per_point_arc(char, cell, "A")
        t_seq = min(t_seq, time.perf_counter() - t0)

    speedup = t_seq / t_batch
    bench_record("cells_grid.batched_s", t_batch)
    bench_record("cells_grid.sequential_s", t_seq)
    bench_record("cells_grid.speedup_x", speedup)
    n_points = len(BENCH_SLEWS) * 7 * 2
    print(f"\nbatched-grid characterization (NAND2 arc, {n_points} "
          f"points): sequential {t_seq:.2f} s, batched {t_batch:.2f} s "
          f"({speedup:.2f}x)")

    # The batch must have solved every point itself -- a silent eviction
    # storm would shift work to the per-point ladder and fake the ratio.
    assert notes_batch == []
    assert speedup >= MIN_SPEEDUP, (
        f"batched-grid characterization must be >={MIN_SPEEDUP:.0f}x "
        f"faster than the per-point path, got {speedup:.2f}x "
        f"(sequential {t_seq:.2f} s, batched {t_batch:.2f} s)")
