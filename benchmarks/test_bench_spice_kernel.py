"""SPICE kernel bench: the kernel vs. the seed oracle on a loaded chain.

The reference is the seed kernel kept as a test oracle in
``tests/spice/reference_kernel.py`` (per-element stamping loop, full
Newton).  The compiled kernel's win comes from three compounding
changes -- one stacked compact-model call per Newton iteration instead
of one per model group, precompiled scatter stamping instead of
per-element Python loops, and the frozen-companion Jacobian bypass that
makes each timestep's first iteration free of model evaluations.  The
reference's cost grows with element count (Python stamping loops), so a
realistic parasitic-heavy netlist is where the ratio is honest.

Records ``bench.spice_kernel_*`` entries via ``bench_record`` so the
summary (and, through the provenance ledger, ``repro compare``) tracks
the kernel speedup over time.  Timing is interleaved best-of-N so a
background-noise spike on one run cannot fail the assertion.
"""

from __future__ import annotations

import time

import numpy as np
from tests.spice import reference_kernel

from repro.device.finfet import FinFET
from repro.device.params import default_nfet, default_pfet
from repro.spice.netlist import Circuit
from repro.spice.solver import transient
from repro.spice.sources import DC, ramp

VDD = 0.8
N_STAGES = 20           # 40 FinFETs, 180 caps incl. device parasitics
T_STOP = 250e-12
DT = 0.5e-12            # 500 timesteps
REPEATS = 3


def _loaded_chain(n_stages: int, temp: float = 300.0) -> Circuit:
    """Inverter chain with extracted-style parasitics: wire load to
    ground, coupling to the previous stage, and a rail-overlap cap per
    net."""
    c = Circuit(title=f"chain{n_stages}", temperature_k=temp)
    nmod = FinFET(default_nfet(2))
    pmod = FinFET(default_pfet(3))
    c.add_vsource("vdd", "vdd", "0", DC(VDD))
    c.add_vsource("vin", "in", "0", ramp(50e-12, 20e-12, 0.0, VDD))
    prev = "in"
    for i in range(n_stages):
        out = f"n{i}"
        c.add_finfet(f"mp{i}", out, prev, "vdd", pmod)
        c.add_finfet(f"mn{i}", out, prev, "0", nmod)
        c.add_capacitor(f"cw{i}", out, "0", 1.5e-15)
        c.add_capacitor(f"cc{i}", out, prev, 0.4e-15)
        c.add_capacitor(f"cv{i}", out, "vdd", 0.3e-15)
        prev = out
    return c


def test_bench_spice_kernel_speedup(bench_record):
    circuit = _loaded_chain(N_STAGES)
    assert len(circuit.finfets) >= 10

    # Warm both kernels (model caches, allocator, branch predictors).
    transient(circuit, 20e-12, DT)
    reference_kernel.transient(circuit, 20e-12, DT)

    # Interleaved best-of-N: alternate kernels each round and keep the
    # minimum per kernel, so shared machine noise hits both equally.
    t_ref = t_cmp = float("inf")
    tr_r = tr_c = None
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        tr_r = reference_kernel.transient(circuit, T_STOP, DT)
        t_ref = min(t_ref, time.perf_counter() - t0)
        t0 = time.perf_counter()
        tr_c = transient(circuit, T_STOP, DT)
        t_cmp = min(t_cmp, time.perf_counter() - t0)

    # Same physics first: the speedup is only meaningful if the compiled
    # kernel produced the same waveforms.
    dmax = max(np.abs(tr_c.voltages[k] - tr_r.voltages[k]).max()
               for k in tr_r.voltages)
    assert dmax < 1e-9

    speedup = t_ref / t_cmp
    bench_record("spice_kernel.reference_s", t_ref)
    bench_record("spice_kernel.compiled_s", t_cmp)
    bench_record("spice_kernel.speedup_x", speedup)
    bench_record("spice_kernel.jacobian_reuses",
                 float(tr_c.stats.jacobian_reuses))
    print(f"\nSPICE kernel ({2 * N_STAGES} FETs, "
          f"{len(circuit.capacitors)} caps, {int(T_STOP / DT)} steps): "
          f"reference {t_ref * 1e3:.0f} ms, compiled {t_cmp * 1e3:.0f} ms "
          f"({speedup:.2f}x, {tr_c.stats.jacobian_reuses} Jacobian reuses)")

    assert tr_c.stats.jacobian_reuses > 0
    assert speedup >= 3.0, (
        f"compiled kernel must be >=3x faster than reference on the "
        f"loaded chain, got {speedup:.2f}x "
        f"(ref {t_ref:.3f} s, compiled {t_cmp:.3f} s)")
