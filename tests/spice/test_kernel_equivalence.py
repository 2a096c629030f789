"""Equivalence of the MNA kernel against the seed-kernel test oracle.

The compiled kernel must be a pure performance transformation of the
per-element stamping loop and full-Newton solver loop kept in
``tests/spice/reference_kernel.py``: same stamps, same linearization,
same accepted solutions.  Four layers of checks:

* assembly equivalence on randomized circuits (resistors, capacitors,
  sources, n/p FinFETs, ground aliases): A and z agree to summation-order
  tolerance;
* residual consistency: the compiled ``residual`` matches ``A(v) v - z``
  assembled at the same point (companion linearization is exact at its
  expansion point);
* golden DC/transient regression: INV and NAND2 solves at 300 K and 10 K
  agree with the oracle to 1e-9, and the stacked device evaluator
  matches per-device scalar evaluation;
* solver-effort pins: the Newton iterations, Jacobian reuses and ladder
  rungs those golden solves cost, so an effort regression cannot hide
  behind unchanged waveforms.
"""

from __future__ import annotations

import numpy as np
import pytest
from scipy.special import lambertw
from tests.spice import reference_kernel

from repro.device.finfet import FinFET, _lambertw0, stack_models
from repro.device.params import default_nfet, default_pfet
from repro.spice.mna import MNASystem
from repro.spice.netlist import Circuit
from repro.spice.solver import dc_operating_point, transient
from repro.spice.sources import DC, ramp

VDD = 0.8


def _rand_circuit(seed: int, temp: float = 300.0) -> Circuit:
    """Randomized mixed circuit exercising every stamp type."""
    rng = np.random.default_rng(seed)
    grounds = ("0", "gnd", "vss")
    c = Circuit(title=f"rand{seed}", temperature_k=temp)
    nmod = FinFET(default_nfet(int(rng.integers(1, 4))))
    pmod = FinFET(default_pfet(int(rng.integers(1, 4))))
    c.add_vsource("vdd", "vdd", str(rng.choice(grounds)), DC(VDD))
    c.add_vsource("vin", "in", str(rng.choice(grounds)), DC(float(rng.uniform(0, VDD))))
    nodes = ["in", "vdd", "a", "b", "c"]
    for i in range(int(rng.integers(2, 5))):
        n1, n2 = rng.choice(nodes, 2, replace=False)
        c.add_resistor(f"r{i}", str(n1), str(n2), float(rng.uniform(1e3, 1e6)))
    for i in range(int(rng.integers(2, 6))):
        n1 = str(rng.choice(nodes))
        n2 = str(rng.choice(list(grounds) + nodes))
        if n1 == n2:
            n2 = "0"
        c.add_capacitor(f"c{i}", n1, n2, float(rng.uniform(0.1e-15, 5e-15)))
    for i in range(int(rng.integers(1, 4))):
        d, g = rng.choice(["a", "b", "c"], 2, replace=False)
        c.add_finfet(f"mn{i}", str(d), str(g), str(rng.choice(grounds)), nmod)
        c.add_finfet(f"mp{i}", str(d), str(g), "vdd", pmod)
    return c


def _inv(temp: float) -> Circuit:
    c = Circuit(title="inv", temperature_k=temp)
    nmod = FinFET(default_nfet(2))
    pmod = FinFET(default_pfet(3))
    c.add_vsource("vdd", "vdd", "0", DC(VDD))
    c.add_vsource("vin", "in", "0", ramp(20e-12, 20e-12, 0.0, VDD))
    c.add_finfet("mp", "out", "in", "vdd", pmod)
    c.add_finfet("mn", "out", "in", "0", nmod)
    c.add_capacitor("cl", "out", "0", 2e-15)
    return c


def _nand2(temp: float) -> Circuit:
    c = Circuit(title="nand2", temperature_k=temp)
    nmod = FinFET(default_nfet(2))
    pmod = FinFET(default_pfet(2))
    c.add_vsource("vdd", "vdd", "0", DC(VDD))
    c.add_vsource("va", "a", "0", ramp(20e-12, 20e-12, 0.0, VDD))
    c.add_vsource("vb", "b", "0", DC(VDD))
    c.add_finfet("mpa", "out", "a", "vdd", pmod)
    c.add_finfet("mpb", "out", "b", "vdd", pmod)
    c.add_finfet("mna", "out", "a", "mid", nmod)
    c.add_finfet("mnb", "mid", "b", "0", nmod)
    c.add_capacitor("cl", "out", "0", 2e-15)
    return c


class TestAssemblyEquivalence:
    @pytest.mark.parametrize("seed", range(8))
    def test_randomized_assembly_matches_reference(self, seed):
        circuit = _rand_circuit(seed)
        compiled = MNASystem([circuit])
        reference = reference_kernel.ReferenceSystem(circuit)
        rng = np.random.default_rng(1000 + seed)
        for trial in range(3):
            v = rng.uniform(-VDD, VDD, compiled.dim)
            n_caps = len(circuit.capacitors)
            comp = (rng.uniform(1.0, 1e3, n_caps),
                    rng.uniform(-1e-3, 1e-3, n_caps)) if trial else None
            batched = None if comp is None else (comp[0][None], comp[1][None])
            a_c, z_c, _ = compiled.assemble(
                v[None], compiled.source_values(0.0), gmin=1e-10,
                cap_companion=batched, source_scale=0.7)
            a_c, z_c = a_c[0], z_c[0]
            a_r, z_r = reference.assemble(v, 0.0, gmin=1e-10,
                                          cap_companion=comp,
                                          source_scale=0.7)
            scale = np.abs(a_r).max()
            assert np.abs(a_c - a_r).max() <= 1e-12 * scale
            zscale = max(np.abs(z_r).max(), 1e-12)
            assert np.abs(z_c - z_r).max() <= 1e-12 * zscale

    @pytest.mark.parametrize("seed", range(4))
    def test_residual_matches_assembled_system(self, seed):
        circuit = _rand_circuit(seed)
        system = MNASystem([circuit])
        rng = np.random.default_rng(2000 + seed)
        v = rng.uniform(0.0, VDD, (1, system.dim))
        n_caps = len(circuit.capacitors)
        comp = (rng.uniform(1.0, 1e3, (1, n_caps)),
                rng.uniform(-1e-3, 1e-3, (1, n_caps)))
        sv = system.source_values(0.0)
        a, z, _ = system.assemble(v, sv, gmin=1e-10, cap_companion=comp)
        f = system.residual(v, sv, gmin=1e-10, cap_companion=comp)
        # The companion linearization is exact at its expansion point, so
        # F(v) == A(v) v - z(v) up to floating-point noise.
        ref = np.einsum("gij,gj->gi", a, v) - z
        assert np.abs(f - ref).max() <= 1e-9 * max(np.abs(ref).max(), 1.0)

    def test_rhs_matches_assembled_z(self):
        circuit = _rand_circuit(3)
        system = MNASystem([circuit])
        rng = np.random.default_rng(99)
        v = rng.uniform(0.0, VDD, (1, system.dim))
        n_caps = len(circuit.capacitors)
        comp = (rng.uniform(1.0, 1e3, (1, n_caps)),
                rng.uniform(-1e-3, 1e-3, (1, n_caps)))
        sv = system.source_values(0.0)
        _, z, fet_ieq = system.assemble(v, sv, cap_companion=comp,
                                        source_scale=0.9)
        z_again = system.rhs(sv, comp, fet_ieq, source_scale=0.9)
        np.testing.assert_allclose(z_again, z, rtol=0, atol=1e-18)


class TestGoldenRegression:
    """Solves pin to the seed-kernel oracle within 1e-9."""

    @pytest.mark.parametrize("temp", [300.0, 10.0])
    @pytest.mark.parametrize("make", [_inv, _nand2])
    def test_dc_matches_reference(self, make, temp):
        circuit = make(temp)
        op_c = dc_operating_point(circuit)
        op_r = reference_kernel.dc_operating_point(circuit)
        for node, val in op_r.voltages.items():
            assert abs(op_c.voltages[node] - val) < 1e-9
        for name, val in op_r.source_currents.items():
            assert abs(op_c.source_currents[name] - val) < 1e-9

    @pytest.mark.parametrize("temp", [300.0, 10.0])
    @pytest.mark.parametrize("make", [_inv, _nand2])
    def test_transient_matches_reference(self, make, temp):
        circuit = make(temp)
        tr_c = transient(circuit, 60e-12, 1e-12)
        tr_r = reference_kernel.transient(circuit, 60e-12, 1e-12)
        for node, wave in tr_r.voltages.items():
            assert np.abs(tr_c.voltages[node] - wave).max() < 1e-9
        for name, wave in tr_r.source_currents.items():
            assert np.abs(tr_c.source_currents[name] - wave).max() < 1e-9

    def test_jacobian_reuse_stats(self):
        circuit = _inv(300.0)
        tr_c = transient(circuit, 60e-12, 1e-12)
        tr_r = reference_kernel.transient(circuit, 60e-12, 1e-12)
        # Every timestep after the first bypasses on the cached Jacobian
        # (the first transient step cannot: the DC solve cached a
        # different companion key).
        assert tr_c.stats.jacobian_reuses >= tr_c.stats.timesteps - 1
        assert tr_r.stats.jacobian_reuses == 0

    def test_device_currents_equivalent(self):
        circuit = _nand2(300.0)
        op = dc_operating_point(circuit)
        compiled = MNASystem([circuit])
        x = np.array([op.voltages[n] for n in compiled.nodes]
                     + [op.source_currents[s.name] for s in circuit.sources])
        (currents,) = compiled.device_currents(x[None])
        assert set(currents) == {"mpa", "mpb", "mna", "mnb"}
        # Cross-check against direct per-device model evaluation.
        volts = dict(op.voltages)
        for g in ("0", "gnd", "vss"):
            volts[g] = 0.0
        for fet in circuit.finfets:
            vgs = volts[fet.gate] - volts[fet.source]
            vds = volts[fet.drain] - volts[fet.source]
            direct = float(fet.model.ids(vgs, vds, 300.0))
            assert currents[fet.name] == pytest.approx(direct, rel=1e-9,
                                                       abs=1e-18)


#: (newton_iterations, jacobian_reuses, gmin_steps, source_steps) of the
#: golden solves, recorded before the single-circuit and grid kernels
#: were merged.
_EFFORT_PINS = {
    ("_inv", 300.0): {"dc": (7, 0, 0, 0), "transient": (173, 59, 0, 0)},
    ("_inv", 10.0): {"dc": (7, 0, 0, 0), "transient": (169, 59, 0, 0)},
    ("_nand2", 300.0): {"dc": (7, 0, 0, 0), "transient": (181, 59, 0, 0)},
    ("_nand2", 10.0): {"dc": (8, 0, 0, 0), "transient": (179, 59, 0, 0)},
}


def _effort(stats) -> tuple[int, int, int, int]:
    return (stats.newton_iterations, stats.jacobian_reuses,
            stats.gmin_steps, stats.source_steps)


class TestSolverEffortPins:
    @pytest.mark.parametrize("temp", [300.0, 10.0])
    @pytest.mark.parametrize("make", [_inv, _nand2])
    def test_golden_solver_effort(self, make, temp):
        circuit = make(temp)
        pins = _EFFORT_PINS[(make.__name__, temp)]
        assert _effort(dc_operating_point(circuit).stats) == pins["dc"]
        tr = transient(circuit, 60e-12, 1e-12)
        assert _effort(tr.stats) == pins["transient"]


class TestStackedEvaluator:
    def test_stacked_matches_per_device(self):
        nmod = FinFET(default_nfet(2))
        pmod = FinFET(default_pfet(3))
        stack = stack_models([nmod, pmod], [3, 2])
        rng = np.random.default_rng(7)
        vgs = np.concatenate([rng.uniform(0, VDD, 3), rng.uniform(-VDD, 0, 2)])
        vds = np.concatenate([rng.uniform(0, VDD, 3), rng.uniform(-VDD, 0, 2)])
        for temp in (300.0, 10.0):
            got = stack.ids(vgs, vds, temp)
            want = np.concatenate([
                np.atleast_1d(nmod.ids(vgs[:3], vds[:3], temp)),
                np.atleast_1d(pmod.ids(vgs[3:], vds[3:], temp)),
            ])
            np.testing.assert_allclose(got, want, rtol=1e-12)

    def test_tiled_stack_layout(self):
        nmod = FinFET(default_nfet(1))
        pmod = FinFET(default_pfet(1))
        stack3 = stack_models([nmod, pmod], [1, 1], tile=3)
        vgs = np.array([0.5, -0.5] * 3)
        vds = np.array([0.4, -0.4] * 3)
        got = stack3.ids(vgs, vds, 300.0)
        n_i = float(nmod.ids(0.5, 0.4, 300.0))
        p_i = float(pmod.ids(-0.5, -0.4, 300.0))
        np.testing.assert_allclose(got, [n_i, p_i] * 3, rtol=1e-12)


class TestLambertW:
    def test_matches_scipy_across_range(self):
        x = np.concatenate([
            np.array([0.0, 1e-300, 1e-30, 1e-10]),
            np.logspace(-8.0, 8.0, 500),
            np.exp(np.linspace(20.0, 500.0, 100)) * 2.0,
        ])
        ref = np.real(lambertw(x))
        got = _lambertw0(x)
        rel = np.abs(got - ref) / np.maximum(np.abs(ref), 1e-300)
        assert rel.max() < 1e-13
