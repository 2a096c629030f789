"""The seed SPICE kernel, kept as a test oracle.

A deliberately plain MNA solver: a per-element Python stamping loop
(one compact-model call per model group, no compiled scatters) and a
full-Newton solver loop that re-assembles and solves afresh on every
iteration -- no Jacobian reuse, no replica batching -- behind the same
escalation ladder as :mod:`repro.spice.solver` (plain NR -> gmin ladder
-> source stepping).  The production kernel must reproduce its
solutions to floating-point noise; the equivalence suite
(``tests/spice/test_kernel_equivalence.py``) pins that, and
``benchmarks/test_bench_spice_kernel.py`` times the production kernel
against it.
"""

from __future__ import annotations

import numpy as np

from repro.spice.mna import _DERIV_STEP, GMIN_DEFAULT
from repro.spice.netlist import GROUND_NAMES, Circuit
from repro.spice.solver import (
    _GMIN_LADDER,
    _MAX_NR_ITERATIONS,
    _SOURCE_LADDER,
    _STEP_CLAMP,
    _VTOL,
    ConvergenceError,
    OperatingPoint,
    SolverStats,
    TransientResult,
)

__all__ = ["ReferenceSystem", "dc_operating_point", "transient"]


class ReferenceSystem:
    """Index maps and the per-element stamping loop for one circuit."""

    def __init__(self, circuit: Circuit):
        self.circuit = circuit
        self.nodes = circuit.node_names()
        self._index = {name: i for i, name in enumerate(self.nodes)}
        for g in GROUND_NAMES:
            self._index[g] = -1
        self.n_nodes = len(self.nodes)
        self.n_sources = len(circuit.sources)
        self.dim = self.n_nodes + self.n_sources

        # Static (bias-independent) stamps: resistors and source incidence.
        self._static = np.zeros((self.dim, self.dim))
        for r in circuit.resistors:
            self._stamp_conductance(self._static, r.n1, r.n2,
                                    1.0 / r.resistance)
        for k, src in enumerate(circuit.sources):
            row = self.n_nodes + k
            for node, sign in ((src.pos, 1.0), (src.neg, -1.0)):
                i = self.index(node)
                if i >= 0:
                    self._static[i, row] += sign
                    self._static[row, i] += sign

        caps = circuit.capacitors
        self._cap_i = np.array([self.index(c.n1) for c in caps], dtype=int)
        self._cap_j = np.array([self.index(c.n2) for c in caps], dtype=int)

        # FinFETs grouped by model object for one call per group.
        by_model: dict[int, list] = {}
        for fet in circuit.finfets:
            by_model.setdefault(id(fet.model), []).append(fet)
        self._groups = [
            (fets[0].model,
             np.array([self.index(f.drain) for f in fets], dtype=int),
             np.array([self.index(f.gate) for f in fets], dtype=int),
             np.array([self.index(f.source) for f in fets], dtype=int))
            for fets in by_model.values()
        ]

    def index(self, node: str) -> int:
        return self._index[node]

    def _stamp_conductance(
        self, matrix: np.ndarray, n1: str | int, n2: str | int, g: float
    ) -> None:
        i = self.index(n1) if isinstance(n1, str) else n1
        j = self.index(n2) if isinstance(n2, str) else n2
        if i >= 0:
            matrix[i, i] += g
        if j >= 0:
            matrix[j, j] += g
        if i >= 0 and j >= 0:
            matrix[i, j] -= g
            matrix[j, i] -= g

    def _voltage(self, v: np.ndarray, idx: int) -> float:
        return v[idx] if idx >= 0 else 0.0

    def cap_voltages(self, v: np.ndarray) -> np.ndarray:
        v_ext = np.append(v, 0.0)  # index -1 reads ground
        return v_ext[self._cap_i] - v_ext[self._cap_j]

    def assemble(
        self,
        v_guess: np.ndarray,
        t: float,
        gmin: float = GMIN_DEFAULT,
        cap_companion: tuple[np.ndarray, np.ndarray] | None = None,
        source_scale: float = 1.0,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Build the linearized system ``A x = z`` around ``v_guess``."""
        a = self._static.copy()
        z = np.zeros(self.dim)

        # gmin to ground on every node.
        for i in range(self.n_nodes):
            a[i, i] += gmin

        # Sources: branch equation V(pos) - V(neg) = value(t).
        for k, src in enumerate(self.circuit.sources):
            z[self.n_nodes + k] = source_scale * src.value(t)

        # Capacitors as Norton companions (transient only).
        if cap_companion is not None:
            geq, ieq = cap_companion
            for c, g, i_eq in zip(self.circuit.capacitors, geq, ieq):
                self._stamp_conductance(a, c.n1, c.n2, g)
                i = self.index(c.n1)
                j = self.index(c.n2)
                if i >= 0:
                    z[i] -= i_eq
                if j >= 0:
                    z[j] += i_eq

        # FinFETs: one vectorized call per model group, then per-device
        # companion stamps.
        temp = self.circuit.temperature_k
        for model, d_idx, g_idx, s_idx in self._groups:
            vd = np.array([self._voltage(v_guess, i) for i in d_idx])
            vg = np.array([self._voltage(v_guess, i) for i in g_idx])
            vs = np.array([self._voltage(v_guess, i) for i in s_idx])
            vgs = vg - vs
            vds = vd - vs
            n = len(d_idx)
            vgs_all = np.concatenate([vgs, vgs + _DERIV_STEP, vgs])
            vds_all = np.concatenate([vds, vds, vds + _DERIV_STEP])
            ids_all = np.asarray(model.ids(vgs_all, vds_all, temp))
            i0 = ids_all[:n]
            gm = (ids_all[n: 2 * n] - i0) / _DERIV_STEP
            gds = (ids_all[2 * n:] - i0) / _DERIV_STEP
            gm = np.maximum(gm, 0.0)
            gds = np.maximum(gds, 1e-15)
            ieq = i0 - gm * vgs - gds * vds
            for k in range(n):
                di, gi, si = d_idx[k], g_idx[k], s_idx[k]
                if di >= 0:
                    if gi >= 0:
                        a[di, gi] += gm[k]
                    a[di, di] += gds[k]
                    if si >= 0:
                        a[di, si] -= gm[k] + gds[k]
                    z[di] -= ieq[k]
                if si >= 0:
                    if gi >= 0:
                        a[si, gi] -= gm[k]
                    if di >= 0:
                        a[si, di] -= gds[k]
                    a[si, si] += gm[k] + gds[k]
                    z[si] += ieq[k]
        return a, z


def _newton(system, x0, t, gmin, cap_companion, source_scale=1.0):
    """Full damped Newton: re-assemble and solve afresh every iteration."""
    x = x0.copy()
    for it in range(1, _MAX_NR_ITERATIONS + 1):
        a, z = system.assemble(x, t, gmin, cap_companion, source_scale)
        try:
            delta = np.linalg.solve(a, z) - x
        except np.linalg.LinAlgError as exc:
            raise ConvergenceError(f"singular MNA matrix at t={t}") from exc
        if not np.all(np.isfinite(delta)):
            raise ConvergenceError(f"singular MNA matrix at t={t}")
        max_dv = float(np.max(np.abs(delta[: system.n_nodes]), initial=0.0))
        if max_dv > _STEP_CLAMP:
            delta[: system.n_nodes] *= _STEP_CLAMP / max_dv
        x = x + delta
        if max_dv < _VTOL:
            return x, it
    raise ConvergenceError(f"no convergence in {_MAX_NR_ITERATIONS} "
                           f"iterations (t={t}, gmin={gmin})")


def _solve(system, x0, t, cap_companion, stats):
    """Plain NR, then the gmin ladder, then source stepping."""
    try:
        return _newton(system, x0, t, GMIN_DEFAULT, cap_companion)
    except ConvergenceError:
        pass
    x, total = x0, 0
    try:
        for gmin in _GMIN_LADDER:
            stats.gmin_steps += 1
            x, its = _newton(system, x, t, gmin, cap_companion)
            total += its
        return x, total
    except ConvergenceError:
        pass
    x, total = x0, 0
    for scale in _SOURCE_LADDER:
        stats.source_steps += 1
        x, its = _newton(system, x, t, GMIN_DEFAULT, cap_companion, scale)
        total += its
    return x, total


def dc_operating_point(circuit: Circuit, t: float = 0.0) -> OperatingPoint:
    circuit.validate()
    system = ReferenceSystem(circuit)
    stats = SolverStats()
    x, its = _solve(system, np.zeros(system.dim), t, None, stats)
    stats.newton_iterations = its
    return OperatingPoint(
        voltages={n: float(x[i]) for i, n in enumerate(system.nodes)},
        source_currents={s.name: float(x[system.n_nodes + k])
                         for k, s in enumerate(circuit.sources)},
        iterations=its, stats=stats)


def transient(
    circuit: Circuit,
    t_stop: float,
    dt: float,
    record: list[str] | None = None,
    method: str = "be",
) -> TransientResult:
    """Fixed-step transient on the same snapped grid as the solver."""
    circuit.validate()
    system = ReferenceSystem(circuit)
    record = system.nodes if record is None else record
    n_steps = max(1, int(np.ceil(t_stop / dt - 1e-9)))
    dt_eff = t_stop / n_steps
    time = np.linspace(0.0, t_stop, n_steps + 1)
    stats = SolverStats(timesteps=n_steps, dt_effective=dt_eff)

    x, its = _solve(system, np.zeros(system.dim), 0.0, None, stats)
    stats.newton_iterations += its
    scale = 1.0 if method == "be" else 2.0
    geq = np.array([scale * c.capacitance / dt_eff
                    for c in circuit.capacitors])
    solution = np.empty((n_steps + 1, system.dim))
    solution[0] = x
    v_cap_prev = system.cap_voltages(x)
    i_cap_prev = np.zeros(len(circuit.capacitors))
    for step in range(1, n_steps + 1):
        ieq = -geq * v_cap_prev
        if method == "trap":
            ieq = ieq - i_cap_prev
        x, its = _solve(system, x, time[step], (geq, ieq), stats)
        stats.newton_iterations += its
        v_cap_new = system.cap_voltages(x)
        if method == "trap":
            i_cap_prev = geq * (v_cap_new - v_cap_prev) - i_cap_prev
        v_cap_prev = v_cap_new
        solution[step] = x

    extended = np.hstack([solution, np.zeros((n_steps + 1, 1))])
    return TransientResult(
        time=time,
        voltages={n: extended[:, system.index(n)] for n in record},
        source_currents={s.name: solution[:, system.n_nodes + k]
                         for k, s in enumerate(circuit.sources)},
        circuit_title=circuit.title,
        dt_effective=dt_eff,
        stats=stats,
    )
