"""Modified nodal analysis: matrix assembly for the nonlinear solver.

The MNA unknown vector is ``[node voltages..., source branch currents...]``.
Nonlinear FinFETs are linearized around the current guess with a standard
Norton companion model; their I-V and derivatives are evaluated through a
*stacked* evaluator (per-device parameter arrays, see
``repro.device.finfet.stack_models``).

:class:`MNASystem` assembles G >= 1 structurally identical circuits at
once -- a single circuit is simply a one-replica grid.  Every stamp is
compiled once in ``__init__`` into flat scatter-index/value arrays
(static conductances, the gmin diagonal, capacitor companions,
per-device FinFET entry coefficients with ground masked out at compile
time), offset per replica into the block-diagonal ``(G, dim, dim)``
stack.  :meth:`MNASystem.assemble` is then a handful of ``np.add.at``
scatters plus ONE stacked compact-model call for every FinFET of every
replica -- no Python loop over devices, capacitors, nodes or replicas
per Newton iteration.  :meth:`MNASystem.rhs` rebuilds the RHS around
frozen device companions, which makes the solver's modified-Newton
bypass iterations free of compact-model calls.

The per-element stamping loop this kernel replaced lives on as the test
oracle in ``tests/spice/reference_kernel.py``; the equivalence suite
pins the two to summation-order tolerance.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.device.finfet import stack_models
from repro.errors import ConfigError, NetlistError
from repro.spice.netlist import GROUND_NAMES, Circuit
from repro.spice.sources import waveform_values

__all__ = ["MNASystem"]

#: Finite-difference step for device linearization (V).
_DERIV_STEP = 1e-5

#: Conductance from every node to ground, aiding DC convergence and making
#: capacitor-only nodes non-singular.
GMIN_DEFAULT = 1e-12

#: Per-device companion stamp pattern: (row, col, gm coeff, gds coeff)
#: selectors into the (drain, gate, source) index triple.  Ground rows and
#: columns are masked out at compile time.
_FET_MATRIX_PATTERN = (
    ("d", "g", 1.0, 0.0),
    ("d", "d", 0.0, 1.0),
    ("d", "s", -1.0, -1.0),
    ("s", "g", -1.0, 0.0),
    ("s", "d", 0.0, -1.0),
    ("s", "s", 1.0, 1.0),
)


class MNASystem:
    """G structurally identical circuits tiled into one batched system.

    ``circuits`` holds G >= 1 replicas that share one topology -- e.g.
    one load row of a characterization grid: same cell, same stimulus
    edge, different load caps -- so the compiled scatter indices are
    built once and offset per replica.  The system matrix is the block-diagonal stack ``A`` of
    shape ``(G, dim, dim)``, the RHS and solution are ``(G, dim)``, and
    every per-replica quantity (cap values, source waveforms) lives in a
    ``(G, ...)`` array.

    All FinFETs across all replicas fold into one
    :class:`~repro.device.finfet._StackedFinFET` (``tile=G`` replicates
    the per-device parameter layout replica-major), so a Newton iteration
    makes ONE compact-model call for the whole grid.  Replica blocks never
    couple: every method is elementwise per replica, which is what lets
    the solver evict a failing replica without perturbing the others.
    """

    def __init__(self, circuits: Sequence[Circuit]):
        circuits = list(circuits)
        if not circuits:
            raise ConfigError("MNASystem needs at least one circuit",
                              field="circuits")
        _check_structure(circuits)
        ref = circuits[0]
        g = len(circuits)
        self.circuits = circuits
        self.n_replicas = g
        self.temperature_k = ref.temperature_k
        self.nodes = ref.node_names()
        self._index = {name: i for i, name in enumerate(self.nodes)}
        for name in GROUND_NAMES:
            self._index[name] = -1
        self.n_nodes = len(self.nodes)
        self.n_sources = len(ref.sources)
        self.dim = dim = self.n_nodes + self.n_sources

        #: Jacobian reuse state installed by the solver.
        self.jacobian_cache = None
        #: Last (gmin, geq-array, matrix) base bake; see _base_matrix.
        self._baked = None

        # Static (bias-independent) stamps per replica: resistors and
        # source incidence, same topology, per-replica element values.
        self._static = np.zeros((g, dim, dim))
        for a, circ in zip(self._static, circuits):
            for r in circ.resistors:
                i, j = self.index(r.n1), self.index(r.n2)
                cond = 1.0 / r.resistance
                if i >= 0:
                    a[i, i] += cond
                if j >= 0:
                    a[j, j] += cond
                if i >= 0 and j >= 0:
                    a[i, j] -= cond
                    a[j, i] -= cond
            for k, src in enumerate(circ.sources):
                row = self.n_nodes + k
                for node, sign in ((src.pos, 1.0), (src.neg, -1.0)):
                    i = self.index(node)
                    if i >= 0:
                        a[i, row] += sign
                        a[row, i] += sign

        #: Flat indices of the node-diagonal entries (gmin stamp).
        self._diag_flat = np.arange(self.n_nodes) * (dim + 1)
        #: RHS rows of the source branch equations.
        self._src_rows = self.n_nodes + np.arange(self.n_sources)
        self._sources = [circ.sources for circ in circuits]

        # Capacitors: per-cap terminal indices (-1 = ground) plus the
        # masked scatter pattern for the four conductance entries and the
        # two RHS entries of each companion.
        caps = ref.capacitors
        n_caps = len(caps)
        #: (G, n_caps) capacitances -- the per-replica load values.
        self.cap_c = np.array(
            [[c.capacitance for c in circ.capacitors] for circ in circuits]
        ).reshape(g, n_caps)
        self._cap_i = np.array([self.index(c.n1) for c in caps], dtype=int)
        self._cap_j = np.array([self.index(c.n2) for c in caps], dtype=int)
        mat_flat, mat_sign, mat_k = [], [], []
        rhs_row, rhs_sign, rhs_k = [], [], []
        for k, (i, j) in enumerate(zip(self._cap_i, self._cap_j)):
            for r, c, sign in ((i, i, 1.0), (j, j, 1.0),
                               (i, j, -1.0), (j, i, -1.0)):
                if r >= 0 and c >= 0:
                    mat_flat.append(r * dim + c)
                    mat_sign.append(sign)
                    mat_k.append(k)
            for node, sign in ((i, -1.0), (j, 1.0)):
                if node >= 0:
                    rhs_row.append(node)
                    rhs_sign.append(sign)
                    rhs_k.append(k)

        # Offset the one-replica scatter arrays per replica: matrix-flat
        # indices shift by r*dim*dim into the raveled (G, dim, dim) stack,
        # RHS rows by r*dim, and per-element gather keys (cap index,
        # device index) by r*count into the replica-major value arrays.
        def offset(idx: list, stride: int) -> np.ndarray:
            idx = np.asarray(idx, dtype=int)
            return (idx[None, :] + stride * np.arange(g)[:, None]).reshape(-1)

        self._cap_mat_flat = offset(mat_flat, dim * dim)
        self._cap_mat_sign = np.tile(mat_sign, g)
        self._cap_mat_k = offset(mat_k, n_caps)
        self._cap_rhs_row = offset(rhs_row, dim)
        self._cap_rhs_sign = np.tile(rhs_sign, g)
        self._cap_rhs_k = offset(rhs_k, n_caps)

        # FinFETs: grouped by model object so the stacked evaluator sees
        # each model's devices contiguously, in one global device order.
        by_model: dict[int, list] = {}
        for fet in ref.finfets:
            by_model.setdefault(id(fet.model), []).append(fet)
        fets = [f for group in by_model.values() for f in group]
        self.n_fets = n_fets = len(fets)
        self._fet_names = tuple(f.name for f in fets)
        self._fet_d = np.array([self.index(f.drain) for f in fets], dtype=int)
        self._fet_g = np.array([self.index(f.gate) for f in fets], dtype=int)
        self._fet_s = np.array([self.index(f.source) for f in fets],
                               dtype=int)
        if n_fets:
            # One stacked evaluator across all replicas; the 3G-tiled
            # variant serves the finite-difference linearization layout
            # [base | vgs+step | vds+step] for the whole grid in one call.
            models = [group[0].model for group in by_model.values()]
            counts = [len(group) for group in by_model.values()]
            self._stack1 = stack_models(models, counts, tile=g)
            self._stack3 = stack_models(models, counts, tile=3 * g)

        mat_flat, mat_cgm, mat_cgds, mat_k = [], [], [], []
        rhs_row, rhs_sign, rhs_k = [], [], []
        for k in range(n_fets):
            terminal = {"d": self._fet_d[k], "g": self._fet_g[k],
                        "s": self._fet_s[k]}
            for rt, ct, cgm, cgds in _FET_MATRIX_PATTERN:
                r, c = terminal[rt], terminal[ct]
                if r >= 0 and c >= 0:
                    mat_flat.append(r * dim + c)
                    mat_cgm.append(cgm)
                    mat_cgds.append(cgds)
                    mat_k.append(k)
            for node, sign in ((terminal["d"], -1.0), (terminal["s"], 1.0)):
                if node >= 0:
                    rhs_row.append(node)
                    rhs_sign.append(sign)
                    rhs_k.append(k)
        self._fet_mat_flat = offset(mat_flat, dim * dim)
        self._fet_mat_cgm = np.tile(mat_cgm, g)
        self._fet_mat_cgds = np.tile(mat_cgds, g)
        self._fet_mat_k = offset(mat_k, n_fets)
        self._fet_rhs_row = offset(rhs_row, dim)
        self._fet_rhs_sign = np.tile(rhs_sign, g)
        self._fet_rhs_k = offset(rhs_k, n_fets)

    # ------------------------------------------------------------------ #
    def index(self, node: str) -> int:
        """Return the matrix row of a node (-1 for ground)."""
        try:
            return self._index[node]
        except KeyError:
            raise NetlistError(f"unknown node {node!r}",
                               element=node) from None

    def _extended(self, x: np.ndarray) -> np.ndarray:
        """(G, dim+1) copy with a trailing 0.0 so index -1 reads ground."""
        return np.concatenate([x, np.zeros((self.n_replicas, 1))], axis=1)

    def source_values(self, t: float) -> np.ndarray:
        """(G, n_sources) source values at time ``t``."""
        return np.array(
            [[src.value(t) for src in srcs] for srcs in self._sources]
        ).reshape(self.n_replicas, self.n_sources)

    def source_grid(self, times: np.ndarray) -> np.ndarray:
        """(n_times, G, n_sources) source values over a whole time grid.

        Waveform objects shared across replicas (the common case: only
        the load differs within a characterization row) are evaluated
        once.  Precomputing the grid up front removes every per-iteration
        Python waveform call from the transient stepper.
        """
        times = np.asarray(times, dtype=float)
        out = np.empty((times.size, self.n_replicas, self.n_sources))
        cache: dict[int, np.ndarray] = {}
        for r, srcs in enumerate(self._sources):
            for k, src in enumerate(srcs):
                wave = src.waveform
                vals = cache.get(id(wave))
                if vals is None:
                    vals = cache[id(wave)] = waveform_values(wave, times)
                out[:, r, k] = vals
        return out

    def cap_voltages(self, x: np.ndarray) -> np.ndarray:
        """(G, n_caps) capacitor branch voltages v(n1) - v(n2) at ``x``."""
        v_ext = self._extended(x)
        return v_ext[:, self._cap_i] - v_ext[:, self._cap_j]

    def _fet_bias(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Replica-major (vgs, vds) of every FinFET at solution ``x``."""
        v_ext = self._extended(x)
        vs = v_ext[:, self._fet_s]
        return ((v_ext[:, self._fet_g] - vs).reshape(-1),
                (v_ext[:, self._fet_d] - vs).reshape(-1))

    # ------------------------------------------------------------------ #
    def assemble(
        self,
        x: np.ndarray,
        source_values: np.ndarray,
        gmin: float = GMIN_DEFAULT,
        cap_companion: tuple[np.ndarray, np.ndarray] | None = None,
        source_scale: float = 1.0,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Linearize around ``x``; returns ``(A, z, fet_ieq)``.

        ``x`` is ``(G, dim)``; ``source_values`` is ``(G, n_sources)``
        (see :meth:`source_values` / :meth:`source_grid`) and is scaled
        by ``source_scale`` -- the continuation parameter for source
        stepping.  ``cap_companion`` carries the transient integrator's
        per-replica ``(geq, ieq)`` arrays of shape ``(G, n_caps)``;
        ``None`` means DC (capacitors open).  Returns ``A`` of shape
        ``(G, dim, dim)``, ``z`` of shape ``(G, dim)`` and the
        replica-major device Norton currents ``fet_ieq`` of shape
        ``(G * n_fets,)``, which the solver caches next to the
        Jacobian so a bypass iteration can rebuild ``z`` via :meth:`rhs`
        without touching the compact model.
        """
        a = self._base_matrix(gmin, cap_companion)
        ieq_f = np.empty(0)
        if self.n_fets:
            gm, gds, ieq_f = self._device_linearization(x)
            np.add.at(
                a.reshape(-1), self._fet_mat_flat,
                self._fet_mat_cgm * gm[self._fet_mat_k]
                + self._fet_mat_cgds * gds[self._fet_mat_k],
            )
        z = self.rhs(source_values, cap_companion, ieq_f, source_scale)
        return a, z, ieq_f

    def _base_matrix(self, gmin: float, cap_companion) -> np.ndarray:
        """Static + gmin + capacitor-geq stack, baked across iterations.

        Within one transient the integrator passes the *same* geq array
        object every step and gmin only changes on escalation, so the
        bias-independent part of ``A`` is cached keyed on
        ``(gmin, id(geq))`` and re-copied instead of re-scattered.  The
        bake performs the identical additions in the identical order, so
        the result is bit-equal to scattering afresh.
        """
        if cap_companion is None:
            a = self._static.copy()
            a.reshape(self.n_replicas, -1)[:, self._diag_flat] += gmin
            return a
        geq = np.asarray(cap_companion[0])
        baked = self._baked
        if baked is not None and baked[0] == gmin and baked[1] is geq:
            return baked[2].copy()
        a = self._static.copy()
        a.reshape(self.n_replicas, -1)[:, self._diag_flat] += gmin
        if self._cap_mat_k.size:
            np.add.at(a.reshape(-1), self._cap_mat_flat,
                      self._cap_mat_sign * geq.reshape(-1)[self._cap_mat_k])
        self._baked = (gmin, geq, a)
        return a.copy()

    def rhs(
        self,
        source_values: np.ndarray,
        cap_companion: tuple[np.ndarray, np.ndarray] | None,
        fet_ieq: np.ndarray,
        source_scale: float = 1.0,
    ) -> np.ndarray:
        """(G, dim) RHS ``z`` with *frozen* device companions ``fet_ieq``.

        Sources and capacitor companions are stamped for the current
        timestep; the device Norton currents are taken verbatim from a
        linearization (see :meth:`assemble`).  Paired with that
        linearization's cached Jacobian this is the zero-model-call
        bypass iteration of the modified-Newton solver.
        """
        z = np.zeros((self.n_replicas, self.dim))
        z_flat = z.reshape(-1)
        if self.n_sources:
            z[:, self._src_rows] = source_scale * source_values
        if cap_companion is not None and self._cap_rhs_k.size:
            ieq = np.asarray(cap_companion[1]).reshape(-1)
            np.add.at(z_flat, self._cap_rhs_row,
                      self._cap_rhs_sign * ieq[self._cap_rhs_k])
        if self.n_fets:
            np.add.at(z_flat, self._fet_rhs_row,
                      self._fet_rhs_sign * fet_ieq[self._fet_rhs_k])
        return z

    def _device_linearization(
        self, x: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(gm, gds, ieq), replica-major, from ONE stacked model call."""
        vgs, vds = self._fet_bias(x)
        n = vgs.size
        # Base point plus two perturbed points, all devices at once.
        vgs_all = np.concatenate([vgs, vgs + _DERIV_STEP, vgs])
        vds_all = np.concatenate([vds, vds, vds + _DERIV_STEP])
        ids_all = np.asarray(
            self._stack3.ids(vgs_all, vds_all, self.temperature_k))
        i0 = ids_all[:n]
        gm = (ids_all[n: 2 * n] - i0) / _DERIV_STEP
        gds = (ids_all[2 * n:] - i0) / _DERIV_STEP
        # Keep the Jacobian positive semi-definite-ish: tiny negative
        # numerical slopes are clipped.
        gm = np.maximum(gm, 0.0)
        gds = np.maximum(gds, 1e-15)
        ieq = i0 - gm * vgs - gds * vds
        return gm, gds, ieq

    def _drain_currents(self, x: np.ndarray) -> np.ndarray:
        """Replica-major drain current of every FinFET at ``x``."""
        return np.asarray(self._stack1.ids(*self._fet_bias(x),
                                           self.temperature_k))

    def residual(
        self,
        x: np.ndarray,
        source_values: np.ndarray,
        gmin: float = GMIN_DEFAULT,
        cap_companion: tuple[np.ndarray, np.ndarray] | None = None,
        source_scale: float = 1.0,
    ) -> np.ndarray:
        """(G, dim) exact nonlinear residual ``F(x) = A(x) x - z(x)``.

        Because the companion linearization is exact at its expansion
        point, the device contribution collapses to the *actual* drain
        current: one n-point compact-model call, no derivative
        perturbations, and no matrix.
        """
        f = np.einsum("gij,gj->gi", self._static, x)
        f[:, : self.n_nodes] += gmin * x[:, : self.n_nodes]
        if self.n_sources:
            f[:, self._src_rows] -= source_scale * source_values
        f_flat = f.reshape(-1)
        if cap_companion is not None and self._cap_rhs_k.size:
            geq, ieq = cap_companion
            i_cap = (np.asarray(geq) * self.cap_voltages(x)
                     + np.asarray(ieq)).reshape(-1)
            np.add.at(f_flat, self._cap_rhs_row,
                      -self._cap_rhs_sign * i_cap[self._cap_rhs_k])
        if self.n_fets:
            np.add.at(f_flat, self._fet_rhs_row,
                      -self._fet_rhs_sign
                      * self._drain_currents(x)[self._fet_rhs_k])
        return f

    def device_currents(self, x: np.ndarray) -> list[dict[str, float]]:
        """Every FinFET's drain current at ``x``, one dict per replica."""
        if not self.n_fets:
            return [{} for _ in range(self.n_replicas)]
        ids = self._drain_currents(np.asarray(x, dtype=float))
        rows = ids.reshape(self.n_replicas, self.n_fets)
        return [dict(zip(self._fet_names, map(float, row))) for row in rows]


def _check_structure(circuits: list[Circuit]) -> None:
    """Replicas must be element-for-element the same topology."""
    ref = circuits[0]
    for r, circ in enumerate(circuits[1:], start=1):
        if circ.temperature_k != ref.temperature_k:
            raise NetlistError(
                f"replica {r} temperature {circ.temperature_k} K != "
                f"replica 0 {ref.temperature_k} K", element=circ.title)
        if circ.node_names() != ref.node_names():
            raise NetlistError(
                f"replica {r} node set differs from replica 0",
                element=circ.title)
        pairs = [
            (ref.resistors, circ.resistors,
             lambda e: (e.name, e.n1, e.n2)),
            (ref.capacitors, circ.capacitors,
             lambda e: (e.name, e.n1, e.n2)),
            (ref.sources, circ.sources,
             lambda e: (e.name, e.pos, e.neg)),
            (ref.finfets, circ.finfets,
             lambda e: (e.name, e.drain, e.gate, e.source)),
        ]
        for ref_elems, elems, keyfn in pairs:
            if [keyfn(e) for e in ref_elems] != [keyfn(e) for e in elems]:
                raise NetlistError(
                    f"replica {r} element structure differs from "
                    f"replica 0", element=circ.title)
        for ref_fet, fet in zip(ref.finfets, circ.finfets):
            if fet.model is not ref_fet.model:
                raise NetlistError(
                    f"replica {r} device {fet.name} uses a different "
                    f"model object than replica 0 (replicas must "
                    f"share models for stacked evaluation)",
                    element=fet.name)
