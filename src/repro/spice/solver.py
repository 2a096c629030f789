"""DC and transient solution of MNA circuits.

* :func:`dc_operating_point` -- damped Newton-Raphson with automatic gmin
  stepping and a source-stepping (continuation) fallback on
  non-convergence.
* :func:`transient` -- fixed-step backward-Euler integration (L-stable; the
  characterization flow picks steps ~100x smaller than the fastest
  transition, where BE's first-order error is negligible against the
  compact-model accuracy) or trapezoidal.
* :func:`transient_grid` -- G structurally identical circuits stepped in
  lockstep on one time grid, evicting replicas that fail.

One kernel serves all three: a single circuit is a one-replica grid.
There is one :class:`~repro.spice.mna.MNASystem`, one masked
modified-Newton loop (:func:`_newton_solve`), one Jacobian cache and one
lockstep transient stepper.  The single-circuit entry points wrap the
Newton loop in the escalation ladder (plain NR -> gmin ladder -> source
stepping); :func:`transient_grid` instead evicts a replica that fails.

Results come back as :class:`TransientResult`, which exposes per-node
:class:`~repro.spice.waveform.Waveform` objects and per-source branch
currents for energy integration.

Robustness: every public entry point accepts an optional
:class:`SolverBudget` bounding total Newton iterations and wall-clock
time, so one pathological solve cannot stall a library build.  Budget
exhaustion raises :class:`~repro.errors.SolverBudgetError`; hopeless
single-circuit solves raise :class:`ConvergenceError` carrying the full
escalation history.

Performance: the Newton loop runs modified Newton -- the first iteration
of each solve reuses the Jacobian and frozen device companions from the
previous solve (in a transient, the previous timestep), so it rebuilds
only the RHS and costs *zero* compact-model calls.  Subsequent
iterations re-linearize; a solution is only ever accepted from a
fresh-Jacobian update (or, for circuits without nonlinear devices, from
the exact cached matrix), so accepted solutions satisfy exactly the same
criterion as a full-Newton solver.  Every escalation-ladder rung changes
the cache key and therefore starts from a fresh Jacobian.  Reused
iterations are counted in :attr:`SolverStats.jacobian_reuses`.  The
full-Newton seed solver survives as the test oracle in
``tests/spice/reference_kernel.py``.
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass, field

import numpy as np

from repro import telemetry
from repro.errors import ConfigError, SolverBudgetError, SolverError
from repro.spice.mna import GMIN_DEFAULT, MNASystem
from repro.spice.netlist import Circuit
from repro.spice.waveform import Waveform

__all__ = ["BudgetConsumption", "ConvergenceError", "OperatingPoint",
           "SolverBudget", "SolverStats", "TransientResult",
           "dc_operating_point", "transient", "transient_grid"]

#: Newton-Raphson voltage update clamp (V) -- classic damping for FETs.
_STEP_CLAMP = 0.25

_MAX_NR_ITERATIONS = 200
_VTOL = 1e-7

#: gmin continuation ladder, walked large to small on NR failure.
_GMIN_LADDER = (1e-3, 1e-5, 1e-7, 1e-9, GMIN_DEFAULT)

#: Source-stepping continuation ladder (fraction of full source value).
_SOURCE_LADDER = (0.05, 0.1, 0.2, 0.4, 0.6, 0.8, 0.9, 1.0)

#: Hard ceiling on transient steps: a t_stop/dt pair implying more is an
#: oversized input (one recorded float64 per node per step -- past this
#: the run would grind or OOM long before producing science), rejected
#: with a typed ConfigError instead of an allocation failure.
_MAX_TRANSIENT_STEPS = 5_000_000


class ConvergenceError(SolverError):
    """Raised when Newton-Raphson fails at every escalation level."""


@dataclass
class SolverStats:
    """Convergence-effort accounting for one solver entry point.

    Carried on :attr:`OperatingPoint.stats` and
    :attr:`TransientResult.stats` so callers can see what a solve cost
    without enabling telemetry (the counters are accumulated at
    escalation boundaries, not in the Newton inner loop, so keeping
    them always-on is free at hot-path granularity).
    """

    newton_iterations: int = 0
    """Total NR iterations, summed over timesteps and ladders."""
    gmin_steps: int = 0
    """gmin-ladder rungs attempted (0 when plain NR converged)."""
    source_steps: int = 0
    """Source-stepping rungs attempted (0 unless the ladder escalated)."""
    timesteps: int = 0
    """Transient steps solved (0 for a DC solve)."""
    budget_charges: int = 0
    """Times the :class:`SolverBudget` tracker was consulted."""
    dt_effective: float = 0.0
    """The timestep actually used (transient only)."""
    jacobian_reuses: int = 0
    """Newton iterations served by a reused Jacobian (modified Newton);
    0 for cold DC solves.  In a grid one reuse serves every replica."""


@dataclass(frozen=True)
class BudgetConsumption:
    """Snapshot of what a solve has drawn against a :class:`SolverBudget`."""

    iterations: int
    seconds: float
    max_iterations: int | None = None
    max_seconds: float | None = None

    @property
    def iterations_remaining(self) -> int | None:
        if self.max_iterations is None:
            return None
        return max(0, self.max_iterations - self.iterations)

    @property
    def seconds_remaining(self) -> float | None:
        if self.max_seconds is None:
            return None
        return max(0.0, self.max_seconds - self.seconds)


@dataclass(frozen=True)
class SolverBudget:
    """Per-solve resource bounds.

    ``max_iterations`` caps the *total* Newton iterations spent by one
    ``dc_operating_point``/``transient`` call (summed over timesteps and
    continuation ladders); ``max_seconds`` caps its wall-clock time.
    ``None`` disables a bound.

    A budget is observable mid-run: :meth:`consumed` reports what the
    most recent solve using this budget has drawn so far, so a caller
    can watch the remaining headroom instead of waiting for
    :class:`~repro.errors.SolverBudgetError` to fire.
    """

    max_iterations: int | None = None
    max_seconds: float | None = None
    _last_tracker: "_BudgetTracker | None" = field(
        default=None, repr=False, compare=False
    )

    def tracker(self) -> "_BudgetTracker":
        t = _BudgetTracker(self)
        # Frozen dataclass: the tracker backref is bookkeeping, not
        # identity, hence the direct __setattr__.
        object.__setattr__(self, "_last_tracker", t)
        return t

    def consumed(self) -> BudgetConsumption:
        """Iterations/wall-clock drawn by the most recent solve.

        Wall-clock advances in real time (not only at charge points),
        so polling mid-run sees the true elapsed cost even while the
        solver is grinding inside one Newton ladder.
        """
        t = self._last_tracker
        if t is None:
            return BudgetConsumption(0, 0.0, self.max_iterations,
                                     self.max_seconds)
        return BudgetConsumption(t.iterations, t.elapsed(),
                                 self.max_iterations, self.max_seconds)


class _BudgetTracker:
    """Mutable iteration/time accounting for one solve call."""

    def __init__(self, budget: SolverBudget):
        self.budget = budget
        self.iterations = 0
        self.charges = 0
        self.t0 = _time.monotonic()

    def elapsed(self) -> float:
        return _time.monotonic() - self.t0

    def charge(self, iterations: int) -> None:
        self.iterations += iterations
        self.charges += 1
        b = self.budget
        if b.max_iterations is not None and self.iterations > b.max_iterations:
            raise SolverBudgetError(
                f"solver iteration budget exhausted "
                f"({self.iterations} > {b.max_iterations})"
            )
        if b.max_seconds is not None:
            elapsed = _time.monotonic() - self.t0
            if elapsed > b.max_seconds:
                raise SolverBudgetError(
                    f"solver wall-clock budget exhausted "
                    f"({elapsed:.3f} s > {b.max_seconds} s)"
                )


class _JacobianCache:
    """Frozen Jacobian + device companions carried across solves.

    The cache key pins the linear-system *structure* the Jacobian was
    built for -- (gmin, source_scale, companion on/off) -- so every
    escalation-ladder rung starts from a fresh Jacobian.  ``fet_ieq``
    holds the device Norton RHS currents of the cached linearization:
    with them a bypass iteration rebuilds ``z`` for a new timestep via
    :meth:`MNASystem.rhs` without touching the compact model.  The cache
    holds the assembled ``(G, dim, dim)`` stack rather than a
    factorization: the blocks are tiny, so one batched
    ``np.linalg.solve`` call (which refactorizes each block inside
    LAPACK) costs less than G scipy factorizations and a Python loop of
    back-substitutions.  ``reuses`` accumulates across one solver entry
    point and is published as :attr:`SolverStats.jacobian_reuses`.
    """

    __slots__ = ("a", "key", "fet_ieq", "reuses")

    def __init__(self):
        self.a = None
        self.key = None
        self.fet_ieq = None
        self.reuses = 0

    def store(self, key, a, fet_ieq) -> None:
        self.key = key
        self.a = a
        self.fet_ieq = fet_ieq

    def matches(self, key) -> bool:
        return self.a is not None and self.key == key


@dataclass
class OperatingPoint:
    """DC solution: node voltages and source branch currents."""

    voltages: dict[str, float]
    source_currents: dict[str, float]
    iterations: int
    stats: SolverStats = field(default_factory=SolverStats)
    """Convergence effort of this solve (always populated)."""

    def __getitem__(self, node: str) -> float:
        return self.voltages[node]


@dataclass
class TransientResult:
    """Transient solution over a fixed time grid."""

    time: np.ndarray
    voltages: dict[str, np.ndarray]
    source_currents: dict[str, np.ndarray]
    circuit_title: str = ""
    dt_effective: float = 0.0
    stats: SolverStats = field(default_factory=SolverStats)
    """Convergence effort of this run (always populated)."""

    def waveform(self, node: str) -> Waveform:
        """Return the node voltage as a measurable waveform."""
        return Waveform(self.time, self.voltages[node], name=node)

    def source_current(self, name: str) -> np.ndarray:
        return self.source_currents[name]

    def supply_energy(self, source_name: str, vdd: float) -> float:
        """Energy delivered by a DC supply over the window, in J.

        MNA source current flows from + terminal through the source, so a
        supplying source has negative branch current; energy delivered is
        ``-integral(V * I) dt``.
        """
        i = self.source_currents[source_name]
        return float(-np.trapezoid(i, self.time) * vdd)


def _linear_solve(a: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Batched block solve; a singular replica poisons only itself.

    ``np.linalg.solve`` rejects the whole batch when any block is
    singular, so on failure the blocks are re-solved one by one and the
    offenders come back as NaN rows -- which the masked Newton loop
    turns into a failure of exactly those replicas.
    """
    try:
        # The explicit trailing unit axis pins the gufunc signature to a
        # stack of column vectors on every numpy version.
        return np.linalg.solve(a, z[:, :, None])[:, :, 0]
    except np.linalg.LinAlgError:
        out = np.empty_like(z)
        for g in range(z.shape[0]):
            try:
                out[g] = np.linalg.solve(a[g], z[g])
            except np.linalg.LinAlgError:
                out[g] = np.nan
        return out


def _newton_solve(
    system: MNASystem,
    x: np.ndarray,
    source_values: np.ndarray,
    gmin: float,
    cap_companion: tuple[np.ndarray, np.ndarray] | None,
    tracker: _BudgetTracker | None,
    source_scale: float = 1.0,
    alive: np.ndarray | None = None,
) -> tuple[int, np.ndarray]:
    """Lockstep masked, damped modified-Newton solve across all replicas.

    ``x`` (``(G, dim)``) is updated in place for the replicas in
    ``alive`` (default: all).  The first iteration of a solve whose
    cache key matches bypasses both assembly and the compact model: the
    RHS is rebuilt around the *frozen* device companions
    (:meth:`MNASystem.rhs`) and solved against the cached Jacobian.  For
    circuits without FinFETs the cached matrix is exact, so every
    iteration may ride it.  A solution is accepted only from a non-stale
    update -- after a stale bypass converges, one fresh iteration
    re-linearizes so the accepted step meets the full-Newton criterion.

    Masked convergence: a replica whose accepted update lands under
    ``_VTOL`` is frozen (its block stops moving) while the others keep
    iterating; a replica whose update goes non-finite, or that is still
    unconverged when the iteration cap runs out, fails.  Returns
    ``(iterations, converged)`` where ``converged`` marks the replicas
    that finished cleanly.
    """
    cache: _JacobianCache = system.jacobian_cache
    key = (gmin, source_scale, cap_companion is not None)
    linear = system.n_fets == 0
    n_nodes = system.n_nodes
    alive = np.ones(system.n_replicas, dtype=bool) if alive is None else alive
    need = alive.copy()
    failed = np.zeros_like(alive)
    if not need.any():
        return 0, failed
    for it in range(1, _MAX_NR_ITERATIONS + 1):
        stale = False
        if cache.matches(key) and (linear or it == 1):
            # Bypass: the matrix (static + gmin + cap geq + frozen device
            # conductances) is unchanged, so only the RHS moves with t.
            z = system.rhs(source_values, cap_companion, cache.fet_ieq,
                           source_scale)
            a = cache.a
            cache.reuses += 1
            stale = not linear
        else:
            a, z, fet_ieq = system.assemble(
                x, source_values, gmin=gmin, cap_companion=cap_companion,
                source_scale=source_scale)
            cache.store(key, a, fet_ieq)
        delta = _linear_solve(a, z) - x
        finite = np.isfinite(delta).all(axis=1)
        newly_bad = need & ~finite
        if newly_bad.any():
            failed |= newly_bad
            need &= finite
            if not need.any():
                return it, alive & ~failed
        if tracker is not None:
            tracker.charge(1)
        # Clamp only the node-voltage part; branch currents move freely.
        max_dv = np.abs(delta[:, :n_nodes]).max(axis=1, initial=0.0)
        over = need & (max_dv > _STEP_CLAMP)
        if over.any():
            delta[over, :n_nodes] *= (_STEP_CLAMP / max_dv[over])[:, None]
        # Converged and failed replicas are frozen: their blocks stop
        # moving, so survivors never see a dead replica's state.
        delta[~need] = 0.0
        x += delta
        # A stale bypass never converges a replica: the next iteration
        # re-linearizes at the bypassed point and decides.
        if not stale:
            need &= ~(max_dv < _VTOL)
        if not need.any():
            return it, alive & ~failed
    # Iteration cap: whatever is still iterating failed to converge.
    return _MAX_NR_ITERATIONS, alive & ~failed & ~need


def _converge(
    system: MNASystem,
    x0: np.ndarray,
    source_values: np.ndarray,
    t: float,
    gmin: float,
    cap_companion: tuple[np.ndarray, np.ndarray] | None,
    tracker: _BudgetTracker | None,
    source_scale: float = 1.0,
) -> tuple[np.ndarray, int]:
    """One escalation rung: a Newton solve from ``x0`` that must converge.

    Returns ``(solution, iterations)``; ``x0`` is left untouched so a
    failed rung hands the next one the same starting point.
    """
    x = x0.copy()
    its, converged = _newton_solve(system, x, source_values, gmin,
                                   cap_companion, tracker, source_scale)
    if not converged.all():
        raise ConvergenceError(
            f"Newton-Raphson failed: singular matrix or no convergence in "
            f"{_MAX_NR_ITERATIONS} iterations (t={t}, gmin={gmin}, "
            f"source_scale={source_scale})")
    return x, its


def _solve_with_source_stepping(
    system: MNASystem,
    x0: np.ndarray,
    source_values: np.ndarray,
    t: float,
    cap_companion: tuple[np.ndarray, np.ndarray] | None,
    tracker: _BudgetTracker | None,
    stats: SolverStats,
) -> tuple[np.ndarray, int]:
    """Continuation in the source amplitude: ramp 0 -> 1, tracking the
    solution branch.  The near-zero-bias circuit is almost linear, so the
    first rung converges from a cold start and each later rung starts from
    the previous solution."""
    x = x0
    total = 0
    for scale in _SOURCE_LADDER:
        stats.source_steps += 1
        try:
            x, its = _converge(system, x, source_values, t, GMIN_DEFAULT,
                               cap_companion, tracker, source_scale=scale)
        except ConvergenceError as exc:
            raise ConvergenceError(
                f"source stepping failed at scale={scale} (t={t})"
            ) from exc
        total += its
    return x, total


def _solve_with_gmin_stepping(
    system: MNASystem,
    x0: np.ndarray,
    source_values: np.ndarray,
    t: float,
    cap_companion: tuple[np.ndarray, np.ndarray] | None,
    tracker: _BudgetTracker | None,
    stats: SolverStats,
) -> tuple[np.ndarray, int]:
    """Try plain NR; on failure walk gmin large to small; on a mid-ladder
    failure fall through to source stepping before giving up."""
    try:
        return _converge(system, x0, source_values, t, GMIN_DEFAULT,
                         cap_companion, tracker)
    except SolverBudgetError:
        raise
    except ConvergenceError:
        pass

    gmin_failure: ConvergenceError | None = None
    x = x0
    total = 0
    for gmin in _GMIN_LADDER:
        stats.gmin_steps += 1
        try:
            x, its = _converge(system, x, source_values, t, gmin,
                               cap_companion, tracker)
            total += its
        except SolverBudgetError:
            raise
        except ConvergenceError as exc:
            gmin_failure = ConvergenceError(
                f"gmin ladder failed at gmin={gmin} (t={t}, "
                f"ladder={_GMIN_LADDER})"
            )
            gmin_failure.__cause__ = exc
            break
    else:
        return x, total

    try:
        return _solve_with_source_stepping(system, x0, source_values, t,
                                           cap_companion, tracker, stats)
    except SolverBudgetError:
        raise
    except ConvergenceError as exc:
        raise ConvergenceError(
            f"no convergence at t={t}: plain NR failed, {gmin_failure}, "
            f"and source stepping failed ({exc})"
        ) from gmin_failure


def _record_solver_metrics(kind: str, stats: SolverStats) -> None:
    """Fold one solve's effort into the telemetry registry (enabled only)."""
    telemetry.count(f"solver.{kind}_solves")
    telemetry.count("solver.newton_iterations", stats.newton_iterations)
    if stats.gmin_steps:
        telemetry.count("solver.gmin_steps", stats.gmin_steps)
    if stats.source_steps:
        telemetry.count("solver.source_steps", stats.source_steps)
    if stats.budget_charges:
        telemetry.count("solver.budget_charges", stats.budget_charges)
    if stats.jacobian_reuses:
        telemetry.count("solver.jacobian_reuses", stats.jacobian_reuses)


def _make_system(circuits: list[Circuit]) -> MNASystem:
    """Validate the circuits and build their system with a reuse cache."""
    for circuit in circuits:
        circuit.validate()
    system = MNASystem(circuits)
    system.jacobian_cache = _JacobianCache()
    return system


def _finish_stats(stats: SolverStats, system: MNASystem,
                  tracker: _BudgetTracker | None) -> None:
    if tracker is not None:
        stats.budget_charges = tracker.charges
    stats.jacobian_reuses = system.jacobian_cache.reuses


def dc_operating_point(
    circuit: Circuit,
    t: float = 0.0,
    budget: SolverBudget | None = None,
) -> OperatingPoint:
    """Solve the DC operating point with sources evaluated at time ``t``."""
    system = _make_system([circuit])
    x0 = np.zeros((1, system.dim))
    tracker = budget.tracker() if budget is not None else None
    stats = SolverStats()
    with telemetry.span("spice.dc_operating_point",
                        circuit=circuit.title) as sp:
        x, iterations = _solve_with_gmin_stepping(
            system, x0, system.source_values(t), t, None, tracker, stats)
        stats.newton_iterations = iterations
        _finish_stats(stats, system, tracker)
        if telemetry.enabled():
            sp.set(newton_iterations=stats.newton_iterations,
                   gmin_steps=stats.gmin_steps,
                   source_steps=stats.source_steps)
            _record_solver_metrics("dc", stats)
    x = x[0]
    voltages = dict(zip(system.nodes, map(float, x[: system.n_nodes])))
    currents = {
        src.name: float(x[system.n_nodes + k])
        for k, src in enumerate(circuit.sources)
    }
    return OperatingPoint(voltages=voltages, source_currents=currents,
                          iterations=iterations, stats=stats)


def transient(
    circuit: Circuit,
    t_stop: float,
    dt: float,
    record: list[str] | None = None,
    method: str = "be",
    budget: SolverBudget | None = None,
) -> TransientResult:
    """Fixed-step transient from a DC solution at ``t = 0``.

    Parameters
    ----------
    circuit:
        The circuit; its ``temperature_k`` selects the model corner.
    t_stop:
        End time in s.  Always simulated exactly: when ``t_stop`` is not
        an integer multiple of ``dt``, the step is snapped *down* to the
        nearest divisor (never up, so accuracy cannot silently degrade);
        the step actually used is reported as
        :attr:`TransientResult.dt_effective`.
    dt:
        Requested fixed timestep in s.
    record:
        Node names to record; ``None`` records every node.
    method:
        ``"be"`` (backward Euler, L-stable, default) or ``"trap"``
        (trapezoidal, second-order accurate; the usual SPICE default).
        Trapezoidal needs the capacitor branch-current history, which the
        integrator reconstructs from the companion at each step.
    budget:
        Optional :class:`SolverBudget` bounding the whole run.

    Every solve (the DC start and each timestep) walks the escalation
    ladder on failure; a step that fails all of it raises
    :class:`ConvergenceError`.
    """
    return _lockstep([circuit], t_stop, dt, record, method, budget,
                     escalate=True)[0]


def transient_grid(
    circuits: list[Circuit],
    t_stop: float,
    dt: float,
    record: list[str] | None = None,
    method: str = "be",
    budget: SolverBudget | None = None,
) -> list[TransientResult | None]:
    """Fixed-step transient of G structurally identical circuits at once.

    The replicas (same topology, per-replica element values and source
    waveforms -- e.g. one load row of an NLDM characterization grid) are
    tiled into one :class:`~repro.spice.mna.MNASystem` and stepped in
    lockstep on one shared time grid: each Newton iteration makes ONE
    compact-model call and ONE batched block solve for the whole grid,
    so the per-step Python overhead is paid once per *batch* instead of
    once per point.

    Masked convergence / eviction: replicas that converge within a step
    freeze until the next step; a replica that fails (non-finite update,
    singular block, or the iteration cap) is **evicted** -- its slot in
    the returned list is ``None`` and the survivors continue unperturbed.
    There is no escalation ladder here: callers replay evicted points
    through their own retry path (see
    ``repro.cells.characterize._solve_point_resilient``), so one bad
    corner never voids the batch.  A :class:`SolverBudget` bounds the
    whole batch; exhaustion raises
    :class:`~repro.errors.SolverBudgetError` (the batch, unlike a
    replica, cannot be partially salvaged).

    Returns one :class:`TransientResult` per input circuit, in order,
    with ``None`` for evicted replicas.  All results share the batch's
    :class:`SolverStats` object.
    """
    return _lockstep(circuits, t_stop, dt, record, method, budget,
                     escalate=False)


def _lockstep(
    circuits: list[Circuit],
    t_stop: float,
    dt: float,
    record: list[str] | None,
    method: str,
    budget: SolverBudget | None,
    escalate: bool,
) -> list[TransientResult | None]:
    """The transient stepper behind :func:`transient` and
    :func:`transient_grid`.

    ``escalate`` picks the failure policy per solve: walk the escalation
    ladder and raise (the single-circuit entry point), or evict the
    failing replicas and carry on with the rest (the grid).
    """
    if not np.isfinite(dt) or not np.isfinite(t_stop) \
            or dt <= 0 or t_stop <= 0:
        raise ConfigError("t_stop and dt must be finite and positive",
                          field="dt")
    if method not in ("be", "trap"):
        raise ConfigError(f"unknown integration method {method!r}",
                          field="method")
    if t_stop / dt > _MAX_TRANSIENT_STEPS:
        raise ConfigError(
            f"oversized transient: t_stop/dt = {t_stop / dt:.3g} steps "
            f"exceeds the {_MAX_TRANSIENT_STEPS} cap", field="dt")
    system = _make_system(circuits)
    g = system.n_replicas
    record = system.nodes if record is None else record
    record_idx = [system.index(node) for node in record]  # validate early

    # Snap dt down so the grid lands exactly on t_stop (never simulate a
    # window short or long of the request).  The 1e-9 slack absorbs
    # representation error when t_stop/dt is an exact integer in real
    # arithmetic.
    n_steps = max(1, int(np.ceil(t_stop / dt - 1e-9)))
    dt_eff = t_stop / n_steps
    time = np.linspace(0.0, t_stop, n_steps + 1)
    tracker = budget.tracker() if budget is not None else None
    stats = SolverStats(timesteps=n_steps, dt_effective=dt_eff)

    # Every source value for the whole run, evaluated once (shared
    # waveforms once per batch): (n_steps+1, G, n_sources).
    src_grid = system.source_grid(time)
    alive = np.ones(g, dtype=bool)

    def solve(x, step, cap_companion):
        """One lockstep solve at ``time[step]`` under the failure policy."""
        if escalate:
            x, its = _solve_with_gmin_stepping(
                system, x, src_grid[step], time[step], cap_companion,
                tracker, stats)
        else:
            its, converged = _newton_solve(
                system, x, src_grid[step], GMIN_DEFAULT, cap_companion,
                tracker, alive=alive)
            alive[:] &= converged
        stats.newton_iterations += its
        return x

    # The whole run records into one preallocated array; per-node
    # waveforms are sliced out once at the end.
    solution = np.empty((n_steps + 1, g, system.dim))
    kind = "transient" if escalate else "transient_grid"
    with telemetry.span(f"spice.{kind}", circuit=circuits[0].title,
                        replicas=g, t_stop=t_stop, steps=n_steps) as sp:
        # A replica that fails the DC start is evicted outright.
        x = solve(np.zeros((g, system.dim)), 0, None)
        solution[0] = x

        scale = 1.0 if method == "be" else 2.0
        geq = scale * system.cap_c / dt_eff  # (G, n_caps)
        v_cap_prev = system.cap_voltages(x)
        i_cap_prev = np.zeros_like(v_cap_prev)  # currents start from DC (0)
        for step in range(1, n_steps + 1):
            if not alive.any():
                break
            if method == "be":
                # i_C = C/dt * (v - v_prev): geq = C/dt, ieq = -C/dt * v_prev.
                ieq = -geq * v_cap_prev
            else:
                # Trapezoidal: i = 2C/dt * (v - v_prev) - i_prev.
                ieq = -geq * v_cap_prev - i_cap_prev
            x = solve(x, step, (geq, ieq))
            v_cap_new = system.cap_voltages(x)
            if method == "trap":
                i_cap_prev = geq * (v_cap_new - v_cap_prev) - i_cap_prev
            v_cap_prev = v_cap_new
            solution[step] = x
        _finish_stats(stats, system, tracker)
        if telemetry.enabled():
            sp.set(newton_iterations=stats.newton_iterations,
                   gmin_steps=stats.gmin_steps,
                   source_steps=stats.source_steps,
                   survivors=int(alive.sum()),
                   evicted=int(g - alive.sum()),
                   dt_effective=dt_eff)
            _record_solver_metrics(kind, stats)

    # Slice out recorded nodes; a trailing zero column serves ground
    # aliases (index -1) without per-step special-casing.
    extended = np.concatenate(
        [solution, np.zeros((n_steps + 1, g, 1))], axis=2)
    results: list[TransientResult | None] = []
    for r, circuit in enumerate(circuits):
        if not alive[r]:
            results.append(None)
            continue
        volts = {
            n: np.ascontiguousarray(extended[:, r, i])
            for n, i in zip(record, record_idx)
        }
        src_currents = {
            s.name: np.ascontiguousarray(solution[:, r, system.n_nodes + k])
            for k, s in enumerate(circuit.sources)
        }
        results.append(TransientResult(
            time=time,
            voltages=volts,
            source_currents=src_currents,
            circuit_title=circuit.title,
            dt_effective=dt_eff,
            stats=stats,
        ))
    return results
