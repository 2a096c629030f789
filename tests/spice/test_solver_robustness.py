"""Solver hardening: escalation ladder, budgets, exact time grids."""

from __future__ import annotations

import numpy as np
import pytest

import repro.spice.solver as solver_mod
from repro.errors import ReproError, SolverBudgetError, SolverError
from repro.spice import (
    DC,
    Circuit,
    ConvergenceError,
    SolverBudget,
    dc_operating_point,
    transient,
)
from repro.spice.mna import GMIN_DEFAULT


def _rc_circuit(vdd: float = 0.7) -> Circuit:
    c = Circuit("rc")
    c.add_vsource("vin", "in", "0", DC(vdd))
    c.add_resistor("r1", "in", "out", 1e3)
    c.add_capacitor("c1", "out", "0", 1e-12)
    return c


class TestErrorTaxonomy:
    def test_convergence_error_is_solver_error(self):
        assert issubclass(ConvergenceError, SolverError)
        assert issubclass(SolverError, ReproError)
        assert issubclass(ReproError, RuntimeError)  # legacy handlers

    def test_budget_error_is_solver_error(self):
        assert issubclass(SolverBudgetError, SolverError)


class TestSingularAndPathological:
    def test_singular_matrix_reports_full_escalation(self):
        # Two ideal sources forcing different voltages on the same node:
        # the MNA matrix is structurally singular at every gmin and every
        # source scale.
        c = Circuit("conflict")
        c.add_vsource("v1", "a", "0", DC(0.5))
        c.add_vsource("v2", "a", "0", DC(0.3))
        with pytest.raises(ConvergenceError) as err:
            dc_operating_point(c)
        msg = str(err.value)
        assert "gmin ladder" in msg
        assert "source stepping" in msg

    def test_singular_transient_also_raises(self):
        c = Circuit("conflict")
        c.add_vsource("v1", "a", "0", DC(0.5))
        c.add_vsource("v2", "a", "0", DC(0.3))
        with pytest.raises(ConvergenceError):
            transient(c, 1e-9, 1e-10, record=["a"])


class TestEscalationLadder:
    def test_midladder_failure_falls_through_to_source_stepping(
        self, monkeypatch
    ):
        """A gmin-ladder failure must not escape as a bare error: the
        solver must try source stepping and succeed if it can."""
        calls = []
        state = {"source_mode": False}
        real = solver_mod._newton_solve

        def flaky(system, x, source_values, gmin, cap_companion, tracker,
                  source_scale=1.0, alive=None):
            calls.append((gmin, source_scale))
            if source_scale < 1.0:
                state["source_mode"] = True  # continuation has begun
            if not state["source_mode"]:
                raise ConvergenceError(f"forced failure at gmin={gmin}")
            return real(system, x, source_values, gmin, cap_companion,
                        tracker, source_scale=source_scale, alive=alive)

        monkeypatch.setattr(solver_mod, "_newton_solve", flaky)
        op = dc_operating_point(_rc_circuit())
        assert op["in"] == pytest.approx(0.7, abs=1e-6)
        # Plain attempt, then the gmin ladder broke mid-way, then the
        # source ladder ran to scale 1.0.
        assert calls[0] == (GMIN_DEFAULT, 1.0)
        assert any(scale < 1.0 for _gmin, scale in calls)
        assert calls[-1] == (GMIN_DEFAULT, 1.0)

    def test_source_stepping_failure_keeps_ladder_context(
        self, monkeypatch
    ):
        def always_fails(system, x, source_values, gmin, cap_companion,
                         tracker, source_scale=1.0, alive=None):
            raise ConvergenceError(
                f"forced failure (gmin={gmin}, scale={source_scale})"
            )

        monkeypatch.setattr(solver_mod, "_newton_solve", always_fails)
        with pytest.raises(ConvergenceError) as err:
            dc_operating_point(_rc_circuit())
        msg = str(err.value)
        assert "plain NR failed" in msg
        assert "gmin ladder failed at gmin=0.001" in msg
        assert "source stepping failed" in msg


class TestSolverBudget:
    def test_iteration_budget_exhaustion(self):
        with pytest.raises(SolverBudgetError):
            dc_operating_point(
                _rc_circuit(), budget=SolverBudget(max_iterations=1)
            )

    def test_wallclock_budget_exhaustion(self):
        with pytest.raises(SolverBudgetError):
            transient(
                _rc_circuit(), 1e-9, 1e-12,
                budget=SolverBudget(max_seconds=0.0),
            )

    def test_generous_budget_does_not_interfere(self):
        op = dc_operating_point(
            _rc_circuit(),
            budget=SolverBudget(max_iterations=10_000, max_seconds=60.0),
        )
        assert op["out"] == pytest.approx(0.7, abs=1e-6)


class TestTimeGrid:
    def test_non_multiple_t_stop_is_simulated_exactly(self):
        # 1 ns / 0.3 ns is not an integer: the old grid stopped at
        # 0.9 ns.  The step must snap down, never up.
        res = transient(_rc_circuit(), 1e-9, 0.3e-9, record=["out"])
        assert res.time[-1] == pytest.approx(1e-9, rel=1e-12)
        assert res.dt_effective <= 0.3e-9 + 1e-24
        assert len(res.time) == 5  # ceil(1/0.3) = 4 steps
        steps = np.diff(res.time)
        assert np.allclose(steps, res.dt_effective)

    def test_exact_multiple_keeps_requested_step(self):
        res = transient(_rc_circuit(), 1e-9, 0.25e-9, record=["out"])
        assert res.dt_effective == pytest.approx(0.25e-9, rel=1e-12)
        assert len(res.time) == 5
        assert res.time[-1] == pytest.approx(1e-9, rel=1e-12)

    def test_tiny_t_stop_still_takes_a_step(self):
        res = transient(_rc_circuit(), 1e-13, 1e-12, record=["out"])
        assert len(res.time) == 2
        assert res.time[-1] == pytest.approx(1e-13, rel=1e-12)

    def test_rc_charge_physics_unchanged(self):
        from repro.spice import ramp

        # Step the input after t=0; tau = 1 ns, so after 7+ tau the
        # output has charged to ~vdd regardless of the grid snap.
        c = Circuit("rc_step")
        c.add_vsource("vin", "in", "0", ramp(0.1e-9, 0.1e-9, 0.0, 0.7))
        c.add_resistor("r1", "in", "out", 1e3)
        c.add_capacitor("c1", "out", "0", 1e-12)
        res = transient(c, 8.05e-9, 0.03e-9, record=["out"])
        v = res.voltages["out"]
        assert v[0] == pytest.approx(0.0, abs=1e-6)
        assert v[-1] == pytest.approx(0.7, abs=5e-3)
        assert res.time[-1] == pytest.approx(8.05e-9, rel=1e-12)
