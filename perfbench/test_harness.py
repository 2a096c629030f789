"""Tests for the benchmark's own measurement helpers.

Run with ``python3 -m pytest perfbench/test_harness.py``.
"""

import math

import pytest

from harness import (
    Counts,
    Meter,
    Tally,
    Tracer,
    compare,
    layer_seconds,
    moved,
    run_passes,
    self_times,
    send_on_schedule,
    tail_percentile,
    unattributed_share,
)


class FakeClock:
    """Manual clock: ``sleep`` and ``advance`` move time forward."""

    def __init__(self):
        self.now = 100.0

    def __call__(self) -> float:
        return self.now

    def advance(self, dt: float) -> None:
        self.now += dt

    sleep = advance


# ---------------------------------------------------------------------- #
# Tail percentile: the highest level with >= 10 samples beyond it
# ---------------------------------------------------------------------- #
def test_tail_picks_p99_at_exactly_ten_beyond():
    samples = list(range(1, 1001))
    level, value, beyond = tail_percentile(samples)
    assert (level, value, beyond) == (99.0, 990, 10)


def test_tail_steps_down_when_nine_beyond():
    # 999 samples: p99 has rank 990, only 9 beyond -> p95.
    level, value, beyond = tail_percentile(range(1, 1000))
    assert level == 95.0
    assert beyond == 999 - math.ceil(0.95 * 999)
    assert beyond >= 10


def test_tail_reaches_p999_with_ten_thousand_samples():
    level, _, beyond = tail_percentile(range(10000))
    assert level == 99.9 and beyond == 10


def test_tail_none_when_median_has_too_few_beyond():
    assert tail_percentile(range(19)) is None
    assert tail_percentile(range(20))[0] == 50.0


def test_failed_requests_count_as_missing_the_limit():
    samples = [0.001] * 990 + [math.inf] * 10
    level, value, _ = tail_percentile(samples)
    assert level == 99.0 and value == 0.001
    samples = [0.001] * 980 + [math.inf] * 20
    assert tail_percentile(samples)[1] == math.inf


# ---------------------------------------------------------------------- #
# Spans and self time
# ---------------------------------------------------------------------- #
def _traced(clock: FakeClock) -> Tracer:
    tracer = Tracer(True, clock=clock)
    with tracer.span("pass"):
        clock.advance(1.0)                 # unattributed
        with tracer.span("sta.setup"):
            clock.advance(2.0)
            with tracer.span("cells.analytic"):
                clock.advance(3.0)
            clock.advance(0.5)
        with tracer.span("sta.hold"):
            clock.advance(4.0)
    return tracer


def test_self_time_subtracts_nested_children():
    tracer = _traced(FakeClock())
    names = [s.name for s in tracer.spans]
    selfs = dict(zip(names, self_times(tracer.spans)))
    assert selfs == pytest.approx({"pass": 1.0, "sta.setup": 2.5,
                                   "cells.analytic": 3.0, "sta.hold": 4.0})
    assert unattributed_share(tracer.spans) == pytest.approx(1.0 / 10.5)


def test_layer_seconds_divide_by_phase_repeats():
    clock = FakeClock()
    tracer = Tracer(True, clock=clock)
    for _ in range(3):
        with tracer.span("setup"):
            with tracer.span("quantum.dataset"):
                clock.advance(0.3)
    for _ in range(2):
        with tracer.span("pass"):
            with tracer.span("soc.run"):
                clock.advance(5.0)
            with tracer.span("quantum.dataset"):
                clock.advance(1.0)
    seconds = layer_seconds(tracer.spans)
    assert seconds["soc.run"] == pytest.approx(5.0)
    # One set-up (0.3) plus one pass (1.0).
    assert seconds["quantum.dataset"] == pytest.approx(1.3)


def test_disabled_tracer_records_nothing():
    tracer = Tracer(False)
    with tracer.span("pass"):
        with tracer.span("soc.run"):
            pass
    assert tracer.spans == []


def test_span_closes_on_exception():
    clock = FakeClock()
    tracer = Tracer(True, clock=clock)
    with pytest.raises(ValueError):
        with tracer.span("pass"):
            clock.advance(2.0)
            raise ValueError("boom")
    assert tracer.spans[0].duration == pytest.approx(2.0)


# ---------------------------------------------------------------------- #
# error_rate accounting and reference checks
# ---------------------------------------------------------------------- #
def test_error_rate_counts_failed_over_attempted():
    tally = Tally()
    assert tally.error_rate == 0.0
    for ok in (True, True, False, True):
        tally.record(ok, "op")
    assert (tally.attempted, tally.failed) == (4, 1)
    assert tally.error_rate == 0.25
    assert tally.notes == ["op"]


def test_compare_counts_one_operation_per_key():
    tally = Tally()
    reference = {"cycles": 45, "fmax": 1.0e9, "table": [1.0, 2.0],
                 "digest": "ab", "missing": 1}
    outputs = {"cycles": 45, "fmax": 1.0e9 * (1 + 1e-12),
               "table": [1.0, 2.0 * (1 + 1e-6)], "digest": "ab",
               "extra": 3}
    compare(outputs, reference, tally)
    assert tally.attempted == 6
    assert tally.failed == 3          # table, missing, extra
    assert sorted(n.split(":")[0] for n in tally.notes) == [
        "extra", "missing", "table"]


def test_compare_is_exact_for_integers_and_booleans():
    tally = Tally()
    compare({"n": 3, "ok": True}, {"n": 4, "ok": False}, tally)
    assert tally.failed == 2


def test_moved_lists_changed_keys():
    assert moved({"a": 1, "b": 2.0}, {"a": 1, "b": 2.5, "c": 0}) == [
        "b", "c"]


def test_counts_average_per_pass():
    counts = Counts()
    for _ in range(4):
        counts.add("soc.instructions", 10)
    assert counts.per_pass(4) == {"soc.instructions": 10}


# ---------------------------------------------------------------------- #
# Pass loop and open-loop lateness
# ---------------------------------------------------------------------- #
def fake_meter(clock, probe_s=0.5, reference_s=0.25, interval_s=1.0):
    """A meter whose probe takes ``probe_s`` of the fake clock."""

    def probe():
        clock.advance(probe_s)
        return probe_s

    return Meter(probe=probe, reference_s=reference_s,
                 interval_s=interval_s, clock=clock)


def test_run_passes_fills_window_without_a_whole_extra_pass():
    clock = FakeClock()
    meter = fake_meter(clock)
    raw, scaled = run_passes(lambda: clock.advance(3.0), 12.0, meter,
                             clock=clock)
    # Each pass spans 4 s with its two probes; a 4th would end at 16 s.
    assert raw == [3.0, 3.0, 3.0]
    assert scaled == [1.5, 1.5, 1.5]


def test_run_passes_runs_at_least_once():
    clock = FakeClock()
    meter = fake_meter(clock)
    assert run_passes(lambda: clock.advance(5.0), 0.0, meter,
                      clock=clock) == ([5.0], [2.5])


# ---------------------------------------------------------------------- #
# Host-speed meter
# ---------------------------------------------------------------------- #
def test_meter_excludes_inner_probes_and_scales_by_their_mean():
    clock = FakeClock()
    durations = iter([0.5, 1.0, 1.5])       # the host slows down

    def probe():
        d = next(durations)
        clock.advance(d)
        return d

    meter = Meter(probe=probe, reference_s=0.5, interval_s=1.0, clock=clock)

    def body():
        clock.advance(2.0)
        meter.tick()                         # due: probes once, 1.0 s
        clock.advance(0.5)
        meter.tick()                         # not due again yet

    work, scaled = meter.timed(body)
    assert work == pytest.approx(2.5)
    assert scaled == pytest.approx(2.5 * 0.5 / 1.0)
    assert meter.durations == [0.5, 1.0, 1.5]


def test_tracer_span_boundaries_are_probe_points():
    clock = FakeClock()
    meter = fake_meter(clock, interval_s=1.0)
    tracer = Tracer(True, clock=clock, meter=meter)
    with tracer.span("pass"):
        clock.advance(2.0)
        with tracer.span("sta.setup"):      # probe due on entry
            clock.advance(0.2)
    names = [s.name for s in tracer.spans]
    assert names == ["pass", "host.probe", "sta.setup"]
    assert tracer.spans[1].parent == 0
    assert tracer.spans[1].duration == 0.5
    assert len(meter.durations) == 1


def test_open_loop_on_time_when_sends_are_fast():
    clock = FakeClock()
    sent = []
    t0, late = send_on_schedule([0.0, 0.5, 1.0],
                                lambda i: sent.append((i, clock())),
                                clock=clock, sleep=clock.sleep)
    assert late == 0.0
    assert sent == [(0, t0), (1, t0 + 0.5), (2, t0 + 1.0)]


def test_open_loop_reports_lateness_and_keeps_schedule():
    clock = FakeClock()
    sent = []

    def slow_send(i):
        sent.append(clock() - 100.0)
        clock.advance(0.8)                   # a stalled send

    t0, late = send_on_schedule([0.0, 0.5, 1.0, 3.0], slow_send,
                                clock=clock, sleep=clock.sleep)
    # Request 1 was due at 0.5 but went at 0.8; request 2 (due 1.0)
    # went at 1.6; request 3 is back on schedule at 3.0.
    assert sent == pytest.approx([0.0, 0.8, 1.6, 3.0])
    assert late == pytest.approx(0.6)
    assert t0 == 100.0
