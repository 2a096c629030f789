"""Measurement helpers shared by the benchmark workloads.

Everything here but :func:`probe` is stdlib-only so it can be
unit-tested without the program under test: the in-memory span tracer
and self-time attribution, the host-speed meter, the tail-percentile
rule, operation/failure accounting, the pass loop that fills a run's
time window, and reference comparison.
"""

from __future__ import annotations

import math
import statistics
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from fractions import Fraction

TAIL_LEVELS = (50.0, 90.0, 95.0, 99.0, 99.9, 99.99)
"""Percentile levels the tail rule chooses from (highest first wins)."""

TAIL_MIN_BEYOND = 10
"""A tail percentile is reported only with this many samples beyond it."""


# ---------------------------------------------------------------------- #
# Host speed
# ---------------------------------------------------------------------- #
PROBE_REFERENCE_S = 0.026
""":func:`probe`'s duration on the reference host (a 2-vCPU 2.1 GHz Xeon
VM with its CPU to itself); times "at reference speed" are seconds
there."""

PROBE_INTERVAL_S = 0.5
"""Least work time between two probes at layer boundaries."""


def probe() -> float:
    """Run a fixed reference computation once; return its wall time.

    Interpreter arithmetic, dict updates and small numpy operations, the
    mix the program's layers spend their time in.  It never changes, so
    its duration measures only the host's current speed.
    """
    import numpy as np

    t0 = time.perf_counter()
    acc = 0
    for i in range(250_000):
        acc += i * i
    table: dict[int, int] = {}
    for i in range(50_000):
        table[i % 509] = table.get(i % 509, 0) + 1
    a = np.linspace(0.0, 1.0, 256)
    for _ in range(2_500):
        a = np.sqrt(a * a + 1.0) - 1.0
    return time.perf_counter() - t0


class Meter:
    """Expresses work time at the reference host's speed.

    The benchmark's host shares its CPUs with other machines, and its
    speed drops to about half and recovers on a scale of seconds to
    minutes, for the program and :func:`probe` alike.  The meter runs
    the probe right before and after each timed body and at the body's
    layer boundaries (:meth:`tick`, at most once per ``interval_s``),
    and scales the body's time, without the probes, by
    ``reference_s / mean probe duration`` over those probes.
    """

    def __init__(self, probe=probe, reference_s: float = PROBE_REFERENCE_S,
                 interval_s: float = PROBE_INTERVAL_S,
                 clock=time.perf_counter):
        self.durations: list[float] = []
        self._probe = probe
        self._reference_s = reference_s
        self._interval_s = interval_s
        self._clock = clock
        self._probing_s = 0.0
        self._last = clock()

    def due(self) -> bool:
        return self._clock() - self._last >= self._interval_s

    def run_probe(self) -> None:
        duration = self._probe()
        self.durations.append(duration)
        self._probing_s += duration
        self._last = self._clock()

    def tick(self) -> None:
        if self.due():
            self.run_probe()

    def timed(self, body) -> tuple[float, float]:
        """Run ``body()``; return its wall time without the probes run
        inside it, and that time at reference speed."""
        self.run_probe()
        first = len(self.durations) - 1
        probing_before = self._probing_s
        t0 = self._clock()
        body()
        work = self._clock() - t0 - (self._probing_s - probing_before)
        self.run_probe()
        speed = statistics.fmean(self.durations[first:])
        return work, work * self._reference_s / speed


# ---------------------------------------------------------------------- #
# Spans
# ---------------------------------------------------------------------- #
@dataclass
class Span:
    """One timed interval; ``parent`` indexes the enclosing span."""

    name: str
    start: float
    end: float = 0.0
    parent: int | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder for one thread of benchmark code.

    Disabled, :meth:`span` records nothing, so untraced runs pay only the
    context-manager call around each layer call.  Spans nest lexically;
    the root spans are the benchmark's phases (``setup``/``pass``).
    With a :class:`Meter`, every span boundary is a point where the
    meter may probe; traced, a probe is a ``host.probe`` span.
    """

    def __init__(self, enabled: bool, clock=time.perf_counter,
                 meter: Meter | None = None):
        self.enabled = enabled
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._clock = clock
        self._meter = meter

    @contextmanager
    def span(self, name: str):
        self._tick()
        if self.enabled:
            with self._recorded(name):
                yield
        else:
            yield
        self._tick()

    def _tick(self) -> None:
        if self._meter is None:
            return
        if not self.enabled:
            self._meter.tick()
        elif self._meter.due():
            with self._recorded("host.probe"):
                self._meter.run_probe()

    @contextmanager
    def _recorded(self, name: str):
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, self._clock(), parent=parent))
        index = len(self.spans) - 1
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index].end = self._clock()

    def to_json(self) -> list[dict]:
        return [
            {"name": s.name, "start": s.start, "end": s.end,
             "parent": s.parent}
            for s in self.spans
        ]


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its direct children cover.

    Children of one span run sequentially on one thread, so the part
    of the parent they cover is the sum of their durations.
    """
    out = [s.duration for s in spans]
    for s in spans:
        if s.parent is not None:
            out[s.parent] -= s.duration
    return out


def root_of(spans: list[Span], index: int) -> int:
    while spans[index].parent is not None:
        index = spans[index].parent
    return index


def layer_seconds(spans: list[Span]) -> dict[str, float]:
    """Self time per span name, per root phase.

    A layer's seconds are summed within each phase (root span name) and
    divided by how many roots of that phase ran, so a layer called in
    set-up (repeated for the median) and in every measured pass reports
    its cost for one set-up plus one pass.
    """
    selfs = self_times(spans)
    roots: dict[str, int] = {}
    for s in spans:
        if s.parent is None:
            roots[s.name] = roots.get(s.name, 0) + 1
    out: dict[str, float] = {}
    for i, s in enumerate(spans):
        if s.parent is None:
            continue
        phase = spans[root_of(spans, i)].name
        out[s.name] = out.get(s.name, 0.0) + selfs[i] / roots[phase]
    return out


def unattributed_share(spans: list[Span], root_name: str = "pass") -> float:
    """Share of the ``root_name`` spans' time that no child span covers."""
    selfs = self_times(spans)
    total = covered_by_none = 0.0
    for i, s in enumerate(spans):
        if s.parent is None and s.name == root_name:
            total += s.duration
            covered_by_none += selfs[i]
    return covered_by_none / total if total > 0 else 0.0


def span_cost_s(samples: int = 20000) -> float:
    """Measured cost of one enabled span enter/exit on this host."""
    tracer = Tracer(True)
    t0 = time.perf_counter()
    for _ in range(samples):
        with tracer.span("probe"):
            pass
    return (time.perf_counter() - t0) / samples


# ---------------------------------------------------------------------- #
# Statistics
# ---------------------------------------------------------------------- #
def tail_percentile(samples) -> tuple[float, float, int] | None:
    """The highest of :data:`TAIL_LEVELS` with >= 10 samples beyond it.

    Returns ``(level, value, beyond)`` using nearest-rank percentiles,
    where ``beyond`` counts the samples ranked above the percentile's
    rank.  ``None`` when even the median has fewer than ten beyond it.
    Failed operations enter as ``math.inf`` so they count as missing
    any latency limit.
    """
    ordered = sorted(samples)
    n = len(ordered)
    for level in sorted(TAIL_LEVELS, reverse=True):
        rank = max(1, math.ceil(Fraction(str(level)) * n / 100))
        beyond = n - rank
        if beyond >= TAIL_MIN_BEYOND:
            return level, ordered[rank - 1], beyond
    return None


def median(values) -> float:
    return float(statistics.median(values))


@dataclass
class Tally:
    """Operations attempted and failed, with a note per failure.

    ``error_rate`` = failed / attempted: every output check, every
    degraded or quarantined cell and every non-200 or wrong-label
    response is one operation.
    """

    attempted: int = 0
    failed: int = 0
    notes: list[str] = field(default_factory=list)
    _lock: threading.Lock = field(default_factory=threading.Lock,
                                  repr=False, compare=False)

    def record(self, ok: bool, what: str) -> bool:
        """Count one operation; load-generator threads share a tally."""
        with self._lock:
            self.attempted += 1
            if not ok:
                self.failed += 1
                if len(self.notes) < 50:
                    self.notes.append(what)
        return ok

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


class Counts(dict):
    """Per-layer counters summed over passes (``per_pass`` averages)."""

    def add(self, name: str, value: float) -> None:
        self[name] = self.get(name, 0) + value

    def per_pass(self, passes: int) -> dict[str, float]:
        return {k: v / passes for k, v in self.items()}


def run_passes(body, seconds: float, meter: Meter,
               clock=time.perf_counter) -> tuple[list[float], list[float]]:
    """Run ``body()`` repeatedly inside a ``seconds`` window.

    At least one pass runs; another starts only while the window still
    has room for a pass (with its probes) as long as the median one so
    far, so a run never overshoots its window by a whole pass.  Returns
    each pass's wall time and its time at reference speed
    (:meth:`Meter.timed`).
    """
    raw: list[float] = []
    at_reference: list[float] = []
    spans: list[float] = []
    t_end = clock() + seconds
    while True:
        t0 = clock()
        work, scaled = meter.timed(body)
        raw.append(work)
        at_reference.append(scaled)
        spans.append(clock() - t0)
        if clock() + median(spans) > t_end:
            return raw, at_reference


def send_on_schedule(due, send, clock=time.perf_counter,
                     sleep=time.sleep) -> tuple[float, float]:
    """Open-loop sender: call ``send(i)`` at ``t0 + due[i]``.

    Never waits for replies, so a slow system receives the same load.
    Returns ``(t0, late_max)``: the schedule origin, against which
    latency is timed from each request's due time, and how late the
    generator itself ran (s).
    """
    late_max = 0.0
    t0 = clock()
    for i, offset in enumerate(due):
        wait = t0 + offset - clock()
        if wait > 0:
            sleep(wait)
        late_max = max(late_max, clock() - (t0 + offset))
        send(i)
    return t0, late_max


# ---------------------------------------------------------------------- #
# Reference comparison
# ---------------------------------------------------------------------- #
RTOL = 1e-9


def _close(a, b, rtol: float) -> bool:
    if isinstance(a, bool) or isinstance(b, bool):
        return a is b
    if isinstance(a, int) and isinstance(b, int):
        return a == b
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        return math.isclose(a, b, rel_tol=rtol, abs_tol=0.0)
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(_close(x, y, rtol)
                                        for x, y in zip(a, b))
    return a == b


def compare(outputs: dict, reference: dict, tally: Tally,
            rtol: float = RTOL) -> None:
    """One tally operation per output key: exact for ints and strings,
    ``rtol`` for floats (element-wise for lists).  A key missing on
    either side fails."""
    for key in sorted(set(outputs) | set(reference)):
        if key not in reference:
            tally.record(False, f"{key}: no reference value")
        elif key not in outputs:
            tally.record(False, f"{key}: not produced")
        else:
            tally.record(_close(outputs[key], reference[key], rtol),
                         f"{key}: got {outputs[key]!r}, "
                         f"reference {reference[key]!r}")


def moved(old: dict, new: dict, rtol: float = RTOL) -> list[str]:
    """Keys whose value differs between two reference sets."""
    return [k for k in sorted(set(old) | set(new))
            if k not in old or k not in new
            or not _close(new[k], old[k], rtol)]
