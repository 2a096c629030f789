"""``serve``: the classification service under an open and a closed loop.

An in-process :class:`~repro.serve.ServerThread` serves calibrated kNN
and HDC models.  The load is mixed kNN/HDC, half 27-shot requests (one
readout round of the 27-qubit Falcon) and half 1024-shot requests.

* Open loop: independent arrivals at a fixed offered rate below
  saturation, sent by the main thread on one connection while a reader
  thread collects replies.  Latency runs from each request's *due*
  time, so a stall also charges the requests queued behind it, and the
  generator reports how late it ran.
* Closed loop: two connections, each waiting for its reply before the
  next request; a pass is a fixed request list, so its time measures
  sustained throughput.

The generator never uses more threads or connections than there are
cores (two); like every run, the process, server included, is pinned
to one CPU (``run.pin_to_one_cpu``).  The seed picks the readout data,
the calibration draw and the request mix and arrival times.
"""

from __future__ import annotations

import math
import os
import socket
import threading
import time

import numpy as np

from harness import median, run_passes, send_on_schedule, tail_percentile
from repro.errors import ServeError
from repro.quantum import falcon_backend, generate_dataset
from repro.serve import ModelRegistry, ServeConfig, ServerThread
from repro.serve.protocol import (
    encode_op_request,
    encode_request,
    parse_response,
    raise_for_response,
)

NAME = "serve"
WHY = ("the only workload that runs serve and observe.live: small requests "
       "stress per-request cost, large ones batched predict")

N_QUBITS = 27
CALIBRATION_SHOTS = 128
SIZES = (27, 1024)
PAYLOADS_PER_SIZE = 4
MODELS = ("knn", "hdc")
OPEN_LOOP_S = 12.0
OFFERED_RPS = 50.0
"""Open-loop arrival rate: ~26k shots/s offered, below saturation even
on one CPU of a host running at a third of its usual speed."""
CLOSED_ROUNDS = 12
"""Closed-loop pass: each client sends every request kind this often."""
CLIENTS = max(1, min(2, os.cpu_count() or 1))
REPLY_TIMEOUT_S = 30.0


class _Conn:
    """One client socket sending pre-encoded request lines."""

    def __init__(self, host: str, port: int):
        self.sock = socket.create_connection((host, port),
                                             timeout=REPLY_TIMEOUT_S)
        self.file = self.sock.makefile("rwb")

    def send(self, line: bytes) -> None:
        self.file.write(line)
        self.file.flush()

    def receive(self) -> dict | None:
        line = self.file.readline()
        return parse_response(line) if line else None

    def close(self) -> None:
        try:
            self.file.close()
        finally:
            self.sock.close()


_ID_PREFIX = b'{"id": 0'


def _line(req_id: int, body: bytes) -> bytes:
    return b'{"id": %d' % req_id + body


def setup(variant: int, tracer) -> dict:
    with tracer.span("classify.calibrate"):
        registry = ModelRegistry.calibrated(
            n_qubits=N_QUBITS, n_calibration_shots=CALIBRATION_SHOTS,
            seed=variant)
    with tracer.span("quantum.dataset"):
        backend = falcon_backend(n_qubits=N_QUBITS, seed=variant)
        dataset = generate_dataset(backend, n_shots=200, seed=variant + 1)
    _, _, points = dataset.interleaved()

    # Request bodies are encoded once here; the generator only prefixes
    # the request id, so its own cost stays off the latency schedule.
    kinds = []
    for model in MODELS:
        for size in SIZES:
            for k in range(PAYLOADS_PER_SIZE):
                start = (k * size) % (len(points) - size)
                iq = points[start:start + size]
                with tracer.span("classify.predict"):
                    expected = registry.get(model).predict(iq)
                encoded = encode_request(0, model, iq)
                if not encoded.startswith(_ID_PREFIX):
                    raise RuntimeError("request line no longer starts "
                                       "with its id")
                kinds.append({"body": encoded[len(_ID_PREFIX):],
                              "shots": size, "expected": expected})

    # Every request list is whole shuffled rounds of all kinds, so the
    # offered shots are the same for every seed; only order and arrival
    # times vary.
    rng = np.random.default_rng(variant)

    def rounds(n: int) -> list[int]:
        return [int(k) for _ in range(n) for k in rng.permutation(len(kinds))]

    open_kinds = rounds(round(OPEN_LOOP_S * OFFERED_RPS / len(kinds)))
    due = np.cumsum(rng.exponential(1.0 / OFFERED_RPS, size=len(open_kinds)))
    open_loop = list(zip(due.tolist(), open_kinds))
    closed = [rounds(CLOSED_ROUNDS) for _ in range(CLIENTS)]

    with tracer.span("serve.start"):
        server = ServerThread(registry, ServeConfig()).start()
    return {"server": server, "kinds": kinds, "open_loop": open_loop,
            "closed": closed}


def teardown(inputs: dict) -> None:
    server = inputs.pop("server", None)
    if server is not None:
        server.stop()


def _check(doc, kind, tally, queue_ms: list) -> bool:
    ok = bool(doc and doc.get("ok")) and np.array_equal(
        np.asarray(doc["labels"], dtype=int), kind["expected"])
    if doc and doc.get("ok"):
        queue_ms.append(doc.get("queue_ms", 0.0))
    code = doc.get("code") if doc else "no reply"
    return tally.record(ok, f"request failed: code {code} or wrong labels")


def _open_loop(inputs, tally, queue_ms) -> tuple[list[float], float]:
    server = inputs["server"]
    kinds = inputs["kinds"]
    schedule = inputs["open_loop"]
    conn = _Conn(server.host, server.port)
    replies: dict[int, tuple[float, dict]] = {}

    def read() -> None:
        # A request with no reply counts as failed in the tally below.
        try:
            for _ in schedule:
                doc = conn.receive()
                if doc is None:
                    return
                replies[doc.get("id")] = (time.perf_counter(), doc)
        except (OSError, ServeError):
            return

    reader = threading.Thread(target=read, name="perfbench-reader")
    reader.start()
    try:
        t0, late_max = send_on_schedule(
            [due for due, _ in schedule],
            lambda i: conn.send(_line(i, kinds[schedule[i][1]]["body"])))
        reader.join(timeout=REPLY_TIMEOUT_S)
    finally:
        conn.close()
        reader.join(timeout=REPLY_TIMEOUT_S)

    latencies = []
    for req_id, (due, k) in enumerate(schedule):
        t_reply, doc = replies.get(req_id, (math.inf, None))
        ok = _check(doc, kinds[k], tally, queue_ms)
        # A failed request enters at the reply timeout, beyond any limit.
        latencies.append(t_reply - (t0 + due) if ok else REPLY_TIMEOUT_S)
    return latencies, late_max


def _closed_pass(inputs, conns, tally, queue_ms) -> None:
    kinds = inputs["kinds"]

    def client(conn, order) -> None:
        for req_id, k in enumerate(order):
            try:
                conn.send(_line(req_id, kinds[k]["body"]))
                doc = conn.receive()
            except (OSError, ServeError):
                doc = None      # counted as a failed request below
            _check(doc, kinds[k], tally, queue_ms)

    threads = [threading.Thread(target=client, args=(c, order))
               for c, order in zip(conns[1:], inputs["closed"][1:])]
    for t in threads:
        t.start()
    client(conns[0], inputs["closed"][0])
    for t in threads:
        t.join(timeout=REPLY_TIMEOUT_S * len(kinds) * CLOSED_ROUNDS)


def measure(inputs: dict, tracer, counts, tally, seconds: float, meter):
    t_start = time.perf_counter()
    queue_ms: list[float] = []
    with tracer.span("openloop"):
        with tracer.span("serve.open_loop"):
            latencies, late_max = _open_loop(inputs, tally, queue_ms)

    server = inputs["server"]
    conns = [_Conn(server.host, server.port) for _ in range(CLIENTS)]

    def one_pass() -> None:
        with tracer.span("pass"):
            with tracer.span("serve.closed_loop"):
                _closed_pass(inputs, conns, tally, queue_ms)

    try:
        remaining = seconds - (time.perf_counter() - t_start)
        pass_times, ref_times = run_passes(one_pass, remaining, meter)
        conns[0].send(encode_op_request("stats", req_id="stats"))
        stats = raise_for_response(conns[0].receive())["stats"]["counters"]
    finally:
        for conn in conns:
            conn.close()
    # stop() cancels handlers of connections still open, which asyncio
    # logs as an error; give the server a moment to see the clients' EOF.
    time.sleep(0.2)
    record = server.stop()
    del inputs["server"]

    kinds = inputs["kinds"]
    pass_shots = sum(kinds[k]["shots"] for order in inputs["closed"]
                     for k in order)
    batches = record.metrics.get("serve.batches", 0)
    p50 = median(latencies) * 1e3
    tail = tail_percentile(latencies)
    level, tail_s, beyond = tail if tail else (50.0, median(latencies), 0)
    extras = {
        "serve_lat_p50_ms": (p50, "ms"),
        "serve_lat_tail_ms": (tail_s * 1e3, "ms",
                              f"p{level:g}, {beyond} samples beyond, "
                              f"n={len(latencies)}"),
        "serve_shots_per_s": (pass_shots / median(pass_times), "shots/s"),
    }
    layers = {
        "serve.requests": stats["serve.requests"],
        "serve.failed": (stats["serve.deadline_expired"]
                         + stats["serve.internal_errors"]
                         + stats["serve.bad_requests"]
                         + stats["serve.unknown_model"]),
        "serve.rejected": stats["serve.rejected"],
        "serve.batches": batches,
        "serve.batch_shots_mean": (stats["serve.shots"] / batches
                                   if batches else 0.0),
        "serve.queue_ms_p50": median(queue_ms or [0.0]),
        "loadgen.late_ms_max": late_max * 1e3,
    }
    return ((pass_times, ref_times), [],
            {"end_to_end": extras, "layers": layers})
