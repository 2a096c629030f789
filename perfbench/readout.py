"""``readout``: Table 2 / Fig. 7 classification on the ISS, plus SEU.

One pass calibrates kNN and HDC classifiers from seeded Falcon readout
datasets at growing qubit counts, runs each kernel on the RISC-V ISS
(long runs with hot decode caches) and checks the ISS labels against
the host classifiers.  It then runs an SEU injection campaign on the
kNN kernel without and with software TMR: many short re-runs with
state flipped mid-run, some hanging to the watchdog cycle cap.

The sizes keep a pass to a few seconds so that a run holds several
passes and reports their median.  The seed picks the readout datasets,
the HDC item memory and the fault plan.
"""

from __future__ import annotations

import time

import numpy as np

from repro.classify import HDCEncoder, get_classifier
from repro.quantum import falcon_backend, generate_dataset
from repro.reliability import CampaignConfig, knn_workload, run_campaign
from repro.soc import RocketSoC
from repro.soc.programs import pack_hdc_tables

NAME = "readout"
WHY = ("the ISS does most of the work: long classification runs with hot "
       "decode caches beside many short SEU re-runs")

KNN_QUBITS = (20, 100, 200)
HDC_QUBITS = (20, 60)
SHOTS = 15
CAMPAIGN_QUBITS = 8
CAMPAIGN_SHOTS = 12
INJECTIONS = 50
CAMPAIGN_SEED = 0
"""Seeds the campaign's readout data and fault plan.  Hangs run to the
watchdog cycle cap, so the campaign's cost depends on its fault plan;
one fixed plan keeps the work equal across seeds."""


def setup(variant: int, tracer) -> dict:
    datasets = {}
    for nq in sorted(set(KNN_QUBITS + HDC_QUBITS)):
        datasets[nq] = _dataset(tracer, nq, variant)
    return {"datasets": datasets,
            "campaign": _dataset(tracer, CAMPAIGN_QUBITS, CAMPAIGN_SEED),
            "encoder": HDCEncoder.random(seed=variant)}


def _dataset(tracer, n_qubits: int, seed: int):
    with tracer.span("quantum.dataset"):
        backend = falcon_backend(n_qubits=n_qubits, seed=seed)
        return generate_dataset(backend, n_shots=SHOTS,
                                n_calibration_shots=256, seed=seed + 1)


def _iss(tracer, counts, run):
    with tracer.span("soc.run"):
        t0 = time.perf_counter()
        result = run()
        counts.add("soc.host_s", time.perf_counter() - t0)
    counts.add("soc.instructions", result.stats.instructions)
    counts.add("soc.cycles", result.stats.cycles)
    return result


def run_pass(inputs: dict, tracer, counts, tally) -> dict:
    out: dict = {}
    for kind, qubits in (("knn", KNN_QUBITS), ("hdc", HDC_QUBITS)):
        for nq in qubits:
            dataset = inputs["datasets"][nq]
            centers = dataset.calibration_centers
            _, _, points = dataset.interleaved()
            with tracer.span("classify.calibrate"):
                if kind == "knn":
                    model = get_classifier("knn").from_centers(centers)
                else:
                    model = get_classifier("hdc").from_centers(
                        centers, encoder=inputs["encoder"])
            with tracer.span("classify.predict"):
                expected = model.predict(points)
            counts.add("classify.shots", len(points))
            if kind == "knn":
                result = _iss(tracer, counts, lambda: RocketSoC()
                              .run_knn(centers, points, nq))
            else:
                tables = pack_hdc_tables(model.encoder.y_items,
                                         xc0=model.xc_tables[:, 0],
                                         xc1=model.xc_tables[:, 1])
                result = _iss(tracer, counts, lambda: RocketSoC()
                              .run_hdc(tables, points, nq))
            tally.record(np.array_equal(result.labels, expected),
                         f"{kind}-{nq}: ISS labels differ from predict")
            out[f"{kind}.{nq}.cycles_per_classification"] = \
                result.stats.cycles / len(points)

    dataset = inputs["campaign"]
    _, _, points = dataset.interleaved()
    spec = knn_workload(dataset.calibration_centers,
                        points[:CAMPAIGN_SHOTS * CAMPAIGN_QUBITS],
                        CAMPAIGN_QUBITS)
    for label, tmr in (("seu", False), ("seu_tmr", True)):
        config = CampaignConfig(n_injections=INJECTIONS,
                                seed=CAMPAIGN_SEED, tmr=tmr)
        with tracer.span("reliability.campaign"):
            campaign = run_campaign(spec, config)
        buckets = campaign.counts()
        counts.add("reliability.injections", len(campaign.records))
        counts.add("reliability.hangs", buckets.get("hang", 0))
        counts.add("reliability.host_s", campaign.wall_seconds)
        out[f"{label}.golden_cycles"] = int(campaign.golden_cycles)
        for bucket, n in sorted(buckets.items()):
            out[f"{label}.{bucket}"] = int(n)
    return out


def end_to_end(counts: dict) -> dict:
    """ISS and campaign throughput over every pass of the run."""
    return {
        "sim_minstr_per_s": (counts["soc.instructions"] / 1e6
                             / counts["soc.host_s"], "Minstr/s"),
        "injections_per_s": (counts["reliability.injections"]
                             / counts["reliability.host_s"], "1/s"),
    }
