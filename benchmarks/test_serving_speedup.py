"""Microbenchmark: the serving drain vs request-at-a-time.

Acceptance criterion for the serving decision plane: draining a
512-request backlog at batch 64 through the pipeline's drain must serve
at least 3x more requests/second than the request-at-a-time baseline
(the reference drain of ``tests/serving/reference_drain.py`` at
``batch_max=1``), while producing identical outcomes —
same targets, same measurements, in the same order.  Both arms run with
contracts off — the production configuration — so the
comparison measures the drain, not the instrumentation.  Results are
persisted to ``benchmarks/results/BENCH_serving.json`` for the CI
artifact.
"""

import json
import time

from conftest import RESULTS_DIR

from repro.core.service import AutoScaleService
from repro.env.environment import EdgeCloudEnvironment
from repro.env.qos import use_case_for
from repro.hardware.devices import build_device
from repro.models.zoo import build_network
from repro.serving.arrivals import Arrival
from repro.serving.brownout import BrownoutConfig
from repro.serving.pipeline import ServingConfig, ServingPipeline
from repro.serving.shedder import DeadlinePolicy
from tests.serving.reference_drain import ReferencePipeline

REQUESTS = 512
BATCH = 64
PRETRAIN_RUNS = 40
MIN_SPEEDUP = 3.0


def _fresh_service(seed=0):
    """A frozen, lightly-trained serving deployment (the paper's
    trained-table usage mode — the serving hot path)."""
    env = EdgeCloudEnvironment(build_device("mi8pro"), scenario="S1",
                               seed=seed)
    service = AutoScaleService(env, seed=seed)
    case = use_case_for(build_network("mobilenet_v3"))
    service.register(case)
    service.engine.run(case, PRETRAIN_RUNS)
    env.reset()
    service.set_learning(False)
    return service, case


def _config(batch_max):
    # Unbounded queue + huge deadlines: all 512 requests drain and
    # nothing sheds, so both arms execute exactly the same work.
    return ServingConfig(
        queue_capacity=None,
        deadline=DeadlinePolicy(qos_factor=1e6),
        brownout=BrownoutConfig.disabled(),
        batch_max=batch_max,
    )


def _drain(pipeline_class, batch_max):
    """Time one full backlog drain; returns (outcomes, seconds)."""
    service, case = _fresh_service()
    arrivals = [Arrival(0.0, case.name) for _ in range(REQUESTS)]
    pipeline = pipeline_class(service, _config(batch_max))
    started_s = time.perf_counter()
    outcomes = pipeline.serve(arrivals)
    return outcomes, time.perf_counter() - started_s


def _best_of(rounds, pipeline_class, batch_max):
    """Min-of-N timing — robust against transient host contention."""
    outcomes, best_s = _drain(pipeline_class, batch_max)
    for _ in range(rounds - 1):
        outcomes, seconds = _drain(pipeline_class, batch_max)
        best_s = min(best_s, seconds)
    return outcomes, best_s


def _signature(outcomes):
    return [(served.outcome.target_key, served.outcome.latency_ms,
             served.outcome.energy_mj) for served in outcomes]


def test_serving_drain_speedup(contracts_switch):
    contracts_switch(False)

    # Warm both code paths (imports, numpy dispatch, caches) off the
    # clock.
    _drain(ServingPipeline, BATCH)
    _drain(ReferencePipeline, 1)

    scalar_outcomes, scalar_s = _best_of(3, ReferencePipeline, 1)
    vector_outcomes, vector_s = _best_of(3, ServingPipeline, BATCH)

    assert len(scalar_outcomes) == REQUESTS
    assert _signature(scalar_outcomes) == _signature(vector_outcomes), (
        "the drain diverged from the request-at-a-time baseline"
    )

    speedup = scalar_s / vector_s
    payload = {
        "requests": REQUESTS,
        "batch": BATCH,
        "scalar_s": scalar_s,
        "vectorized_s": vector_s,
        "scalar_requests_per_s": REQUESTS / scalar_s,
        "vectorized_requests_per_s": REQUESTS / vector_s,
        "speedup": speedup,
        "identical_outcomes": True,
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_serving.json").write_text(
        json.dumps(payload, indent=2) + "\n"
    )
    print()
    print(f"request-at-a-time: {scalar_s * 1000:9.1f} ms "
          f"({REQUESTS / scalar_s:8.0f} req/s)")
    print(f"drain @ {BATCH}:       {vector_s * 1000:9.1f} ms "
          f"({REQUESTS / vector_s:8.0f} req/s)")
    print(f"speedup:           {speedup:9.2f}x")
    assert speedup >= MIN_SPEEDUP
