"""Microbenchmark: the vectorized training engine vs the scalar loop.

Acceptance criterion for the batched trainer: a paper-scale training
campaign (100 runs per network, three networks) must run at least 5x
more steps/second through :class:`~repro.core.batchtrain.BatchTrainer`
than through the scalar ``AutoScale.run`` loop, while producing a
byte-identical Q-table.  Both arms run with contracts off — the
production configuration — so the comparison measures the engine, not
the instrumentation — and each starts from a collected, frozen heap
(``settle_heap``), so the ratio does not depend on what ran before it
in the session.  Results are persisted to
``benchmarks/results/BENCH_train.json`` for the CI artifact.
"""

import json
import os
import time

from conftest import RESULTS_DIR

from repro.core.batchtrain import BatchTrainer
from repro.core.engine import AutoScale
from repro.env.environment import EdgeCloudEnvironment
from repro.env.qos import use_case_for
from repro.hardware.devices import build_device
from repro.models.zoo import build_network

NETWORK_NAMES = ("mobilenet_v3", "resnet_50", "inception_v3")
#: Paper-scale training budget (100 runs per network per state).
TRAIN_RUNS = 100
MIN_SPEEDUP = 5.0


def _fresh_engine(seed=0):
    env = EdgeCloudEnvironment(build_device("mi8pro"), scenario="S1",
                               seed=seed)
    return AutoScale(env, seed=seed)


def _campaign(driver_of):
    """Time one full training campaign; returns (engine, seconds)."""
    engine = _fresh_engine()
    driver = driver_of(engine)
    use_cases = [use_case_for(build_network(name))
                 for name in NETWORK_NAMES]
    started_s = time.perf_counter()
    for use_case in use_cases:
        driver.run(use_case, TRAIN_RUNS)
    return engine, time.perf_counter() - started_s


def _best_of(rounds, driver_of):
    """Min-of-N timing — robust against transient host contention."""
    engine, best_s = _campaign(driver_of)
    for _ in range(rounds - 1):
        engine, seconds = _campaign(driver_of)
        best_s = min(best_s, seconds)
    return engine, best_s


def test_training_campaign_speedup(contracts_switch, settle_heap):
    contracts_switch(False)

    # Warm both code paths (imports, numpy dispatch) off the clock.
    warm = _fresh_engine()
    BatchTrainer(warm).run(use_case_for(build_network("mobilenet_v3")), 5)

    settle_heap()
    scalar_engine, scalar_s = _best_of(3, lambda engine: engine)
    settle_heap()
    batched_engine, batched_s = _best_of(3, BatchTrainer)

    assert scalar_engine.qtable.values.tobytes() \
        == batched_engine.qtable.values.tobytes(), (
            "batched trainer diverged from the scalar reference Q-table"
        )

    steps = len(NETWORK_NAMES) * TRAIN_RUNS
    speedup = scalar_s / batched_s
    payload = {
        "networks": list(NETWORK_NAMES),
        "train_runs": TRAIN_RUNS,
        "steps": steps,
        "scalar_s": scalar_s,
        "batched_s": batched_s,
        "scalar_steps_per_s": steps / scalar_s,
        "batched_steps_per_s": steps / batched_s,
        "speedup": speedup,
        "identical_qtable": True,
        "cpu_count": os.cpu_count(),
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_train.json").write_text(
        json.dumps(payload, indent=2) + "\n"
    )
    print()
    print(f"scalar campaign:  {scalar_s * 1000:9.1f} ms "
          f"({steps / scalar_s:8.0f} steps/s)")
    print(f"batched campaign: {batched_s * 1000:9.1f} ms "
          f"({steps / batched_s:8.0f} steps/s)")
    print(f"speedup:          {speedup:9.2f}x")
    assert speedup >= MIN_SPEEDUP
