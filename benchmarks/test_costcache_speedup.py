"""Microbenchmark: batched nominal-cost engine vs the scalar hot path.

The acceptance criterion for the cost engine: a full-action-space oracle
sweep (1 network x 200 observations) through ``estimate_all`` must run
at least 5x faster than the per-target scalar ``estimate`` loop while
selecting byte-identical targets.  The heap is settled before each
timed arm (``settle_heap``), so the ratio does not depend on what ran
before it.  Results are persisted to
``benchmarks/results/BENCH_costcache.json`` for the CI artifact.
"""

import json
import os
import time

from conftest import RESULTS_DIR

from repro.baselines.oracle import OptOracle
from repro.common import make_rng
from repro.env.environment import EdgeCloudEnvironment
from repro.env.observation import Observation
from repro.env.qos import use_case_for
from repro.hardware.devices import build_device
from repro.models.zoo import build_network

N_OBSERVATIONS = 200
MIN_SPEEDUP = 5.0


def _observations(count, seed=7):
    rng = make_rng(seed)
    return [
        Observation(
            cpu_util=float(rng.uniform(0.0, 0.95)),
            mem_util=float(rng.uniform(0.0, 0.95)),
            rssi_wlan_dbm=float(rng.uniform(-90.0, -50.0)),
            rssi_p2p_dbm=float(rng.uniform(-90.0, -50.0)),
        )
        for _ in range(count)
    ]


def _timed_selections(oracle, env, use_case, observations):
    started_s = time.perf_counter()
    keys = [oracle.select(env, use_case, observation).key
            for observation in observations]
    return keys, time.perf_counter() - started_s


def test_costcache_oracle_sweep_speedup(settle_heap):
    env = EdgeCloudEnvironment(build_device("mi8pro"), scenario="S1",
                               seed=0)
    use_case = use_case_for(build_network("mobilenet_v3"))
    observations = _observations(N_OBSERVATIONS)

    settle_heap()
    scalar_keys, scalar_s = _timed_selections(
        OptOracle(cache=False, batched=False), env, use_case, observations
    )
    settle_heap()
    batched_keys, batched_s = _timed_selections(
        OptOracle(cache=False), env, use_case, observations
    )

    assert batched_keys == scalar_keys, (
        "batched oracle diverged from the scalar reference selections"
    )
    speedup = scalar_s / batched_s
    stats = env.cost_engine.stats()
    payload = {
        "n_observations": N_OBSERVATIONS,
        "n_targets": len(env.targets()),
        "network": use_case.network.name,
        "scalar_s": scalar_s,
        "batched_s": batched_s,
        "speedup": speedup,
        "identical_selections": True,
        "cpu_count": os.cpu_count(),
        "cache": {
            "hits": stats.hits,
            "misses": stats.misses,
            "evictions": stats.evictions,
            "hit_ratio": stats.hit_ratio,
        },
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_costcache.json").write_text(
        json.dumps(payload, indent=2) + "\n"
    )
    print()
    print(f"scalar oracle sweep:  {scalar_s * 1000:9.1f} ms")
    print(f"batched oracle sweep: {batched_s * 1000:9.1f} ms")
    print(f"speedup:              {speedup:9.1f}x "
          f"(cache hit ratio {stats.hit_ratio:.2f})")
    assert speedup >= MIN_SPEEDUP
