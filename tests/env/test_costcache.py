"""Tests for the batched nominal-cost engine (repro.env.costcache)."""

import numpy as np
import pytest

from repro.baselines.oracle import OptOracle
from repro.common import UnknownKeyError, make_rng
from repro.env import costcache
from repro.env.costcache import NominalCostEngine
from repro.env.environment import EdgeCloudEnvironment
from repro.env.executor import NoiseConfig
from repro.env.observation import Observation
from repro.env.qos import use_case_for
from repro.env.scenarios import SCENARIO_NAMES
from repro.hardware.devices import PHONE_NAMES, build_device

_DEVICE_NAMES = (*PHONE_NAMES, "mi8pro_npu")

_RESULT_FIELDS = ("latency_ms", "energy_mj", "estimated_energy_mj",
                  "accuracy_pct")


def _random_observation(rng):
    return Observation(
        cpu_util=float(rng.uniform(0.0, 0.95)),
        mem_util=float(rng.uniform(0.0, 0.95)),
        rssi_wlan_dbm=float(rng.uniform(-90.0, -50.0)),
        rssi_p2p_dbm=float(rng.uniform(-90.0, -50.0)),
    )


def _scenario_observations(env):
    """One observation from each Table-IV scenario (S1-S5, D1-D4)."""
    observations = []
    for name in SCENARIO_NAMES:
        env.scenario = name
        observations.append(env.observe())
    return observations


class TestSweepParity:
    def test_matches_scalar_estimate_per_target(self, zoo):
        """Every sweep entry equals (``==``) the scalar estimate of its
        target, for every device, zoo network and target, at random and
        Table-IV scenario observations."""
        rng = make_rng(11)
        for device_name in _DEVICE_NAMES:
            env = EdgeCloudEnvironment(build_device(device_name), seed=3)
            observations = _scenario_observations(env) + [
                _random_observation(rng) for _ in range(3)]
            for network in zoo.values():
                for observation in observations:
                    sweep = env.estimate_all(network, observation)
                    for index, target in enumerate(env.targets()):
                        scalar = env.estimate(network, target, observation)
                        for field in _RESULT_FIELDS:
                            assert (float(getattr(sweep, field)[index])
                                    == getattr(scalar, field)), (
                                f"{device_name} {network.name} "
                                f"{target.key} {field}"
                            )

    def test_result_for_reconstructs_execution_result(self, env, zoo):
        observation = env.observe()
        network = zoo["mobilenet_v3"]
        sweep = env.estimate_all(network, observation)
        target = env.targets()[7]
        scalar = env.estimate(network, target, observation)
        batched = sweep.result_for(target)
        assert batched.target_key == scalar.target_key
        for field in _RESULT_FIELDS:
            assert getattr(batched, field) == getattr(scalar, field)

    def test_index_of_unknown_target_raises(self, env, zoo):
        sweep = env.estimate_all(zoo["mobilenet_v3"], env.observe())
        foreign = build_device("galaxy_s10e")
        foreign_env = EdgeCloudEnvironment(foreign, seed=0)
        stranger = next(
            target for target in foreign_env.targets()
            if target.key not in {t.key for t in env.targets()}
        )
        with pytest.raises(UnknownKeyError):
            sweep.index_of(stranger)


class TestExecuteEstimateParity:
    @pytest.mark.parametrize("device_name", _DEVICE_NAMES)
    def test_noise_free_execute_agrees_with_estimate(self, zoo,
                                                     device_name):
        """NoiseConfig(0,0,0,0) + idle scenario: execute == estimate on
        latency for every target of every device."""
        env = EdgeCloudEnvironment(
            build_device(device_name), scenario="S1",
            noise=NoiseConfig(0.0, 0.0, 0.0, 0.0), seed=5,
        )
        network = zoo["mobilenet_v3"]
        observation = env.observe()
        sweep = env.estimate_all(network, observation)
        for index, target in enumerate(env.targets()):
            executed = env.execute(network, target, observation)
            estimated = env.estimate(network, target, observation)
            assert executed.latency_ms == estimated.latency_ms, target.key
            assert executed.latency_ms == float(sweep.latency_ms[index])


class TestOracleEquivalence:
    def test_batched_oracle_selects_identical_targets(self, env, zoo):
        use_cases = [use_case_for(zoo[name])
                     for name in ("mobilenet_v3", "resnet_50",
                                  "mobilebert")]
        batched = OptOracle(cache=False)
        scalar = OptOracle(cache=False, batched=False)
        rng = make_rng(23)
        for use_case in use_cases:
            for _ in range(5):
                observation = _random_observation(rng)
                assert (batched.select(env, use_case, observation).key
                        == scalar.select(env, use_case, observation).key)

    def test_argbest_subset_matches_full_search_semantics(self, env, zoo):
        use_case = use_case_for(zoo["inception_v1"])
        sweep = env.estimate_all(use_case.network, env.observe())
        best = sweep.argbest(use_case)
        all_indices = list(range(len(sweep)))
        assert sweep.argbest(use_case, indices=all_indices) == best
        assert sweep.argbest(use_case, indices=[best]) == best
        assert sweep.argbest(use_case, indices=[]) is None


class TestCache:
    def test_hit_returns_identical_sweep(self, env, zoo):
        network = zoo["mobilenet_v3"]
        observation = env.observe()
        first = env.estimate_all(network, observation)
        again = env.estimate_all(network, observation)
        assert again is first
        stats = env.cost_engine.stats()
        assert stats.hits == 1 and stats.misses == 1
        target = env.targets()[0]
        assert (first.result_for(target).energy_mj
                == again.result_for(target).energy_mj)

    def test_reset_without_seed_keeps_cache(self, env, zoo):
        env.estimate_all(zoo["mobilenet_v3"], env.observe())
        env.reset()
        assert env.cost_engine.stats().size == 1

    def test_lru_eviction_is_bounded(self, mi8pro_device, zoo,
                                     monkeypatch):
        monkeypatch.setattr(costcache, "_SWEEP_CACHE_SIZE", 2)
        env = EdgeCloudEnvironment(mi8pro_device, seed=0)
        engine = NominalCostEngine(env)
        network = zoo["mobilenet_v3"]
        rssi_levels = (-50.0, -60.0, -70.0)
        for rssi_dbm in rssi_levels:
            engine.sweep(network, Observation(rssi_wlan_dbm=rssi_dbm))
        stats = engine.stats()
        assert stats.size == stats.capacity == 2
        assert stats.evictions == 1
        assert stats.misses == len(rssi_levels)

    def test_sweep_arrays_are_read_only(self, env, zoo):
        sweep = env.estimate_all(zoo["mobilenet_v3"], env.observe())
        with pytest.raises((ValueError, RuntimeError)):
            sweep.energy_mj[0] = 1.0

    def test_hit_ratio(self, env, zoo):
        network = zoo["mobilenet_v3"]
        observation = env.observe()
        env.estimate_all(network, observation)
        env.estimate_all(network, observation)
        env.estimate_all(network, observation)
        assert env.cost_engine.stats().hit_ratio == pytest.approx(2 / 3)


class TestCallOrder:
    """A sweep is a pure function of the topology, the network and the
    exact observation: no earlier call changes what it returns."""

    _BASE = Observation(cpu_util=0.400, mem_util=0.200,
                        rssi_wlan_dbm=-60.0, rssi_p2p_dbm=-60.0)
    # Within 2% load and 0.5 dBm of _BASE: the same bucket of the
    # former discretized cache key.
    _NEIGHBOUR = Observation(cpu_util=0.401, mem_util=0.199,
                             rssi_wlan_dbm=-60.1, rssi_p2p_dbm=-59.9)

    @staticmethod
    def _columns(sweep):
        return [getattr(sweep, field).tobytes() for field in _RESULT_FIELDS]

    def test_neighbour_swept_first_changes_nothing(self, mi8pro_device,
                                                   zoo):
        network = zoo["resnet_50"]
        primed = EdgeCloudEnvironment(mi8pro_device, seed=0)
        neighbour = primed.estimate_all(network, self._NEIGHBOUR)
        after_neighbour = primed.estimate_all(network, self._BASE)
        fresh = EdgeCloudEnvironment(build_device("mi8pro"), seed=7)
        alone = fresh.estimate_all(network, self._BASE)
        assert after_neighbour is not neighbour
        assert self._columns(after_neighbour) == self._columns(alone)
        assert self._columns(neighbour) != self._columns(alone)

    def test_sweep_survives_scenario_swap_and_reseed(self, env, zoo):
        network = zoo["mobilenet_v3"]
        sweep = env.estimate_all(network, self._BASE)
        env.scenario = "S2"
        assert env.estimate_all(network, self._BASE) is sweep
        env.reset(seed=99)
        assert env.estimate_all(network, self._BASE) is sweep
        stats = env.cost_engine.stats()
        assert (stats.hits, stats.misses, stats.size) == (2, 1, 1)


class TestExactLocalCache:
    @pytest.mark.parametrize("scenario, stores", (("S2", True),
                                                  ("D3", True),
                                                  ("D1", False),
                                                  ("D4", False)))
    def test_stores_only_constant_co_runner_loads(self, zoo, scenario,
                                                  stores):
        """Trace co-runners jitter every load, so their misses would
        fill the LRU with entries nobody reads; constant loads (S1-S5
        and D3's quiet device) repeat and keep hitting."""
        env = EdgeCloudEnvironment(build_device("mi8pro"),
                                   scenario=scenario, seed=4)
        engine = env.cost_engine
        network = zoo["mobilenet_v3"]
        target = next(target for target in env.targets()
                      if not target.is_remote)
        for _ in range(5):
            observation = env.observe()
            first = engine.local_nominal(network, target, observation)
            assert engine.local_nominal(network, target, observation) \
                == first
        assert (len(engine._exact_local) > 0) is stores
        assert engine.exact_hits == (9 if stores else 0)


class TestNetworkTables:
    def test_lazy_per_network_build(self, env, zoo):
        observation = env.observe()
        env.estimate_all(zoo["mobilenet_v3"], observation)
        env.estimate_all(zoo["resnet_50"], observation)
        # Distinct networks occupy distinct cache keys (no collisions).
        assert env.cost_engine.stats().size == 2

    def test_sweep_covers_whole_action_space(self, env, zoo):
        sweep = env.estimate_all(zoo["mobilenet_v3"], env.observe())
        assert len(sweep) == len(env.targets())
        assert np.all(np.isfinite(sweep.energy_mj))
        assert np.all(sweep.latency_ms > 0)
