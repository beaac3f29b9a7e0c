"""Bit-parity tests: the batched training engine vs the scalar path.

The vectorized trainer is only allowed to be *faster* — every observable
of a training protocol (Q-table bytes, visit counts, update counts,
convergence episode, step records, virtual-clock position, and both RNG
streams) must be bit-identical to the scalar ``AutoScale.run`` /
per-step adapt loop under the same seed.  The same contract holds for
``EdgeCloudEnvironment.execute_batch`` against per-request ``execute``.
"""

from dataclasses import dataclass

import numpy as np
import pytest

from repro.common import ConfigError
from repro.core.batchtrain import BatchTrainer
from repro.core.engine import AutoScale
from repro.env.environment import EdgeCloudEnvironment
from repro.env.qos import use_case_for
from repro.env.scenarios import (
    DYNAMIC_SCENARIOS,
    STATIC_SCENARIOS,
    Scenario,
)
from repro.evalharness.runner import RunConfig, loo_train_and_evaluate
from repro.faults.plan import FaultPlan
from repro.hardware.devices import build_device
from repro.interference.corunner import (
    CoRunnerLoad,
    music_player,
    web_browser,
)
from repro.models.zoo import build_network
from repro.wireless.signal import (
    GaussianSignal,
    OutageSignal,
    RandomWalkSignal,
)

TRAIN_NETWORKS = ("mobilenet_v3", "resnet_50")
TRAIN_RUNS = 80
ADAPT_RUNS = 40


def _build(scenario, seed=0):
    """``scenario`` is a Table-IV id or a factory: stateful signals must
    not be shared between the two paths under comparison."""
    if callable(scenario):
        scenario = scenario()
    env = EdgeCloudEnvironment(build_device("mi8pro"), scenario=scenario,
                               seed=seed)
    return env, AutoScale(env, seed=seed)


def _run_protocol(scenario, batched, adapt_runs=ADAPT_RUNS):
    """train_autoscale + adapt_engine shaped protocol, one path."""
    env, engine = _build(scenario)
    trainer = BatchTrainer(engine)
    for name in TRAIN_NETWORKS:
        use_case = use_case_for(build_network(name))
        if batched:
            trainer.run(use_case, TRAIN_RUNS)
        else:
            engine.run(use_case, TRAIN_RUNS)
    use_case = use_case_for(build_network(TRAIN_NETWORKS[0]))
    if batched:
        converged_at = trainer.adapt(use_case, adapt_runs)
    else:
        engine.unfreeze()
        engine.convergence.reset()
        for _ in range(adapt_runs):
            engine.step(use_case)
            if engine.converged:
                break
        converged_at = engine.convergence.converged_at
    return env, engine, converged_at


def _assert_same_outcome(env_s, eng_s, env_b, eng_b):
    """Q-table and visit bytes, history, clock and both RNG streams."""
    assert eng_s.qtable.values.tobytes() == eng_b.qtable.values.tobytes()
    assert eng_s.qtable.visits.tobytes() == eng_b.qtable.visits.tobytes()
    assert eng_s.qtable.update_count == eng_b.qtable.update_count
    assert env_s.clock.now_ms == env_b.clock.now_ms
    assert len(eng_s.history) == len(eng_b.history)
    for scalar, batch in zip(eng_s.history, eng_b.history):
        assert scalar.state == batch.state
        assert scalar.action == batch.action
        assert scalar.target_key == batch.target_key
        assert scalar.reward == batch.reward
        assert scalar.explored == batch.explored
        assert scalar.q_delta == batch.q_delta
        assert scalar.result == batch.result
    assert env_s.rng.bit_generator.state == env_b.rng.bit_generator.state
    assert eng_s.rng.bit_generator.state == eng_b.rng.bit_generator.state


def _assert_protocol_parity(scenario, adapt_runs=ADAPT_RUNS):
    env_s, eng_s, conv_s = _run_protocol(scenario, batched=False,
                                         adapt_runs=adapt_runs)
    env_b, eng_b, conv_b = _run_protocol(scenario, batched=True,
                                         adapt_runs=adapt_runs)
    _assert_same_outcome(env_s, eng_s, env_b, eng_b)

    assert eng_s.qtable.values.tobytes() == eng_b.qtable.values.tobytes()
    assert np.array_equal(eng_s.qtable.visits, eng_b.qtable.visits)
    assert eng_s.qtable.update_count == eng_b.qtable.update_count
    assert conv_s == conv_b
    assert env_s.clock.now_ms == env_b.clock.now_ms
    assert len(eng_s.history) == len(eng_b.history)
    for scalar, batch in zip(eng_s.history, eng_b.history):
        assert scalar.state == batch.state
        assert scalar.action == batch.action
        assert scalar.target_key == batch.target_key
        assert scalar.reward == batch.reward
        assert scalar.explored == batch.explored
        assert scalar.result.latency_ms == batch.result.latency_ms
        assert scalar.result.energy_mj == batch.result.energy_mj
        assert scalar.result.estimated_energy_mj \
            == batch.result.estimated_energy_mj
        assert scalar.result.accuracy_pct == batch.result.accuracy_pct
        assert scalar.result.detail == batch.result.detail
    assert env_s.rng.bit_generator.state == env_b.rng.bit_generator.state
    assert eng_s.rng.bit_generator.state == eng_b.rng.bit_generator.state


def _outage_and_walk_scenario():
    return Scenario(
        "outage_walk", "outage-gated Gaussian WLAN, random-walk P2P",
        web_browser(),
        OutageSignal(base=GaussianSignal(mean_dbm=-70.0, std_db=8.0),
                     period_ms=9_000.0, outage_ms=3_000.0),
        RandomWalkSignal(mean_dbm=-65.0, std_db=6.0, reversion=0.2),
        dynamic=True,
    )


@dataclass(frozen=True)
class _FailingCoRunner:
    """A music-player trace whose load turns invalid after a while."""

    fail_after_ms: float = 8_000.0
    draws_per_sample = 2

    def sample(self, rng, now_ms=0.0):
        load = music_player().sample(rng, now_ms)
        if now_ms > self.fail_after_ms:
            return CoRunnerLoad(cpu_util=load.cpu_util + 2.0)
        return load


def _failing_scenario():
    base = _outage_and_walk_scenario()
    return Scenario("failing", "invalid load mid-episode",
                    _FailingCoRunner(), base.wlan_signal, base.p2p_signal,
                    dynamic=True)


class TestExecuteBatchParity:
    def test_results_clock_and_rng_match_scalar(self):
        network = build_network("inception_v1")
        env_s = EdgeCloudEnvironment(build_device("mi8pro"),
                                     scenario="S2", seed=3)
        env_b = EdgeCloudEnvironment(build_device("mi8pro"),
                                     scenario="S2", seed=3)
        targets = env_s.targets()
        # One chunk mixing local and remote targets, repeated
        # per-observation so the draw order is exercised both ways.
        chunk = [targets[i % len(targets)] for i in range(20)]
        observations = [env_s.observe() for _ in chunk]
        observations_b = [env_b.observe() for _ in chunk]
        scalar = [env_s.execute(network, target, observation)
                  for target, observation in zip(chunk, observations)]
        batched = env_b.execute_batch(network, chunk, observations_b)
        for lhs, rhs in zip(scalar, batched):
            assert lhs.latency_ms == rhs.latency_ms
            assert lhs.energy_mj == rhs.energy_mj
            assert lhs.estimated_energy_mj == rhs.estimated_energy_mj
            assert lhs.target_key == rhs.target_key
            assert lhs.detail == rhs.detail
        assert env_s.clock.now_ms == env_b.clock.now_ms
        assert env_s.rng.bit_generator.state \
            == env_b.rng.bit_generator.state

    def test_length_mismatch_raises(self):
        env = EdgeCloudEnvironment(build_device("mi8pro"), seed=0)
        network = build_network("mobilenet_v3")
        with pytest.raises(ConfigError):
            env.execute_batch(network, env.targets()[:2],
                              [env.observe()])


class TestBatchTrainerParity:
    @pytest.mark.parametrize("scenario", ["S1", "S4", "D3"])
    def test_full_protocol_contracts_on(self, scenario):
        # Under pytest, contracts are on: the trainer routes every step
        # through the instrumented execute/update path.
        _assert_protocol_parity(scenario)

    @pytest.mark.parametrize("scenario",
                             STATIC_SCENARIOS + DYNAMIC_SCENARIOS)
    def test_full_protocol_contracts_off(self, scenario, contracts_switch):
        # Contracts off switches the trainer to its block-drawn stream
        # and direct finishing-plan calls; parity must hold bit-for-bit
        # there too.
        contracts_switch(False)
        _assert_protocol_parity(scenario)

    @pytest.mark.parametrize("scenario", ["D1", "D3"])
    def test_adapt_stops_on_convergence(self, scenario, contracts_switch):
        # A long adapt budget the detector cuts short: the block drew
        # ahead for steps that never ran, and must give them back.
        contracts_switch(False)
        _, engine, converged_at = _run_protocol(scenario, batched=True,
                                                adapt_runs=600)
        assert converged_at is not None
        assert len(engine.history) < 2 * TRAIN_RUNS + 600
        _assert_protocol_parity(scenario, adapt_runs=600)

    @pytest.mark.parametrize("contracts", (pytest.param(True, id="1"),
                                           pytest.param(False, id="0")))
    def test_data_and_state_dependent_draws(self, contracts,
                                            contracts_switch):
        # Outage windows skip the WLAN draw; the random walk carries
        # state from one sample to the next.
        contracts_switch(contracts)
        _assert_protocol_parity(_outage_and_walk_scenario)

    @pytest.mark.parametrize("contracts", (pytest.param(True, id="1"),
                                           pytest.param(False, id="0")))
    def test_mid_episode_config_error(self, contracts, contracts_switch):
        # The co-runner draws, then hands back an invalid load; both
        # paths must stop at the same draw with the same state.
        contracts_switch(contracts)
        use_case = use_case_for(build_network("mobilenet_v3"))
        twins = []
        for batched in (False, True):
            env, engine = _build(_failing_scenario)
            with pytest.raises(ConfigError, match="outside"):
                if batched:
                    BatchTrainer(engine).run(use_case, 200)
                else:
                    engine.run(use_case, 200)
            twins.append((env, engine))
        (env_s, eng_s), (env_b, eng_b) = twins
        assert 0 < len(eng_s.history) < 200
        _assert_same_outcome(env_s, eng_s, env_b, eng_b)

    def test_run_validates_budget(self):
        _, engine = _build("S1")
        with pytest.raises(ConfigError):
            BatchTrainer(engine).run(
                use_case_for(build_network("mobilenet_v3")), 0)

    def test_active_faults_disable_fast_path(self):
        env = EdgeCloudEnvironment(
            build_device("mi8pro"), scenario="S1", seed=0,
            faults=FaultPlan(straggler_prob=0.2),
        )
        engine = AutoScale(env, seed=0)
        trainer = BatchTrainer(engine)
        assert not trainer._fast_path_available()
        # The fallback still trains through the scalar engine loop.
        steps = trainer.run(use_case_for(build_network("mobilenet_v3")), 5)
        assert len(steps) == 5
        assert engine.qtable.update_count == 5

    def test_frozen_engine_disables_fast_path(self):
        _, engine = _build("S1")
        engine.freeze()
        assert not BatchTrainer(engine)._fast_path_available()


class TestLooEnvironmentReuse:
    def test_reused_environment_matches_fresh(self):
        """Fold-level reuse: a reset + warm value-keyed caches must
        reproduce the cold-environment fold bit-for-bit."""
        use_cases = [use_case_for(build_network(name))
                     for name in ("mobilenet_v3", "inception_v1",
                                  "resnet_50")]
        config = RunConfig(train_runs=20, adapt_runs=30, eval_runs=6)
        shared_env = EdgeCloudEnvironment(build_device("mi8pro"),
                                          scenario="S1", seed=0)
        for test_case in use_cases[:2]:
            _, fresh = loo_train_and_evaluate(
                lambda: build_device("mi8pro"), use_cases, test_case,
                scenarios=("S1",), config=config, seed=0,
            )
            _, reused = loo_train_and_evaluate(
                None, use_cases, test_case,
                scenarios=("S1",), config=config, seed=0,
                environment=shared_env,
            )
            for scenario_name, fresh_stats in fresh.items():
                reused_stats = reused[scenario_name]
                assert fresh_stats.energies_mj == reused_stats.energies_mj
                assert fresh_stats.latencies_ms \
                    == reused_stats.latencies_ms
                assert fresh_stats.decisions == reused_stats.decisions
                assert fresh_stats.oracle_matches \
                    == reused_stats.oracle_matches
