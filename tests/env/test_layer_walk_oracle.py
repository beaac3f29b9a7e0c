"""The per-layer walk as the oracle for the environment's execution path.

``EdgeCloudEnvironment.execute`` / ``estimate`` read their nominal
latencies from the cost engine's layer-term tables instead of walking
``Processor.layer_latency_ms`` per request.  These tests hold that path
to the walk with ``==`` (never approx):

- the table nominals equal ``Processor.network_latency_ms`` for every
  zoo network, processor, supported precision, V/F step and slowdown;
- ``execute`` equals a reference built from the executor's layer-walking
  ``local_execution`` / ``remote_execution`` plus the fault injector —
  results, RNG bit-generator state and clock — on D1-D4 and under a
  chaos fault plan with deadlines;
- a slowdown below 1 is rejected on every path, as the walk rejects it.
"""

from dataclasses import dataclass

import numpy as np
import pytest

import repro.faults  # noqa: F401  (registers the real fault injector)
from repro.common import ConfigError, make_rng
from repro.core.batchtrain import BatchTrainer
from repro.core.engine import AutoScale
from repro.env.environment import EdgeCloudEnvironment
from repro.env.executor import local_execution, remote_execution
from repro.env.injection import resolve_injector
from repro.env.qos import use_case_for
from repro.env.target import ExecutionTarget, Location
from repro.faults.plan import FaultPlan, OutageWindow
from repro.hardware.devices import PHONE_NAMES, build_device
from repro.interference.corunner import CoRunnerLoad
from repro.interference.model import InterferenceModel

SLOWDOWNS = (1.0, 1.37, 2.5)


@dataclass(frozen=True)
class _FixedSlowdown(InterferenceModel):
    """Interference stub: one compute slowdown for every processor."""

    value: float = 1.0

    def slowdown(self, kind, load):
        return self.value


class TestTableNominalsEqualTheWalk:
    @pytest.mark.parametrize("phone", PHONE_NAMES)
    @pytest.mark.parametrize("slowdown", SLOWDOWNS)
    def test_local_nominal(self, zoo, phone, slowdown):
        device = build_device(phone)
        env = EdgeCloudEnvironment(device, seed=3,
                                   interference=_FixedSlowdown(value=slowdown))
        observation = env.observe()
        engine = env.cost_engine
        for network in zoo.values():
            for role in device.soc.roles:
                proc = device.soc.processor(role)
                for precision in proc.precisions:
                    for vf_index in range(proc.num_vf_steps):
                        target = ExecutionTarget(Location.LOCAL, role,
                                                 precision, vf_index)
                        _, nominal_ms, seen = engine.local_nominal(
                            network, target, observation)
                        assert seen == slowdown
                        assert nominal_ms == proc.network_latency_ms(
                            network, precision, vf_index, slowdown), (
                            network.name, target.key)

    def test_remote_nominal(self, zoo, env):
        engine = env.cost_engine
        for location, remote in ((Location.CLOUD, env.cloud),
                                 (Location.CONNECTED, env.connected)):
            for role in remote.soc.roles:
                proc = remote.soc.processor(role)
                for precision in proc.precisions:
                    target = ExecutionTarget(location, role, precision)
                    for network in zoo.values():
                        # remote_execution's walk: top V/F step, no
                        # slowdown (the phone's co-runners do not reach
                        # the remote processor).
                        assert engine.remote_nominal_ms(network, target) \
                            == proc.network_latency_ms(network, precision), (
                            network.name, target.key)


def _reference_execute(env, network, target, observation, deadline_ms=None):
    """``execute`` as the per-layer walk computes it."""
    load = CoRunnerLoad(cpu_util=observation.cpu_util,
                        mem_util=observation.mem_util)
    if target.location is Location.LOCAL:
        result = local_execution(
            env.device, network, target, load, env.interference,
            env.accuracy, rng=env.rng, noise=env.noise)
    else:
        is_cloud = target.location is Location.CLOUD
        remote = env.cloud if is_cloud else env.connected
        link = env.wifi if is_cloud else env.p2p
        rssi_dbm = (observation.rssi_wlan_dbm if is_cloud
                    else observation.rssi_p2p_dbm)
        result = remote_execution(
            env.device, remote, network, target, link, rssi_dbm,
            env.accuracy, rng=env.rng, noise=env.noise, load=load,
            interference=env.interference)
        injector = env._fault_injector
        if injector.active or deadline_ms is not None:
            if deadline_ms is not None and injector.plan is None:
                injector = env._fault_injector = resolve_injector(
                    None, env.kernel)
            idle_power_mw = (env.device.soc.platform_idle_mw
                             + env.device.soc.cpu.idle_power_mw
                             + link.idle_power_mw)
            result = injector.apply(
                result, target, link, rssi_dbm, env.clock.now_ms, env.rng,
                idle_power_mw, deadline_ms=deadline_ms)
    env.advance_clock(result.latency_ms + env.think_time_ms)
    return result


def _reference_estimate(env, network, target, observation):
    load = CoRunnerLoad(cpu_util=observation.cpu_util,
                        mem_util=observation.mem_util)
    if target.location is Location.LOCAL:
        return local_execution(env.device, network, target, load,
                               env.interference, env.accuracy)
    is_cloud = target.location is Location.CLOUD
    return remote_execution(
        env.device, env.cloud if is_cloud else env.connected, network,
        target, env.wifi if is_cloud else env.p2p,
        observation.rssi_wlan_dbm if is_cloud else observation.rssi_p2p_dbm,
        env.accuracy, load=load, interference=env.interference)


def _lockstep(zoo, scenario, steps, faults=None, deadline_slack_ms=None):
    """Drive ``execute`` and the reference on twin environments."""
    networks = [zoo[name] for name in
                ("mobilenet_v3", "resnet_50", "mobilebert")]
    twins = [EdgeCloudEnvironment(build_device("mi8pro"), scenario=scenario,
                                  seed=77, faults=faults)
             for _ in range(2)]
    fast, walk = twins
    targets = fast.targets()
    picks = make_rng(5)
    for step in range(steps):
        network = networks[step % len(networks)]
        target = targets[int(picks.integers(len(targets)))]
        observations = [env.observe() for env in twins]
        assert observations[0] == observations[1]
        deadline_ms = (None if deadline_slack_ms is None
                       else fast.clock.now_ms + deadline_slack_ms)
        assert fast.estimate(network, target, observations[0]) \
            == _reference_estimate(walk, network, target, observations[1])
        got = fast.execute(network, target, observations[0],
                           deadline_ms=deadline_ms)
        want = _reference_execute(walk, network, target, observations[1],
                                  deadline_ms=deadline_ms)
        assert got == want, (step, target.key)
        assert fast.clock.now_ms == walk.clock.now_ms
        assert fast.rng.bit_generator.state == walk.rng.bit_generator.state
    return fast


class TestExecuteEqualsTheWalk:
    @pytest.mark.parametrize("scenario", ("D1", "D2", "D3", "D4"))
    def test_dynamic_scenarios(self, zoo, scenario):
        _lockstep(zoo, scenario, steps=150)

    def test_chaos_plan_with_deadlines(self, zoo):
        plan = FaultPlan(
            loss_scale=1.0, abort_prob=0.15, straggler_prob=0.1,
            outages=(OutageWindow("cloud", start_ms=5_000.0,
                                  duration_ms=5_000.0, period_ms=20_000.0),),
        )
        env = _lockstep(zoo, "D2", steps=300, faults=plan,
                        deadline_slack_ms=400.0)
        # The plan actually fired: the comparison covered failed
        # attempts, not just clean executions.
        assert env.fault_stats.total_failures > 0


class TestSlowdownBelowOne:
    """The walk raises for slowdown < 1; the table paths must too."""

    @pytest.fixture()
    def env(self):
        return EdgeCloudEnvironment(build_device("mi8pro"), seed=9,
                                    interference=_FixedSlowdown(value=0.9))

    @pytest.fixture()
    def local_target(self, env):
        return next(target for target in env.targets()
                    if target.location is Location.LOCAL)

    def test_walk_rejects(self, env, zoo, local_target):
        proc = env.device.soc.processor(local_target.role)
        with pytest.raises(ConfigError, match="slowdown must be >= 1"):
            proc.network_latency_ms(zoo["resnet_50"], local_target.precision,
                                    local_target.vf_index, 0.9)

    def test_execute(self, env, zoo, local_target):
        with pytest.raises(ConfigError, match="slowdown must be >= 1"):
            env.execute(zoo["resnet_50"], local_target)

    def test_estimate(self, env, zoo, local_target):
        with pytest.raises(ConfigError, match="slowdown must be >= 1"):
            env.estimate(zoo["resnet_50"], local_target, env.observe())

    def test_execute_batch(self, env, zoo, local_target):
        observation = env.observe()
        with pytest.raises(ConfigError, match="slowdown must be >= 1"):
            env.execute_batch(zoo["resnet_50"], [local_target] * 3,
                              [observation] * 3)

    @pytest.mark.parametrize("contracts", ("1", "0"))
    def test_batch_trainer(self, env, zoo, monkeypatch, contracts):
        # Contracts on: the trainer runs the instrumented ``execute``;
        # off: its inlined local completer, whose table miss must check
        # the slowdown itself.
        monkeypatch.setenv("REPRO_CONTRACTS", contracts)
        engine = AutoScale(env, seed=4)
        local = np.array([not target.is_remote
                          for target in engine.action_space.targets])
        # Make a local action the greedy choice in every state.
        engine.qtable.values[:, int(np.flatnonzero(local)[0])] = 1.0
        with pytest.raises(ConfigError, match="slowdown must be >= 1"):
            BatchTrainer(engine).run(use_case_for(zoo["resnet_50"]), 20)
