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
- ``execute_split`` / ``execute_pipelined`` (head, tail and segment
  nominals sliced from the same tables) equal the layer-walking
  ``partitioned_execution`` / ``pipelined_local_execution`` — results,
  RNG bit-generator state and clock — deterministic and seeded-noisy;
- a slowdown below 1 is rejected on every path, as the walk rejects it.
"""

from dataclasses import dataclass

import numpy as np
import pytest

import repro.faults  # noqa: F401  (registers the real fault injector)
from repro.baselines.mosaic import MosaicScheduler
from repro.common import ConfigError, make_rng
from repro.core.batchtrain import BatchTrainer
from repro.core.engine import AutoScale
from repro.env.environment import EdgeCloudEnvironment
from repro.env.executor import (
    local_execution,
    partitioned_execution,
    pipelined_local_execution,
    remote_execution,
)
from repro.env.injection import resolve_injector
from repro.env.qos import use_case_for
from repro.env.target import ExecutionTarget, Location
from repro.faults.plan import FaultPlan, OutageWindow
from repro.hardware.devices import PHONE_NAMES, build_device
from repro.interference.corunner import CoRunnerLoad
from repro.interference.model import InterferenceModel
from repro.models.quantization import Precision

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


def _load_of(observation):
    return CoRunnerLoad(cpu_util=observation.cpu_util,
                        mem_util=observation.mem_util)


def _twin_envs(scenario):
    return [EdgeCloudEnvironment(build_device("mi8pro"), scenario=scenario,
                                 seed=31)
            for _ in range(2)]


def _reference_split(env, network, point, local_target, remote_target,
                     observation, deterministic):
    """``execute_split`` as the per-layer walk computes it."""
    remote, link = env._remote_setup(remote_target)
    rssi_dbm = (observation.rssi_wlan_dbm
                if remote_target.location is Location.CLOUD
                else observation.rssi_p2p_dbm)
    result = partitioned_execution(
        env.device, remote, network, point, local_target, remote_target,
        link, rssi_dbm, _load_of(observation), env.interference,
        env.accuracy, rng=None if deterministic else env.rng,
        noise=env.noise)
    if not deterministic:
        env.advance_clock(result.latency_ms + env.think_time_ms)
    return result


def _reference_pipelined(env, network, segments, observation,
                         deterministic):
    """``execute_pipelined`` as the per-layer walk computes it."""
    result = pipelined_local_execution(
        env.device, network, segments, _load_of(observation),
        env.interference, env.accuracy,
        rng=None if deterministic else env.rng, noise=env.noise)
    if not deterministic:
        env.advance_clock(result.latency_ms + env.think_time_ms)
    return result


def _assert_twins_agree(fast, walk):
    assert fast.clock.now_ms == walk.clock.now_ms
    assert fast.rng.bit_generator.state == walk.rng.bit_generator.state


SPLIT_SCENARIOS = ("S1", "S2", "S3")


class TestSlicesEqualTheWalk:
    @pytest.mark.parametrize("scenario", SPLIT_SCENARIOS)
    @pytest.mark.parametrize("name, stride", (("mobilenet_v3", 1),
                                              ("resnet_50", 6),
                                              ("mobilebert", 4)))
    def test_execute_split(self, zoo, scenario, name, stride):
        network = zoo[name]
        num_layers = len(network.layers)
        points = sorted(set(range(0, num_layers + 1, stride))
                        | {1, num_layers - 1, num_layers})
        fast, walk = _twin_envs(scenario)
        cpu_steps = fast.device.soc.cpu.num_vf_steps
        gpu_steps = fast.device.soc.processor("gpu").num_vf_steps
        plans = (
            (ExecutionTarget(Location.LOCAL, "cpu", Precision.FP32, 0),
             ExecutionTarget(Location.CLOUD, "gpu", Precision.FP32)),
            (ExecutionTarget(Location.LOCAL, "cpu", Precision.INT8,
                             cpu_steps - 1),
             ExecutionTarget(Location.CLOUD, "cpu", Precision.FP32)),
            (ExecutionTarget(Location.LOCAL, "gpu", Precision.FP16,
                             gpu_steps // 2),
             ExecutionTarget(Location.CONNECTED, "cpu", Precision.FP32)),
        )
        for local_target, remote_target in plans:
            for point in points:
                observations = [env.observe() for env in (fast, walk)]
                for deterministic in (True, False):
                    got = fast.execute_split(
                        network, point, local_target, remote_target,
                        observations[0], deterministic=deterministic)
                    want = _reference_split(
                        walk, network, point, local_target, remote_target,
                        observations[1], deterministic)
                    assert got == want, (point, local_target.key,
                                         remote_target.key, deterministic)
                    _assert_twins_agree(fast, walk)

    @pytest.mark.parametrize("scenario", SPLIT_SCENARIOS)
    def test_execute_pipelined(self, zoo, scenario):
        fast, walk = _twin_envs(scenario)
        cpu_steps = fast.device.soc.cpu.num_vf_steps
        cpu_top = ExecutionTarget(Location.LOCAL, "cpu", Precision.INT8,
                                  cpu_steps - 1)
        cpu_low = ExecutionTarget(Location.LOCAL, "cpu", Precision.FP32, 3)
        gpu = ExecutionTarget(Location.LOCAL, "gpu", Precision.FP16, 0)
        dsp = ExecutionTarget(Location.LOCAL, "dsp", Precision.INT8, 0)
        networks = [zoo[name] for name in
                    ("mobilenet_v3", "inception_v1", "resnet_50",
                     "mobilebert")]
        plans = []
        for network in networks:
            num_layers = len(network.layers)
            third = num_layers // 3
            plans += [
                (network, [(num_layers, cpu_top)]),
                (network, [(num_layers, gpu)]),
                (network, [(third, dsp), (num_layers - third, cpu_low)]),
                (network, [(1, gpu), (num_layers - 1, cpu_top)]),
                (network, [(third, gpu), (third, dsp),
                           (num_layers - 2 * third, cpu_top)]),
                (network, [(third, cpu_top), (third, cpu_low),
                           (num_layers - 2 * third, gpu)]),
            ]
        # MOSAIC's own plans, as the scheduler hands them to the env.
        mosaic = MosaicScheduler()
        use_cases = [use_case_for(network) for network in networks]
        mosaic.train(fast, use_cases, rng=make_rng(2))
        plans += [(use_case.network, mosaic.select(fast, use_case, None))
                  for use_case in use_cases]
        assert {len(segments) for _, segments in plans} == {1, 2, 3}
        for network, segments in plans:
            observations = [env.observe() for env in (fast, walk)]
            for deterministic in (True, False):
                got = fast.execute_pipelined(network, segments,
                                             observations[0],
                                             deterministic=deterministic)
                want = _reference_pipelined(walk, network, segments,
                                            observations[1], deterministic)
                assert got == want, (network.name, segments, deterministic)
                _assert_twins_agree(fast, walk)

    def test_invalid_plans_rejected(self, zoo, env):
        network = zoo["mobilenet_v3"]
        num_layers = len(network.layers)
        cpu = ExecutionTarget(Location.LOCAL, "cpu", Precision.FP32, 0)
        cloud = ExecutionTarget(Location.CLOUD, "gpu", Precision.FP32)
        observation = env.observe()
        for point in (-1, num_layers + 1):
            with pytest.raises(ConfigError, match="split point"):
                env.execute_split(network, point, cpu, cloud, observation)
        for segments in ([(num_layers - 1, cpu)],
                         [(0, cpu), (num_layers, cpu)],
                         [(num_layers, cloud)]):
            with pytest.raises(ConfigError):
                env.execute_pipelined(network, segments, observation)


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

    def test_execute_split(self, env, zoo, local_target):
        cloud = ExecutionTarget(Location.CLOUD, "gpu", Precision.FP32)
        with pytest.raises(ConfigError, match="slowdown must be >= 1"):
            env.execute_split(zoo["resnet_50"], 10, local_target, cloud)

    def test_execute_pipelined(self, env, zoo, local_target):
        network = zoo["resnet_50"]
        with pytest.raises(ConfigError, match="slowdown must be >= 1"):
            env.execute_pipelined(network,
                                  [(len(network.layers), local_target)])

    def test_execute_batch(self, env, zoo, local_target):
        observation = env.observe()
        with pytest.raises(ConfigError, match="slowdown must be >= 1"):
            env.execute_batch(zoo["resnet_50"], [local_target] * 3,
                              [observation] * 3)

    @pytest.mark.parametrize("contracts", (pytest.param(True, id="1"),
                                           pytest.param(False, id="0")))
    def test_batch_trainer(self, env, zoo, contracts_switch, contracts):
        # Contracts on: the trainer runs the instrumented ``execute``;
        # off: it calls the target's finishing plan directly, whose
        # nominal lookup must check the slowdown too.
        contracts_switch(contracts)
        engine = AutoScale(env, seed=4)
        local = np.array([not target.is_remote
                          for target in engine.action_space.targets])
        # Make a local action the greedy choice in every state.
        engine.qtable.values[:, int(np.flatnonzero(local)[0])] = 1.0
        with pytest.raises(ConfigError, match="slowdown must be >= 1"):
            BatchTrainer(engine).run(use_case_for(zoo["resnet_50"]), 20)
