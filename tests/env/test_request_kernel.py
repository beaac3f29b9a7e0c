"""The request kernel: compiled scenario samplers and finishing plans.

Both halves replace generic call chains on every request, so both are
held to those chains with ``==`` (bit for bit, never approx):

- a scenario's compiled :attr:`~repro.env.scenarios.Scenario.readings`
  return the values of the per-model ``sample`` chain and leave the
  bit generator where that chain leaves it — from a Generator and from
  a :class:`~repro.common.NormalBlock` that draws ahead mid-stream;
- a target's :class:`~repro.env.executor.LocalPlan` /
  :class:`~repro.env.executor.RemotePlan` bills a run exactly as the
  ``cpu/gpu/dsp_energy_mj`` + ``platform_energy_mj`` (local) and
  ``transmission_energy_mj`` + ``platform_energy_mj`` (remote) chain,
  with contracts on and off;
- with contracts on, NaN and negative inputs still raise.
"""

import copy
import math
import pickle

import numpy as np
import pytest

from repro.common import ConfigError, NormalBlock
from repro.env.environment import EdgeCloudEnvironment
from repro.env.executor import LocalPlan, RemotePlan
from repro.env.observation import Observation, sample_observation
from repro.env.scenarios import SCENARIO_NAMES, Scenario, build_scenario
from repro.hardware.devices import build_device
from repro.hardware.power import (
    cpu_energy_mj,
    dsp_energy_mj,
    gpu_energy_mj,
    platform_energy_mj,
)
from repro.hardware.processor import ProcessorKind
from repro.interference.corunner import (
    CoRunnerLoad,
    SwitchingCoRunner,
    music_player,
    web_browser,
)
from repro.wireless.energy import transmission_energy_mj
from repro.wireless.signal import (
    ConstantSignal,
    GaussianSignal,
    OutageSignal,
    RandomWalkSignal,
)

#: Virtual timestamps crossing trace phases, D4's 60 s co-runner switch
#: and the outage windows below.
TIMES_MS = [index * 997.0 for index in range(160)]


def _walk_scenario():
    return Scenario(
        "walk", "random-walk WLAN under a browser", web_browser(),
        RandomWalkSignal(mean_dbm=-72.0, std_db=8.0, reversion=0.2),
        ConstantSignal(-60.0), dynamic=True)


def _outage_scenario():
    return Scenario(
        "outage", "outage-gated Gaussian P2P, switching co-runners",
        SwitchingCoRunner("mixed", (music_player(), web_browser()),
                          switch_every_ms=20_000.0),
        GaussianSignal(mean_dbm=-70.0, std_db=6.0),
        OutageSignal(base=GaussianSignal(mean_dbm=-66.0, std_db=5.0),
                     period_ms=9_000.0, outage_ms=3_000.0),
        dynamic=True)


#: Factories: a stateful signal must not be shared by the two sides.
SCENARIO_FACTORIES = {
    **{name: (lambda name=name: build_scenario(name))
       for name in SCENARIO_NAMES},
    "random_walk": _walk_scenario,
    "outage": _outage_scenario,
}


def _chain(scenario, rng, now_ms):
    """The per-model ``sample`` chain the compiled readings replace."""
    load = scenario.corunner.sample(rng, now_ms)
    return (load.cpu_util, load.mem_util,
            scenario.wlan_signal.sample(rng, now_ms),
            scenario.p2p_signal.sample(rng, now_ms))


def _bits(values):
    return [float(value).hex() for value in values]


class TestCompiledSamplers:
    @pytest.mark.parametrize("name", sorted(SCENARIO_FACTORIES))
    def test_generator_parity(self, name):
        compiled = SCENARIO_FACTORIES[name]()
        reference = SCENARIO_FACTORIES[name]()
        rng = np.random.default_rng(11)
        reference_rng = np.random.default_rng(11)
        for now_ms in TIMES_MS:
            assert _bits(compiled.readings(rng, now_ms)) \
                == _bits(_chain(reference, reference_rng, now_ms))
        assert rng.bit_generator.state == reference_rng.bit_generator.state

    @pytest.mark.parametrize("name", sorted(SCENARIO_FACTORIES))
    def test_normal_block_extended_mid_stream(self, name):
        compiled = SCENARIO_FACTORIES[name]()
        reference = SCENARIO_FACTORIES[name]()
        rng = np.random.default_rng(5)
        reference_rng = np.random.default_rng(5)
        block = NormalBlock(rng)
        draws = compiled.draws_per_sample
        for step, now_ms in enumerate(TIMES_MS):
            if step % 3 == 0:
                # Draw ahead while values are still unread: the reader
                # the samplers call is rebound under them.
                block.extend(3 * draws + 1)
            assert _bits(compiled.readings(block, now_ms)) \
                == _bits(_chain(reference, reference_rng, now_ms))
        block.sync()
        assert rng.bit_generator.state == reference_rng.bit_generator.state

    def test_sample_observation_packs_the_readings(self):
        scenario = build_scenario("D4")
        rng = np.random.default_rng(2)
        reference_rng = np.random.default_rng(2)
        observation = sample_observation(scenario, rng, 61_000.0)
        cpu, mem, wlan, p2p = _chain(scenario, reference_rng, 61_000.0)
        assert observation == Observation(cpu, mem, wlan, p2p, 61_000.0)

    def test_model_without_sampler_falls_back_to_sample(self):
        class HalfLoad:
            draws_per_sample = 0

            def sample(self, rng, now_ms=0.0):
                return CoRunnerLoad(cpu_util=0.5, mem_util=0.25)

        scenario = Scenario("half", "fixed half load", HalfLoad(),
                            ConstantSignal(), ConstantSignal())
        assert scenario.readings(None, 0.0) == (0.5, 0.25, -55.0, -55.0)

    def test_copies_sample_their_own_models(self):
        original = _walk_scenario()
        copied = copy.deepcopy(original)
        copied.readings(np.random.default_rng(0), 0.0)
        assert original.wlan_signal._state == -72.0
        assert copied.wlan_signal._state != -72.0
        restored = pickle.loads(pickle.dumps(build_scenario("D4")))
        assert restored == build_scenario("D4")
        assert restored.readings(np.random.default_rng(1), 70_000.0) \
            == build_scenario("D4").readings(np.random.default_rng(1),
                                             70_000.0)

    @pytest.mark.parametrize("field, value", (("cpu_util", math.nan),
                                              ("mem_util", -0.1),
                                              ("rssi_wlan_dbm", math.nan),
                                              ("rssi_p2p_dbm", -5.0)))
    def test_observation_range_check(self, field, value):
        with pytest.raises(ConfigError, match=field):
            Observation(**{field: value})


@pytest.fixture()
def kernel_env():
    return EdgeCloudEnvironment(build_device("mi8pro"), scenario="S1",
                                seed=3)


#: (observation, jitters) cases: quiet and loaded device, strong and
#: weak links, unit and drawn jitters.
CASES = (
    (Observation(), (1.0,) * 5),
    (Observation(cpu_util=0.9, mem_util=0.1, rssi_wlan_dbm=-86.0,
                 rssi_p2p_dbm=-61.5),
     tuple(math.exp(0.05 * z) for z in (0.3, -1.2, 0.7, 2.1, -0.4))),
    (Observation(cpu_util=0.2, mem_util=0.95, rssi_wlan_dbm=-55.0,
                 rssi_p2p_dbm=-88.0),
     tuple(math.exp(0.08 * z) for z in (-2.0, 0.1, -0.3, 1.4, 0.9))),
)


def _chain_local(env, network, target, observation, jitters):
    """Eq. (1)-(3) through the ``@checked`` power functions."""
    proc = env.device.soc.processor(target.role)
    slowdown = env.interference.slowdown(proc.kind, observation)
    nominal_ms = proc.network_latency_ms(network, target.precision,
                                         target.vf_index, slowdown)
    latency_ms = nominal_ms * jitters[0]
    if proc.kind is ProcessorKind.CPU:
        busy_mj = cpu_energy_mj(proc, latency_ms, vf_index=target.vf_index)
    elif proc.kind is ProcessorKind.GPU:
        busy_mj = gpu_energy_mj(proc, latency_ms, vf_index=target.vf_index)
    else:
        busy_mj = dsp_energy_mj(proc, latency_ms)
    overhead_mj = platform_energy_mj(env.device.soc.platform_idle_mw,
                                     latency_ms)
    if target.role != "cpu":
        overhead_mj += env.device.soc.cpu.idle_power_mw * latency_ms / 1000.0
    factor = (1.0 + 0.10 * observation.mem_util
              + 0.05 * observation.cpu_util)
    return (latency_ms, busy_mj * factor * jitters[1] + overhead_mj,
            busy_mj + overhead_mj, {"compute_ms": latency_ms,
                                    "slowdown": slowdown,
                                    "busy_mj": busy_mj})


def _chain_remote(env, network, target, observation, jitters):
    """Eq. (4) through ``transmission_energy_mj`` + the platform power."""
    remote, link = env._remote_setup(target)
    rssi_dbm = (observation.rssi_wlan_dbm if target.location.value == "cloud"
                else observation.rssi_p2p_dbm)
    tx_slow = env.interference.transmission_slowdown(observation)
    server, tx_jitter, rx_jitter, rtt_jitter, power = jitters
    remote_ms = remote.soc.processor(target.role).network_latency_ms(
        network, target.precision) * server
    tx_ms = link.transfer_ms(network.input_bytes, rssi_dbm) * tx_slow \
        * tx_jitter
    rx_ms = link.transfer_ms(network.output_bytes, rssi_dbm) * tx_slow \
        * rx_jitter
    rtt_ms = link.effective_rtt_ms(rssi_dbm) * rtt_jitter
    latency_ms = tx_ms + rtt_ms + remote_ms + rx_ms
    radio = transmission_energy_mj(link, rssi_dbm, network.input_bytes,
                                   network.output_bytes, latency_ms,
                                   tx_ms=tx_ms, rx_ms=rx_ms)
    overhead_mj = platform_energy_mj(env.device.soc.platform_idle_mw,
                                     latency_ms) \
        + env.device.soc.cpu.idle_power_mw * latency_ms / 1000.0
    return (latency_ms, radio.radio_energy_mj * power + overhead_mj,
            radio.radio_energy_mj + overhead_mj,
            {"tx_ms": tx_ms, "rx_ms": rx_ms, "rtt_ms": rtt_ms,
             "remote_ms": remote_ms, "radio_mj": radio.radio_energy_mj})


class TestFinishingPlans:
    @pytest.mark.parametrize("contracts", (pytest.param(True, id="1"),
                                           pytest.param(False, id="0")))
    @pytest.mark.parametrize("network_name", ("mobilenet_v3", "resnet_50"))
    def test_plan_equals_the_power_function_chain(self, kernel_env, zoo,
                                                  contracts_switch,
                                                  contracts, network_name):
        contracts_switch(contracts)
        network = zoo[network_name]
        engine = kernel_env.cost_engine
        for target in kernel_env.targets():
            chain = _chain_remote if target.is_remote else _chain_local
            for observation, jitters in CASES:
                result = engine.plan(target).run(network, observation,
                                                 jitters)
                latency_ms, energy_mj, estimate_mj, detail = chain(
                    kernel_env, network, target, observation, jitters)
                assert result.latency_ms == latency_ms, target.key
                assert result.energy_mj == energy_mj, target.key
                assert result.estimated_energy_mj == estimate_mj, target.key
                assert result.detail == detail, target.key
                assert result.accuracy_pct == kernel_env.accuracy.lookup(
                    network.name, target.precision)
                assert result.target_key == target.key

    def test_one_plan_per_target_until_rebuild(self, kernel_env):
        engine = kernel_env.cost_engine
        target = kernel_env.targets()[0]
        plan = engine.plan(target)
        assert engine.plan(target) is plan
        engine.rebuild()
        assert engine.plan(target) is not plan

    def test_memo_does_not_outlive_the_observation_values(self, kernel_env,
                                                          zoo):
        # A new Observation object with new values is re-resolved even
        # right after a memo hit on the previous one.
        network = zoo["resnet_50"]
        target = next(target for target in kernel_env.targets()
                      if target.role == "cpu")
        plan = kernel_env.cost_engine.plan(target)
        quiet = Observation()
        busy = Observation(cpu_util=0.9, mem_util=0.4)
        first = plan.run(network, quiet, (1.0, 1.0))
        assert plan.run(network, quiet, (1.0, 1.0)) == first
        assert plan.run(network, busy, (1.0, 1.0)).latency_ms \
            > first.latency_ms


class TestPlanContracts:
    @pytest.fixture()
    def plans(self, kernel_env):
        targets = kernel_env.targets()
        local = next(target for target in targets if target.role == "gpu"
                     and not target.is_remote)
        cloud = next(target for target in targets if target.is_remote)
        _, link = kernel_env._remote_setup(cloud)
        return (LocalPlan(kernel_env.device, local),
                RemotePlan(kernel_env.device, cloud, link))

    @pytest.mark.parametrize("nominal_ms", (math.nan, -3.0))
    def test_local_rejects_nan_and_negative(self, plans, contracts_switch,
                                            nominal_ms):
        contracts_switch(True)
        local, _ = plans
        with pytest.raises(ConfigError, match="busy_ms"):
            local.finish(nominal_ms, 1.0, Observation(), 70.0, 1.0, 1.0)

    @pytest.mark.parametrize("nominal_ms", (math.nan, -3.0))
    def test_local_rejects_without_contracts(self, plans, contracts_switch,
                                             nominal_ms):
        contracts_switch(False)
        local, _ = plans
        with pytest.raises(ConfigError, match="latency_ms"):
            local.finish(nominal_ms, 1.0, Observation(), 70.0, 1.0, 1.0)

    def test_remote_rejects_nan_rssi(self, plans, contracts_switch):
        contracts_switch(True)
        _, remote = plans
        with pytest.raises(ConfigError, match="rssi_dbm"):
            remote.finish(20.0, 5.0, 1.0, 10.0, 1.0, math.nan, 70.0,
                          (1.0,) * 5)

    def test_remote_rejects_nan_latency(self, plans, contracts_switch):
        contracts_switch(True)
        _, remote = plans
        with pytest.raises(ConfigError, match="total_latency_ms"):
            remote.finish(math.nan, 5.0, 1.0, 10.0, 1.0, -60.0, 70.0,
                          (1.0,) * 5)

    @pytest.mark.parametrize("contracts", (True, False))
    def test_remote_rejects_negative_transfer(self, plans, contracts_switch,
                                              contracts):
        contracts_switch(contracts)
        _, remote = plans
        with pytest.raises(ConfigError, match="negative effective transfer"):
            remote.finish(20.0, -5.0, 1.0, 40.0, 1.0, -60.0, 70.0,
                          (1.0,) * 5)

    @pytest.mark.parametrize("contracts", (True, False))
    def test_remote_rejects_latency_below_transfer(self, plans,
                                                   contracts_switch,
                                                   contracts):
        contracts_switch(contracts)
        _, remote = plans
        with pytest.raises(ConfigError, match="shorter than transfer"):
            remote.finish(-12.0, 5.0, 1.0, 10.0, 1.0, -60.0, 70.0,
                          (1.0,) * 5)

    def test_remote_breakdown_field_checks(self, plans, contracts_switch):
        contracts_switch(False)
        _, remote = plans
        with pytest.raises(ConfigError, match="tx_ms"):
            remote.finish(20.0, math.inf, 1.0, 10.0, 1.0, -60.0, 70.0,
                          (1.0,) * 5)
