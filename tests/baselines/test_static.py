"""Tests for the static baseline policies."""

import pytest

from repro.baselines.static import (
    CloudOffload,
    ConnectedEdgeOffload,
    EdgeBest,
    EdgeCpuFp32,
    _top_vf_targets,
)
from repro.env.target import Location
from repro.models.quantization import Precision


class TestEdgeCpuFp32:
    def test_always_local_cpu_fp32_top_clock(self, env, mobilenet_case):
        policy = EdgeCpuFp32()
        obs = env.observe()
        target = policy.select(env, mobilenet_case, obs)
        assert target.location is Location.LOCAL
        assert target.role == "cpu"
        assert target.precision is Precision.FP32
        assert target.vf_index == env.device.soc.cpu.num_vf_steps - 1

    def test_execute_returns_result(self, env, mobilenet_case):
        result = EdgeCpuFp32().execute(env, mobilenet_case)
        assert result.target_key.startswith("local/cpu/fp32")


class TestTopVfTargets:
    @pytest.mark.parametrize("location", list(Location))
    def test_filtered_once_per_environment_and_location(self, env,
                                                        location):
        targets = _top_vf_targets(env, location)
        assert _top_vf_targets(env, location) is targets
        # One target per (role, precision), at that slot's top V/F step.
        expected = {}
        for target in env.targets():
            if target.location is location:
                slot = (target.role, target.precision)
                expected[slot] = max(expected.get(slot, target.vf_index),
                                     target.vf_index)
        assert {(target.role, target.precision): target.vf_index
                for target in targets} == expected
        assert len(targets) == len(expected)


class TestEdgeBest:
    def test_stays_local(self, env, mobilenet_case, resnet_case,
                         bert_case):
        policy = EdgeBest()
        for case in (mobilenet_case, resnet_case, bert_case):
            target = policy.select(env, case, env.observe())
            assert target.location is Location.LOCAL

    def test_beats_cpu_baseline_energy(self, env, resnet_case):
        obs = env.observe()
        best = env.estimate(resnet_case.network,
                            EdgeBest().select(env, resnet_case, obs), obs)
        cpu = env.estimate(resnet_case.network,
                           EdgeCpuFp32().select(env, resnet_case, obs),
                           obs)
        assert best.energy_mj < cpu.energy_mj

    def test_choice_cached_per_use_case(self, env, mobilenet_case):
        policy = EdgeBest()
        obs = env.observe()
        first = policy.select(env, mobilenet_case, obs)
        second = policy.select(env, mobilenet_case, obs)
        assert first is second

    def test_static_choice_ignores_interference(self, mi8pro_device,
                                                mobilenet_case):
        """Fig. 5's criticism: Edge(Best) cannot react to co-runners."""
        from repro.env.environment import EdgeCloudEnvironment
        quiet_env = EdgeCloudEnvironment(mi8pro_device, scenario="S1",
                                         seed=0)
        policy = EdgeBest()
        quiet_target = policy.select(quiet_env, mobilenet_case,
                                     quiet_env.observe())
        busy_env = EdgeCloudEnvironment(mi8pro_device, scenario="S2",
                                        seed=0)
        busy_target = policy.select(busy_env, mobilenet_case,
                                    busy_env.observe())
        assert quiet_target.key == busy_target.key


class TestRemoteOffloads:
    def test_cloud_always_cloud(self, env, mobilenet_case, bert_case):
        policy = CloudOffload()
        for case in (mobilenet_case, bert_case):
            target = policy.select(env, case, env.observe())
            assert target.location is Location.CLOUD

    def test_connected_always_connected(self, env, mobilenet_case):
        target = ConnectedEdgeOffload().select(env, mobilenet_case,
                                               env.observe())
        assert target.location is Location.CONNECTED

    def test_cloud_picks_gpu_for_heavy(self, env, bert_case):
        target = CloudOffload().select(env, bert_case, env.observe())
        assert target.role == "gpu"

    def test_accuracy_target_respected(self, env, zoo):
        from repro.env.qos import use_case_for
        case = use_case_for(zoo["mobilenet_v3"], accuracy_target=65.0)
        target = ConnectedEdgeOffload().select(env, case, env.observe())
        # INT8 on the connected DSP fails the 65% target for MobileNet v3.
        assert target.precision is not Precision.INT8
