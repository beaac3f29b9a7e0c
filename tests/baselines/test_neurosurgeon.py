"""Tests for the NeuroSurgeon baseline."""

import dataclasses

import numpy as np
import pytest

from repro.baselines import neurosurgeon
from repro.baselines.neurosurgeon import (
    LayerLatencyModel,
    NeurosurgeonScheduler,
)
from repro.common import ConfigError, make_rng
from repro.env.observation import Observation
from repro.env.qos import UseCase, use_case_for
from repro.hardware.processor import ProcessorKind
from repro.models.layers import Layer, LayerType
from repro.models.network import NeuralNetwork, Task
from repro.models.quantization import Precision


def _reference_plan(environment, use_case, observation, local_layer,
                    remote_layer):
    """The per-point split sweep ``plan`` evaluates as array ops.

    ``local_layer`` / ``remote_layer`` are the fitted models' per-layer
    predictions; the loop is the scheduler's original scalar one.
    """
    network = use_case.network
    device = environment.device
    link = environment.wifi
    rssi_dbm = observation.rssi_wlan_dbm
    ms_per_byte = link.transfer_ms(1.0, rssi_dbm)
    rtt = link.effective_rtt_ms(rssi_dbm)
    local_prefix = np.concatenate([[0.0], np.cumsum(local_layer)])
    remote_suffix = np.concatenate(
        [np.cumsum(remote_layer[::-1])[::-1], [0.0]]
    )
    busy_mw = device.soc.cpu.busy_power_at(-1)
    base_mw = device.soc.platform_idle_mw
    tx_mw = link.tx_power_mw(rssi_dbm)

    best_point, best_energy_mj, best_latency_ms = None, None, None
    num_layers = len(network.layers)
    for point in range(num_layers + 1):
        wire = network.transfer_bytes_at(point)
        tx_ms = wire * ms_per_byte
        remote_ms = remote_suffix[point]
        comm_ms = (tx_ms + rtt) if point < num_layers else 0.0
        latency_ms = local_prefix[point] + comm_ms + remote_ms
        energy_mj = (
            busy_mw * local_prefix[point]
            + tx_mw * tx_ms
            + base_mw * latency_ms
        ) / 1000.0
        if point < num_layers:
            energy_mj += link.tail_energy_mj()
        feasible = latency_ms <= use_case.qos_ms
        rank = (not feasible, energy_mj)
        if best_point is None or rank < (not (best_latency_ms
                                              <= use_case.qos_ms),
                                         best_energy_mj):
            best_point, best_energy_mj, best_latency_ms = \
                point, energy_mj, latency_ms
    return best_point


def _predictions(scheduler, use_case):
    name = use_case.network.name
    layers = use_case.network.layers
    return (scheduler._local_models[name].predict_layers(layers),
            scheduler._remote_models[name].predict_layers(layers))


class TestLayerLatencyModel:
    def test_fits_linear_mac_relationship(self, mi8pro_device, zoo):
        cpu = mi8pro_device.soc.cpu
        layers = zoo["inception_v1"].layers
        model = LayerLatencyModel().fit(cpu, layers, Precision.FP32)
        for layer in layers[:10]:
            predicted = model.predict_layer(layer)
            actual = cpu.layer_latency_ms(layer, Precision.FP32)
            assert predicted == pytest.approx(actual, rel=0.35, abs=0.15)

    def test_predictions_positive(self, mi8pro_device, zoo):
        cpu = mi8pro_device.soc.cpu
        layers = zoo["mobilenet_v3"].layers
        model = LayerLatencyModel().fit(cpu, layers, Precision.FP32,
                                        rng=make_rng(0))
        assert (model.predict_layers(layers) > 0).all()

    def test_unfitted_rejected(self, zoo):
        with pytest.raises(ConfigError):
            LayerLatencyModel().predict_layer(zoo["mobilenet_v3"].layers[0])


@pytest.fixture()
def trained(env, zoo):
    scheduler = NeurosurgeonScheduler()
    cases = [use_case_for(zoo[n])
             for n in ("mobilenet_v3", "inception_v1", "resnet_50",
                       "mobilebert")]
    scheduler.train(env, cases, rng=make_rng(0))
    return scheduler, cases


class TestNeurosurgeonScheduler:
    def test_plan_is_valid_split_point(self, env, trained):
        scheduler, cases = trained
        for case in cases:
            point = scheduler.plan(env, case, env.observe())
            assert 0 <= point <= len(case.network.layers)

    def test_offloads_heavy_network(self, env, trained):
        """ResNet-50 on a phone: NeuroSurgeon should ship (almost)
        everything to the cloud at strong signal."""
        scheduler, cases = trained
        resnet = next(c for c in cases if "resnet" in c.name)
        point = scheduler.plan(env, resnet, env.observe())
        assert point < len(resnet.network.layers) // 4

    def test_execute_produces_result(self, env, trained):
        scheduler, cases = trained
        result = scheduler.execute(env, cases[0])
        assert result.latency_ms > 0
        assert result.energy_mj > 0

    def test_weak_signal_moves_split_toward_local(self, mi8pro_device,
                                                  zoo, trained):
        from repro.env.environment import EdgeCloudEnvironment
        scheduler, cases = trained
        resnet = next(c for c in cases if "resnet" in c.name)
        strong_env = EdgeCloudEnvironment(mi8pro_device, scenario="S1",
                                          seed=0)
        weak_env = EdgeCloudEnvironment(mi8pro_device, scenario="S4",
                                        seed=0)
        strong_point = scheduler.plan(strong_env, resnet,
                                      strong_env.observe())
        weak_point = scheduler.plan(weak_env, resnet, weak_env.observe())
        assert weak_point >= strong_point

    def test_untrained_rejected(self, env, zoo):
        with pytest.raises(ConfigError):
            NeurosurgeonScheduler().plan(
                env, use_case_for(zoo["mobilenet_v3"]), env.observe()
            )

    def test_requires_cloud(self, mi8pro_device, zoo):
        from repro.env.environment import EdgeCloudEnvironment
        env = EdgeCloudEnvironment(mi8pro_device, cloud=False)
        with pytest.raises(ConfigError):
            NeurosurgeonScheduler().train(
                env, [use_case_for(zoo["mobilenet_v3"])]
            )


class TestPlanEqualsThePerPointSweep:
    RSSI_DBM = (-40.0, -55.0, -67.0, -75.0, -82.0, -90.0, -99.0)
    QOS_MS = (1e-3, 5.0, 20.0, 50.0, 120.0, 400.0, 5e3)

    def test_rssi_qos_grid(self, env, trained):
        scheduler, cases = trained
        infeasible = 0
        for case in cases:
            local_layer, remote_layer = _predictions(scheduler, case)
            for rssi_dbm in self.RSSI_DBM:
                observation = Observation(rssi_wlan_dbm=rssi_dbm)
                for qos_ms in self.QOS_MS:
                    use_case = dataclasses.replace(case, qos_ms=qos_ms)
                    want = _reference_plan(env, use_case, observation,
                                           local_layer, remote_layer)
                    assert scheduler.plan(env, use_case, observation) \
                        == want, (case.name, rssi_dbm, qos_ms)
                    infeasible += qos_ms == 1e-3
        # The 1 us target leaves no feasible split: the minimum-energy
        # fallback ran in every such cell.
        assert infeasible == len(cases) * len(self.RSSI_DBM)

    @staticmethod
    def _stub_models(monkeypatch, local_costs, remote_costs):
        """Replace the fitted models by fixed per-layer predictions."""

        class _Fixed(LayerLatencyModel):
            def fit(self, processor, layers, precision, **kwargs):
                self.costs = (local_costs
                              if processor.kind is ProcessorKind.CPU
                              else remote_costs)
                return self

            def predict_layers(self, layers):
                return np.array(self.costs, dtype=float)

        monkeypatch.setattr(neurosurgeon, "LayerLatencyModel", _Fixed)

    @staticmethod
    def _network(output_bytes):
        return NeuralNetwork(
            "stub", Task.IMAGE_CLASSIFICATION,
            tuple(Layer(LayerType.CONV, f"conv_{index}", macs=1e6,
                        output_bytes=size)
                  for index, size in enumerate(output_bytes)),
            input_bytes=150_528.0, output_bytes=16.0,
        )

    def test_interior_splits(self, env, monkeypatch):
        """Random per-layer costs and activations, so the best split
        lands inside the network as well as at its ends."""
        rng = np.random.default_rng(7)
        chosen = set()
        for _ in range(20):
            num_layers = int(rng.integers(3, 12))
            self._stub_models(monkeypatch,
                              rng.uniform(0.5, 30.0, num_layers),
                              rng.uniform(0.05, 3.0, num_layers))
            network = self._network(rng.uniform(1e2, 2e5, num_layers))
            scheduler = NeurosurgeonScheduler()
            scheduler.train(env, [UseCase("stub", network, qos_ms=1.0)])
            local_layer, remote_layer = _predictions(
                scheduler, UseCase("stub", network, qos_ms=1.0))
            for rssi_dbm in self.RSSI_DBM:
                observation = Observation(rssi_wlan_dbm=rssi_dbm)
                for qos_ms in self.QOS_MS:
                    use_case = UseCase("stub", network, qos_ms=qos_ms)
                    want = _reference_plan(env, use_case, observation,
                                           local_layer, remote_layer)
                    assert scheduler.plan(env, use_case, observation) \
                        == want
                    chosen.add(0 < want < num_layers)
        assert chosen == {True, False}

    @pytest.mark.parametrize("qos_ms", (1e-3, 1e4))
    def test_equal_energy_ties_go_to_the_earliest_point(self, env,
                                                        monkeypatch,
                                                        qos_ms):
        """Every split but the all-local one costs the same: identical
        activations on the wire, zero predicted compute on either side,
        and an all-local point priced out by its last layer."""
        self._stub_models(monkeypatch, [0.0] * 5 + [1e6], [0.0] * 6)
        network = self._network([150_528.0] * 6)
        use_case = UseCase("stub", network, qos_ms=qos_ms)
        scheduler = NeurosurgeonScheduler()
        scheduler.train(env, [use_case])
        observation = Observation()
        local_layer, remote_layer = _predictions(scheduler, use_case)
        want = _reference_plan(env, use_case, observation, local_layer,
                               remote_layer)
        assert want == 0
        assert scheduler.plan(env, use_case, observation) == want
