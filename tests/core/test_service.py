"""Tests for the AutoScaleService facade."""

import pytest

from repro.common import ConfigError
from repro.core.service import AutoScaleService
from repro.env.environment import EdgeCloudEnvironment
from repro.env.qos import use_case_for
from repro.hardware.devices import build_device


@pytest.fixture()
def service(zoo):
    env = EdgeCloudEnvironment(build_device("mi8pro"), scenario="S1",
                               seed=6)
    service = AutoScaleService(env, seed=6)
    service.register(use_case_for(zoo["mobilenet_v3"]))
    service.register(use_case_for(zoo["mobilebert"]))
    return service


class TestRegistry:
    def test_register_and_lookup(self, service, zoo):
        case = service.use_case("mobilenet_v3_non_streaming")
        assert case.network.name == "mobilenet_v3"

    def test_services_listed(self, service):
        assert service.services == ("mobilebert_translation",
                                    "mobilenet_v3_non_streaming")

    def test_unknown_service(self, service):
        with pytest.raises(KeyError, match="known"):
            service.use_case("face_unlock")


class TestServing:
    def test_handle_returns_result_and_traces(self, service):
        result = service.handle("mobilenet_v3_non_streaming")
        assert result.latency_ms > 0
        assert len(service.trace) == 1

    def test_trace_rolls_over(self, zoo):
        env = EdgeCloudEnvironment(build_device("mi8pro"), scenario="S1",
                                   seed=6)
        service = AutoScaleService(env, seed=6, trace_limit=10)
        service.register(use_case_for(zoo["mobilenet_v3"]))
        for _ in range(25):
            service.handle("mobilenet_v3_non_streaming")
        assert len(service.trace) <= 10

    def test_learning_toggle(self, service):
        assert service.learning
        service.set_learning(False)
        before = service.engine.qtable.update_count
        service.handle("mobilenet_v3_non_streaming")
        assert service.engine.qtable.update_count == before
        service.set_learning(True)
        service.handle("mobilenet_v3_non_streaming")
        assert service.engine.qtable.update_count == before + 1

    def test_status_snapshot(self, service):
        for _ in range(5):
            service.handle("mobilenet_v3_non_streaming")
        status = service.status()
        assert status["inferences_served"] == 5
        assert status["num_inferences"] == 5
        assert status["learning"] is True
        assert status["qtable_mb"] > 0.5

    def test_bad_trace_limit(self, zoo):
        env = EdgeCloudEnvironment(build_device("mi8pro"), seed=6)
        with pytest.raises(ConfigError):
            AutoScaleService(env, trace_limit=0)


class TestCheckpointRestore:
    def test_roundtrip(self, service, tmp_path, zoo):
        for _ in range(40):
            service.handle("mobilenet_v3_non_streaming")
        service.checkpoint(tmp_path / "svc")

        env = EdgeCloudEnvironment(build_device("mi8pro"), scenario="S1",
                                   seed=7)
        restored = AutoScaleService.restore(tmp_path / "svc", env)
        restored.register(use_case_for(zoo["mobilenet_v3"]))
        restored.set_learning(False)
        result = restored.handle("mobilenet_v3_non_streaming")
        assert result.latency_ms > 0
        # The restored table carries the original's experience.
        assert restored.engine.qtable.update_count \
            == service.engine.qtable.update_count

    def test_checkpoint_includes_trace(self, service, tmp_path):
        service.handle("mobilenet_v3_non_streaming")
        service.checkpoint(tmp_path / "svc")
        assert (tmp_path / "svc" / "trace.jsonl").exists()

    def test_restore_reloads_trace(self, service, tmp_path, zoo):
        for _ in range(12):
            service.handle("mobilenet_v3_non_streaming")
        service.checkpoint(tmp_path / "svc")
        env = EdgeCloudEnvironment(build_device("mi8pro"), scenario="S1",
                                   seed=7)
        restored = AutoScaleService.restore(tmp_path / "svc", env)
        assert len(restored.trace) == 12
        assert restored.trace.records == service.trace.records

    def test_restore_trace_respects_limit(self, service, tmp_path):
        for _ in range(12):
            service.handle("mobilenet_v3_non_streaming")
        service.checkpoint(tmp_path / "svc")
        env = EdgeCloudEnvironment(build_device("mi8pro"), scenario="S1",
                                   seed=7)
        restored = AutoScaleService.restore(tmp_path / "svc", env,
                                            trace_limit=5)
        assert len(restored.trace) == 5
        assert restored.trace.records[-1] == service.trace.records[-1]

    def test_restore_continues_trace_indices(self, service, tmp_path):
        for _ in range(12):
            service.handle("mobilenet_v3_non_streaming")
        service.checkpoint(tmp_path / "svc")
        env = EdgeCloudEnvironment(build_device("mi8pro"), scenario="S1",
                                   seed=7)
        restored = AutoScaleService.restore(tmp_path / "svc", env,
                                            trace_limit=5)
        restored.register(service.use_case("mobilenet_v3_non_streaming"))
        restored.handle("mobilenet_v3_non_streaming")
        indices = [record.index for record in restored.trace.records]
        assert indices[-1] == 12
        assert len(set(indices)) == len(indices)

    def test_restore_without_trace_starts_empty(self, service, tmp_path):
        from repro.core.persistence import save_engine
        save_engine(service.engine, tmp_path / "bare")
        env = EdgeCloudEnvironment(build_device("mi8pro"), scenario="S1",
                                   seed=7)
        restored = AutoScaleService.restore(tmp_path / "bare", env)
        assert len(restored.trace) == 0


class TestResilienceSurface:
    def test_disabled_by_default(self, service):
        assert not service.resilience.enabled
        status = service.status()
        assert status["resilience_enabled"] is False
        assert status["breakers"] == {}

    def test_status_reports_fault_ledger(self, service):
        service.handle("mobilenet_v3_non_streaming")
        status = service.status()
        assert status["faults"]["attempts"] >= 0
        assert status["availability_pct"] == 100.0
