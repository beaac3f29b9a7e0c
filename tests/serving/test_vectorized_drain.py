"""Bit-parity of the serving drain against the request-at-a-time reference.

The acceptance property of the one serving drain: every observable —
outcome measurements, trace rows, Q-table bytes, visit counts, the
engine's, environment's and retry RNG streams' bit-generator states,
the virtual clock, and the shed ledger — is byte-equal to a twin run
through :class:`~tests.serving.reference_drain.ReferencePipeline`, which
re-sweeps and re-encodes for every request.  Each scenario
below targets one branch of the drain: lazy training selection, the
frozen batched-argmax prefill, brownout/nominal selection,
multi-network batches, mid-batch expiry, feasibility re-observation
under the dynamic scenarios D1-D4 and across a mid-drain scenario swap,
the resilient path under chaos faults, and the guard's SHADOW/DEGRADE
fallbacks.

The use-case-keyed coalescing regression (two use cases sharing a
(network, state) bucket under brownout) is pinned here too, for both
drains.
"""

import numpy as np
import pytest

from repro.common import make_rng
from repro.core.service import AutoScaleService
from repro.env.environment import EdgeCloudEnvironment
from repro.env.qos import UseCase, use_case_for
from repro.faults.plan import FaultPlan, OutageWindow
from repro.faults.resilience import ResiliencePolicy
from repro.guard import GuardConfig, PolicyGuard
from repro.hardware.devices import build_device
from repro.models.quantization import Precision
from repro.serving.arrivals import (
    Arrival,
    MarkovModulatedArrivals,
    PoissonArrivals,
    TraceArrivals,
    merge_arrivals,
)
from repro.serving.brownout import BrownoutConfig
from repro.serving.pipeline import ServingConfig, ServingPipeline
from repro.serving.shedder import DeadlinePolicy
from repro.sim.events import EventKind
from tests.serving.reference_drain import ReferencePipeline

PIPELINES = (ServingPipeline, ReferencePipeline)


def _service(seed, scenario="S1", think_time_ms=150.0, **service_kwargs):
    env = EdgeCloudEnvironment(build_device("mi8pro"), scenario=scenario,
                               seed=seed, think_time_ms=think_time_ms)
    return AutoScaleService(env, seed=seed, **service_kwargs)


def _outcome_signature(outcome):
    signature = (type(outcome).__name__, outcome.latency_ms,
                 outcome.energy_mj, outcome.target_key)
    if outcome.shed:
        signature += (outcome.reason.value, outcome.shed_at_ms,
                      outcome.deadline_ms, outcome.queue_delay_ms)
    return signature


def _run(pipeline_class, seed, cases, arrivals, config, learning=True,
         pretrain=0, service_kwargs=None, prepare=None):
    service = _service(seed, **(service_kwargs or {}))
    for case in cases:
        service.register(case)
    if pretrain:
        for case in cases:
            service.engine.run(case, pretrain)
        service.environment.reset()
    if not learning:
        service.set_learning(False)
    if prepare is not None:
        prepare(service)
    pipeline = pipeline_class(service, ServingConfig(**config))
    outcomes = pipeline.serve(list(arrivals))
    return service, pipeline, outcomes


def _assert_bit_identical(fast, reference):
    service_a, pipeline_a, outcomes_a = fast
    service_b, pipeline_b, outcomes_b = reference
    assert len(outcomes_a) == len(outcomes_b)
    for a, b in zip(outcomes_a, outcomes_b):
        assert _outcome_signature(a.outcome) \
            == _outcome_signature(b.outcome)
        assert (a.queue_delay_ms, a.tier) == (b.queue_delay_ms, b.tier)
    assert list(service_a.trace.records) == list(service_b.trace.records)
    table_a, table_b = service_a.engine.qtable, service_b.engine.qtable
    assert table_a.values.tobytes() == table_b.values.tobytes()
    assert (table_a.visits == table_b.visits).all()
    assert table_a.update_count == table_b.update_count
    assert service_a.engine.rng.bit_generator.state \
        == service_b.engine.rng.bit_generator.state
    assert service_a.environment.rng.bit_generator.state \
        == service_b.environment.rng.bit_generator.state
    assert service_a._retry_rng.bit_generator.state \
        == service_b._retry_rng.bit_generator.state
    assert service_a.breaker_states() == service_b.breaker_states()
    assert service_a.guard.status() == service_b.guard.status()
    assert service_a.environment.clock.now_ms \
        == service_b.environment.clock.now_ms
    assert pipeline_a.shed_stats.as_dict() \
        == pipeline_b.shed_stats.as_dict()


def _parity(seed, cases_of, arrivals_of, config, **run_kwargs):
    runs = [
        _run(pipeline_class, seed, cases_of(), arrivals_of(), config,
             **run_kwargs)
        for pipeline_class in PIPELINES
    ]
    return runs[0], runs[1]


class TestDrainParity:
    def test_training_overload_burst(self, zoo):
        """Training keeps selection lazy per group; a hopeless burst
        mixes serves with EXPIRED and INFEASIBLE sheds mid-batch."""
        case = use_case_for(zoo["mobilenet_v3"])
        fast, reference = _parity(
            11,
            lambda: [case],
            lambda: [Arrival(0.0, case.name) for _ in range(60)],
            dict(brownout=BrownoutConfig.disabled()),
        )
        assert fast[1].shed_stats.total_sheds > 0
        _assert_bit_identical(fast, reference)

    def test_training_epsilon_explorations_replay_exactly(self, zoo):
        """A multi-drain stream with exploration on: lazy selection
        must land every epsilon draw where request-at-a-time serving
        puts it."""
        case = use_case_for(zoo["mobilenet_v3"])

        def arrivals():
            return PoissonArrivals(case.name, arrivals_per_s=5.0) \
                .generate(30_000.0, np.random.default_rng(3))

        fast, reference = _parity(
            13,
            lambda: [case],
            arrivals,
            dict(queue_capacity=None,
                 deadline=DeadlinePolicy(qos_factor=50.0),
                 brownout=BrownoutConfig.disabled()),
        )
        assert any(record.explored
                   for record in reference[0].trace.records)
        _assert_bit_identical(fast, reference)

    def test_frozen_engine_uses_batched_argmax(self, zoo):
        """Frozen serving takes the upfront select_action_batch path —
        and must still match the reference byte for byte."""
        case = use_case_for(zoo["mobilenet_v3"])
        fast, reference = _parity(
            17,
            lambda: [case],
            lambda: [Arrival(0.0, case.name) for _ in range(40)],
            dict(queue_capacity=None,
                 deadline=DeadlinePolicy(qos_factor=200.0),
                 brownout=BrownoutConfig.disabled()),
            learning=False,
            pretrain=30,
        )
        _assert_bit_identical(fast, reference)

    def test_brownout_tiers_match(self, zoo):
        """Escalated tiers route through the nominal-cost selection in
        both drains."""
        case = use_case_for(zoo["mobilenet_v3"])
        fast, reference = _parity(
            23,
            lambda: [case],
            lambda: [Arrival(0.0, case.name) for _ in range(30)],
            dict(queue_capacity=None,
                 deadline=DeadlinePolicy(qos_factor=100.0)),
        )
        assert reference[1].brownout.escalations >= 1
        _assert_bit_identical(fast, reference)

    def test_multi_network_batches(self, zoo):
        """Heterogeneous batches: three networks interleaved at the
        same instants — per-network floors, states, and coalescing
        groups all diverge inside one drain."""
        def cases():
            return [use_case_for(zoo["mobilenet_v3"]),
                    use_case_for(zoo["resnet_50"]),
                    use_case_for(zoo["mobilebert"])]

        def arrivals():
            names = [case.name for case in cases()]
            return [Arrival(200.0 * burst, names[index % 3])
                    for burst in range(6)
                    for index in range(9)]

        fast, reference = _parity(
            29,
            cases,
            arrivals,
            dict(queue_capacity=None,
                 deadline=DeadlinePolicy(qos_factor=30.0),
                 brownout=BrownoutConfig.disabled()),
        )
        _assert_bit_identical(fast, reference)

    def test_batch_max_one_stays_pinned(self, zoo):
        """The pinned zero-overload path: batch_max=1 must serve
        identically on both drains (and never shed under no load)."""
        case = use_case_for(zoo["mobilenet_v3"])
        fast, reference = _parity(
            31,
            lambda: [case],
            lambda: [Arrival(30_000.0 * index, case.name)
                     for index in range(10)],
            dict(batch_max=1),
        )
        assert fast[1].shed_stats.total_sheds == 0
        _assert_bit_identical(fast, reference)


def _two_networks(zoo):
    return [use_case_for(zoo["mobilenet_v3"]),
            use_case_for(zoo["inception_v1"])]


def _bursts(cases, seed, duration_ms=20_000.0):
    """One Markov-modulated stream per use case, merged."""
    return merge_arrivals(*[
        MarkovModulatedArrivals(
            case.name, calm_per_s=3.0, burst_per_s=40.0,
            calm_dwell_ms=4_000.0, burst_dwell_ms=1_500.0,
        ).generate(duration_ms, make_rng(seed + index))
        for index, case in enumerate(cases)
    ])


class TestDynamicDrainParity:
    """Feasibility re-observation: every check after the clock moves
    draws a fresh sample (and RNG) exactly where the reference does."""

    @pytest.mark.parametrize("scenario", ["D1", "D2", "D3", "D4"])
    def test_dynamic_scenarios_learning(self, zoo, scenario):
        cases = _two_networks(zoo)
        fast, reference = _parity(
            43,
            lambda: cases,
            lambda: _bursts(cases, 7),
            # Budgets loose enough that a request served mid-batch
            # leaves later ones alive for a re-observed floor check.
            dict(deadline=DeadlinePolicy(qos_factor=6.0)),
            service_kwargs=dict(scenario=scenario),
        )
        sheds = reference[1].shed_stats.as_dict()["sheds"]
        assert sheds.get("expired") and sheds.get("infeasible")
        assert reference[1].brownout.escalations >= 1
        _assert_bit_identical(fast, reference)

    @pytest.mark.parametrize("scenario", ["D1", "D3"])
    def test_dynamic_scenarios_frozen_batched_argmax(self, zoo, scenario):
        """The upfront batched argmax under a dynamic scenario: states
        come from the drain-start sample, floors from fresh ones."""
        cases = _two_networks(zoo)
        fast, reference = _parity(
            47,
            lambda: cases,
            lambda: _bursts(cases, 11),
            dict(deadline=DeadlinePolicy(qos_factor=6.0),
                 brownout=BrownoutConfig.disabled()),
            learning=False,
            pretrain=30,
            service_kwargs=dict(scenario=scenario),
        )
        assert reference[1].shed_stats.total_sheds > 0
        _assert_bit_identical(fast, reference)

    def test_scenario_swap_mid_drain(self, zoo):
        """A TIMER swaps static S1 for static S2 inside the first
        execution of a 30-request batch.  S2's co-runner nearly triples
        mobilenet_v3's feasibility floor, so the drain must drop its S1
        floor and re-observe: later requests whose remaining budget sits
        between the two floors shed INFEASIBLE."""
        case = use_case_for(zoo["mobilenet_v3"])
        swaps = []

        def prepare(service):
            env = service.environment

            def drift(event):
                swaps.append(env.clock.now_ms)
                env.scenario = "S2"

            env.kernel.schedule(1.0, EventKind.TIMER, callback=drift)

        fast, reference = _parity(
            53,
            lambda: [case],
            lambda: [Arrival(0.0, case.name) for _ in range(30)],
            dict(queue_capacity=None,
                 deadline=DeadlinePolicy(qos_factor=2.0),
                 brownout=BrownoutConfig.disabled()),
            pretrain=100,
            service_kwargs=dict(think_time_ms=0.0),
            prepare=prepare,
        )
        assert len(swaps) == 2
        served = [record for record in reference[0].trace.records
                  if record.status == "ok"]
        assert len(served) > 1
        assert reference[1].shed_stats.as_dict()["sheds"].get("infeasible")
        _assert_bit_identical(fast, reference)


class TestResilientAndGuardedParity:
    def test_resilient_chaos(self, zoo):
        """Resilient requests leave the batch one by one: retries,
        backoffs and breakers under chaos faults."""
        case = use_case_for(zoo["mobilenet_v3"])
        plan = FaultPlan(
            loss_scale=1.0, abort_prob=0.1, straggler_prob=0.1,
            outages=(OutageWindow("cloud", start_ms=2_000.0,
                                  duration_ms=3_000.0,
                                  period_ms=10_000.0),),
        )

        def prepare(service):
            service.environment.faults = plan

        fast, reference = _parity(
            59,
            lambda: [case],
            lambda: PoissonArrivals(case.name, arrivals_per_s=8.0)
            .generate(20_000.0, make_rng(5)),
            dict(),
            service_kwargs=dict(scenario="D3",
                                resilience=ResiliencePolicy()),
            prepare=prepare,
        )
        assert reference[0].environment.fault_stats.as_dict()["failures"]
        _assert_bit_identical(fast, reference)

    @pytest.mark.parametrize("resilient", [False, True])
    def test_guard_shadow_and_degrade(self, zoo, resilient):
        """An overloaded drift the guard escalates through SHADOW to
        DEGRADE: shadow decisions, the local fence, guard feeds and
        GUARD_TICK flips all land mid-drain where the reference puts
        them."""
        case = UseCase(name="drift", network=zoo["resnet_50"],
                       qos_ms=200.0, accuracy_target=70.0)
        service_kwargs = dict(think_time_ms=0.0)
        if resilient:
            service_kwargs["resilience"] = ResiliencePolicy()

        def arrivals():
            return merge_arrivals(
                PoissonArrivals(case.name, arrivals_per_s=8.0)
                .generate(40_000.0, make_rng(91)),
                TraceArrivals(tuple((19_900.0 + 5.0 * index, case.name)
                                    for index in range(8)))
                .generate(40_000.0),
            )

        def prepare(service):
            # Armed after pre-training; the drift lands at 20 s.
            service.guard = PolicyGuard(GuardConfig())
            env = service.environment

            def drift(event):
                env.scenario = "S2"

            env.kernel.schedule(20_000.0, EventKind.TIMER, callback=drift)

        fast, reference = _parity(
            61, lambda: [case], arrivals, dict(), pretrain=100,
            service_kwargs=service_kwargs, prepare=prepare,
        )
        stages = {record.reason for record in reference[0].trace.records
                  if record.status == "ok"}
        assert {"guard/shadow", "guard/degrade"} <= stages
        _assert_bit_identical(fast, reference)


class TestUseCaseKeyedCoalescing:
    """Regression: shadow/brownout selections depend on the use case's
    QoS budget, so the drain's coalescing key must include the use-case
    name on those branches — two use cases sharing one (network, state)
    bucket must each get *their own* degraded action."""

    @pytest.mark.parametrize("pipeline_class", PIPELINES)
    def test_browned_bucket_not_shared_across_use_cases(self, zoo,
                                                        pipeline_class):
        network = zoo["mobilenet_v3"]
        probe = _service(41)
        env = probe.environment
        observation = env.observe()
        sweep = env.estimate_all(network, observation)
        latencies = np.asarray(sweep.latency_ms)
        energies = np.asarray(sweep.energy_mj)
        space = probe.engine.action_space
        int8 = np.flatnonzero(np.array(
            [target.precision is Precision.INT8 for target in space],
            dtype=bool))
        cheapest = int(int8[np.argmin(energies[int8])])
        fastest_ms = float(latencies[int8].min())
        assert latencies[cheapest] > fastest_ms, \
            "need a cheapest-but-not-fastest INT8 target for this probe"
        # A budget between the fastest INT8 latency and the cheapest
        # INT8 target's latency: 'tight' must be steered away from the
        # global cheapest, 'loose' must land exactly on it.
        tight_ms = (fastest_ms + float(latencies[cheapest])) / 2.0
        fits = int8[latencies[int8] <= tight_ms]
        expected_tight = int(fits[np.argmin(energies[fits])])
        assert expected_tight != cheapest

        loose = UseCase(name="loose", network=network, qos_ms=1e6)
        tight = UseCase(name="tight", network=network, qos_ms=tight_ms)
        service = _service(41)
        service.register(loose)
        service.register(tight)
        pipeline = pipeline_class(service, ServingConfig(
            queue_capacity=None, shedding=False,
            brownout=BrownoutConfig(enter_depth=1, exit_depth=0),
        ))
        # 'loose' sorts first, so it seeds the (network, state) bucket;
        # before the fix 'tight' inherited its action.
        pipeline.serve([Arrival(0.0, loose.name),
                        Arrival(0.0, tight.name)])
        by_name = {record.use_case: record
                   for record in service.trace.records}
        assert by_name["loose"].tier == "reduced_precision"
        assert by_name["loose"].target_key == space.target(cheapest).key
        assert by_name["tight"].target_key \
            == space.target(expected_tight).key
