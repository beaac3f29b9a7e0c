"""The serving pipeline: admission, shedding, brownout, batched drain.

:class:`ServingPipeline` stands in front of one
:class:`~repro.core.service.AutoScaleService` and replays an open-loop
arrival stream on the environment's virtual clock:

1. Arrivals due at the current virtual time enter the bounded admission
   queue (or are shed ``QUEUE_FULL`` under backpressure), carrying a
   QoS-derived absolute deadline.
2. Each drain cycle samples **one** observation, lets the brownout
   controller react to queue depth, and pops a FIFO batch.
3. Per request, the deadline-aware shedder drops work that already
   blew its deadline (``EXPIRED``) or provably cannot make it even on
   the fastest allowed target (``INFEASIBLE``, via the cached nominal
   sweep) — *before* any energy is spent.
4. Surviving requests are coalesced by ``(network, state)``: the engine
   selects once per group (one Q-table row read) and completes each
   request through :meth:`~repro.core.engine.AutoScale.step_with_action`
   — execution, reward, and Q update remain per-request, so the
   learning dynamics match the scalar path exactly.

The drain itself has two implementations behind one dispatcher.  The
**vectorized** plane (structure-of-arrays, the default) runs whenever
the scenario is static and the resilient path is off: states and
feasibility floors are gathered once per distinct network from the
drain-start observation (one ``estimate_all`` sweep each), per-request
shed checks collapse to two float compares, frozen-table selections for
every coalescing group go through one batched argmax pass
(:meth:`~repro.core.engine.AutoScale.select_action_batch`), and
execution routes through the cached-nominal executor.  Everything
observable — trace rows, Q-table bytes, shed ledgers, RNG streams, the
virtual clock — is bit-identical to the **scalar** drain, which remains
the reference implementation (and the only one used under dynamic
scenarios or resilience, where re-observation draws RNG per request).

``ServingConfig.disabled()`` bypasses all of it and reproduces the
direct :meth:`~repro.core.service.AutoScaleService.handle` path
bit-for-bit; the enabled pipeline under zero overload (every batch of
size one, NORMAL tier, nothing shed) is bit-identical too, because the
shedder and the brownout controller draw no RNG.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, replace
from typing import List, Optional

import numpy as np

from repro.analysis.contracts import ensure_duration_ms
from repro.common import ConfigError
from repro.guard import GuardConfig, GuardStage, PolicyGuard
from repro.serving.arrivals import Arrival
from repro.sim.events import EventKind
from repro.serving.brownout import (
    BrownoutConfig,
    BrownoutController,
    BrownoutTier,
)
from repro.serving.queue import AdmissionQueue, QueuedRequest
from repro.serving.shedder import (
    DeadlinePolicy,
    ShedReason,
    ShedStats,
    SheddedRequest,
    min_feasible_latency_ms,
    shed_verdict,
)

__all__ = ["ServingConfig", "ServedRequest", "ServingPipeline"]


@dataclass(frozen=True)
class ServingConfig:
    """What the pipeline does between arrival and engine.

    Attributes:
        enabled: master switch; :meth:`disabled` reproduces the direct
            ``handle`` path bit-identically.
        queue_capacity: admission-queue bound (``None`` = unbounded).
        deadline: how deadlines derive from QoS targets.
        shedding: run the deadline-aware shedder (expired + infeasible
            checks).  Queue-full backpressure is governed by
            ``queue_capacity`` alone.
        brownout: the degradation controller's watermarks.
        batch_max: cap on requests drained per cycle (``None`` = all).
        vectorized: use the structure-of-arrays drain whenever it is
            eligible (static scenario, resilience off).  Bit-identical
            to the scalar drain in every observable; ``False`` forces
            the scalar reference implementation.
    """

    enabled: bool = True
    queue_capacity: Optional[int] = 64
    deadline: DeadlinePolicy = DeadlinePolicy()
    shedding: bool = True
    brownout: BrownoutConfig = BrownoutConfig()
    batch_max: Optional[int] = None
    vectorized: bool = True

    def __post_init__(self):
        if self.batch_max is not None and self.batch_max < 1:
            raise ConfigError(
                f"batch_max must be >= 1 (or None), got {self.batch_max}"
            )

    @classmethod
    def disabled(cls):
        """No queue, no shedder, no brownout: the direct path."""
        return cls(enabled=False)

    @classmethod
    def fifo(cls):
        """The naive comparison policy: unbounded FIFO, serve everything
        in arrival order, never shed, never degrade."""
        return cls(queue_capacity=None, shedding=False,
                   brownout=BrownoutConfig.disabled())

    @classmethod
    def shed_only(cls):
        """Deadline-aware shedding without brownout degradation."""
        return cls(brownout=BrownoutConfig.disabled())


@dataclass(frozen=True)
class ServedRequest:
    """One arrival's final outcome as the pipeline saw it.

    ``outcome`` is an :class:`~repro.env.result.ExecutionResult`, a
    :class:`~repro.faults.FailedAttempt`, or a
    :class:`~repro.serving.shedder.SheddedRequest` — all three carry
    the typed ``failed`` / ``shed`` discriminators, so no duck-typing
    is involved in reading them back.
    """

    arrival: Arrival
    outcome: object
    queue_delay_ms: float = 0.0
    tier: str = "normal"

    def __post_init__(self):
        ensure_duration_ms(self.queue_delay_ms, "queue_delay_ms")

    @property
    def shed(self):
        return self.outcome.shed

    @property
    def failed(self):
        return self.outcome.failed

    @property
    def delivered(self):
        return not (self.shed or self.failed)


class ServingPipeline:
    """Drives one service through an open-loop arrival stream."""

    def __init__(self, service, config=None):
        self.service = service
        self.config = config if config is not None else ServingConfig()
        self.queue = AdmissionQueue(self.config.queue_capacity)
        self.brownout = BrownoutController(self.config.brownout)
        self.shed_stats = ShedStats()
        # The policy guard lives on the service (it outlives any single
        # pipeline); the pipeline hosts its GUARD_TICK loop and reads
        # the stage back at decision time.
        self.guard = (getattr(service, "guard", None)
                      or PolicyGuard(GuardConfig.disabled()))
        self._guard_handle = None

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------

    def serve(self, arrivals):
        """Replay an arrival stream; returns one outcome per arrival.

        Arrivals are served in ``(at_ms, name)`` order.  Outcomes come
        back in *completion* order, which under coalescing can differ
        from arrival order within a drain cycle.
        """
        ordered = sorted(arrivals, key=lambda a: (a.at_ms, a.name))
        if not self.config.enabled:
            return self._serve_direct(ordered)
        return self._serve_pipelined(ordered)

    # ------------------------------------------------------------------
    # Disabled: the historical closed-loop path, bit-for-bit
    # ------------------------------------------------------------------

    def _serve_direct(self, ordered):
        env = self.service.environment
        outcomes: List[ServedRequest] = []
        for arrival in ordered:
            self.shed_stats.note_offered()
            env.advance_clock_to(arrival.at_ms)
            wait_ms = max(0.0, env.clock.now_ms - arrival.at_ms)
            result = self.service.handle(arrival.name)
            self.shed_stats.note_served()
            outcomes.append(ServedRequest(arrival, result,
                                          queue_delay_ms=wait_ms))
        return outcomes

    # ------------------------------------------------------------------
    # Enabled: admit -> shed -> brownout -> coalesced drain
    # ------------------------------------------------------------------

    def _serve_pipelined(self, ordered):
        """Replay ``ordered`` as typed events on the environment's
        event kernel.

        Every arrival is scheduled as an ``ARRIVAL`` event up front;
        the kernel delivers them into a due-buffer as the clock passes
        their timestamps (including mid-drain, while executions and
        retry backoffs advance time), and the loop admits the buffer at
        the top of each cycle — the same admission instants and order
        as the pre-kernel sweep, with the timeline now explicit.
        """
        env = self.service.environment
        kernel = env.kernel
        outcomes: List[ServedRequest] = []
        due: "deque[Arrival]" = deque()
        # Times of arrivals the kernel has not delivered yet; events
        # fire in (time_ms, seq) order and we schedule in sorted order,
        # so deliveries pop this deque front-to-back.
        pending_ms: "deque[float]" = deque()

        def deliver(event):
            pending_ms.popleft()
            due.append(event.payload)

        for arrival in ordered:
            kernel.schedule(arrival.at_ms, EventKind.ARRIVAL,
                            payload=arrival, callback=deliver)
            pending_ms.append(arrival.at_ms)
        if self.guard.enabled:
            # A restored guard may already be escalated: actuate its
            # stage before the first request, then start the periodic
            # GUARD_TICK loop on the shared heap (no per-cycle sweeps).
            self._apply_guard_stage()
            self._guard_handle = kernel.schedule_in(
                self.guard.config.tick_interval_ms, EventKind.GUARD_TICK,
                callback=self._on_guard_tick,
            )
        try:
            while True:
                kernel.fire_due()
                now_ms = env.clock.now_ms
                while due:
                    self._admit(due.popleft(), now_ms, outcomes)
                if self.queue.depth == 0:
                    if not pending_ms:
                        return outcomes
                    # Idle: jump the clock to the next arrival (the
                    # advance fires its event, filling the due-buffer).
                    env.advance_clock_to(pending_ms[0])
                    continue
                self._drain_cycle(outcomes)
        finally:
            if self._guard_handle is not None:
                self._guard_handle.cancel()
                self._guard_handle = None

    def _on_guard_tick(self, event):
        """One ``GUARD_TICK``: evaluate the supervisor, re-arm the next
        tick.

        The next tick keeps the nominal cadence (anchored at the due
        instant, not the firing instant) unless a long execution pushed
        the clock past it, in which case it re-anchors at *now* — one
        evaluation per elapsed interval, never a catch-up burst of
        back-to-back ticks over the same evidence.
        """
        env = self.service.environment
        if self.guard.evaluate(env.clock.now_ms):
            self._apply_guard_stage()
        next_ms = event.time_ms + self.guard.config.tick_interval_ms
        if next_ms <= env.clock.now_ms:
            next_ms = env.clock.now_ms + self.guard.config.tick_interval_ms
        self._guard_handle = env.kernel.schedule(
            next_ms, EventKind.GUARD_TICK, callback=self._on_guard_tick,
        )

    def _apply_guard_stage(self):
        """Actuate the supervisor's stage on the learning engine.

        READAPT boosts the learning rate (capped at 1.0) and re-enables
        exploration via a temporary :class:`QLearningConfig`; SHADOW and
        DEGRADE restore the base hyperparameters but force training on,
        so the table keeps learning *off-policy* from the shadow
        decisions; HEALTHY restores the pre-escalation configuration
        exactly.  The base is parked on the *service* (which outlives
        any single pipeline) so a fresh pipeline created mid-incident
        cannot mistake a boosted config for the baseline.
        """
        service = self.service
        engine = service.engine
        stage = self.guard.stage
        base = getattr(service, "_guard_base", None)
        if stage is GuardStage.HEALTHY:
            if base is not None:
                base_config, base_training = base
                engine.config = base_config
                engine.qtable.config = base_config
                engine.training = base_training
                service._guard_base = None
            return
        if base is None:
            base = (engine.config, engine.training)
            service._guard_base = base
        base_config, _ = base
        if stage is GuardStage.READAPT:
            boosted = replace(
                base_config,
                learning_rate=min(
                    1.0,
                    base_config.learning_rate
                    * self.guard.config.readapt_gamma_scale,
                ),
                epsilon=self.guard.config.readapt_epsilon,
            )
            engine.config = boosted
            engine.qtable.config = boosted
        else:
            engine.config = base_config
            engine.qtable.config = base_config
        engine.training = True

    def _admit(self, arrival, now_ms, outcomes):
        self.shed_stats.note_offered()
        use_case = self.service.use_case(arrival.name)
        deadline_ms = self.config.deadline.deadline_ms(
            arrival.at_ms, use_case.qos_ms
        )
        request = QueuedRequest(arrival, use_case, deadline_ms)
        if not self.queue.admit(request):
            self._shed(request, ShedReason.QUEUE_FULL, now_ms, outcomes)

    def _shed(self, request, reason, now_ms, outcomes):
        shed = SheddedRequest(
            reason=reason,
            name=request.arrival.name,
            at_ms=request.arrival.at_ms,
            shed_at_ms=now_ms,
            deadline_ms=request.deadline_ms,
            queue_delay_ms=request.queue_delay_ms(now_ms),
        )
        self.shed_stats.note_shed(reason)
        self.service.trace.record_shed(
            shed, request.use_case,
            tier=self.brownout.tier.value,
            reason=self._trace_reason(),
        )
        self.guard.note_refusal()
        outcomes.append(ServedRequest(
            request.arrival, shed,
            queue_delay_ms=shed.queue_delay_ms,
            tier=self.brownout.tier.value,
        ))

    def _drain_cycle(self, outcomes):
        """One drain: observe once, shed the hopeless, coalesce the rest.

        Dispatches to the structure-of-arrays sweep when it is provably
        bit-identical — static scenario (re-observation draws no RNG
        and never changes a value) and the resilient path off (retries
        re-observe data-dependently) — and to the scalar reference
        implementation otherwise.
        """
        if (self.config.vectorized
                and not self.service.resilience.enabled
                and self.service.environment.scenario_is_static):
            self._drain_cycle_vectorized(outcomes)
        else:
            self._drain_cycle_scalar(outcomes)

    def _decision_key(self, use_case, state, shadowing, browned):
        """The drain coalescing key for one request.

        Normal selections depend only on ``(network, state)`` — the
        Q-table row — but shadow and brownout selections also read the
        use case's QoS budget, so those branches key per use case: two
        use cases sharing a (network, state) bucket must not inherit
        each other's degraded action.
        """
        if shadowing or browned:
            return (use_case.network.name, state, use_case.name)
        return (use_case.network.name, state)

    def _drain_cycle_scalar(self, outcomes):
        """The reference drain: per-request observation refresh and
        feasibility sweeps.  Correct under every configuration."""
        service = self.service
        env = service.environment
        engine = service.engine
        tier = self.brownout.observe_pressure(self.queue.depth)
        batch = self.queue.take_batch(self.config.batch_max)
        observation = env.observe()
        mask = self._combined_mask()
        browned = self.brownout.tier is not BrownoutTier.NORMAL
        # One selection per (network, state) group; execution, reward,
        # and Q update stay per-request via step_with_action.
        decisions = {}
        # The feasibility floor must be judged against *current*
        # conditions: earlier requests in the batch advance the clock,
        # so the drain-start observation's load/RSSI go stale.  Track
        # the freshest sample and re-observe only when time has moved —
        # a batch of one (the pinned zero-overload path) never
        # re-observes, so that path stays bit-identical.
        feasibility_obs = observation
        for request in batch:
            now_ms = env.clock.now_ms
            use_case = request.use_case
            if self.config.shedding:
                if request.remaining_ms(now_ms) < 0:
                    self._shed(request, ShedReason.EXPIRED, now_ms,
                               outcomes)
                    continue
                if feasibility_obs.now_ms != now_ms:
                    feasibility_obs = env.observe()
                sweep = env.estimate_all(use_case.network,
                                         feasibility_obs)
                floor_ms = min_feasible_latency_ms(sweep, mask)
                if now_ms + floor_ms > request.deadline_ms:
                    self._shed(request, ShedReason.INFEASIBLE, now_ms,
                               outcomes)
                    continue
            wait_ms = request.queue_delay_ms(now_ms)
            guard = self.guard
            shadowing = (guard.enabled
                         and guard.stage.depth >= GuardStage.SHADOW.depth)
            if service.resilience.enabled:
                outcome = self._serve_resilient(use_case, wait_ms, tier)
                if guard.enabled:
                    if outcome.failed:
                        guard.note_refusal()
                    else:
                        guard.note_qos(wait_ms + outcome.latency_ms
                                       <= use_case.qos_ms)
            else:
                state = engine.observe_state(use_case.network, observation)
                key = self._decision_key(use_case, state, shadowing,
                                         browned)
                if key not in decisions:
                    if shadowing:
                        # SHADOW/DEGRADE: the nominal-argmin baseline
                        # decides (zero extra energy — the sweep is the
                        # cached cost model, not an execution); the Q
                        # update below still runs off-policy.
                        decisions[key] = (self._shadow_action(
                            use_case, observation, mask,
                            local_only=guard.stage is GuardStage.DEGRADE,
                        ), False)
                    elif browned:
                        decisions[key] = (self._brownout_action(
                            use_case, observation, mask), False)
                    else:
                        decisions[key] = engine.select_action(state,
                                                              allowed=mask)
                action, explored = decisions[key]
                step = engine.step_with_action(
                    use_case, action, observation, explored=explored,
                )
                service.trace.record_step(
                    step, use_case, at_ms=env.clock.now_ms,
                    queue_delay_ms=wait_ms, tier=tier.value,
                    reason=self._trace_reason(),
                )
                outcome = step.result
                if guard.enabled:
                    self._feed_guard(step, use_case, observation, wait_ms)
            self.shed_stats.note_served()
            outcomes.append(ServedRequest(
                request.arrival, outcome,
                queue_delay_ms=wait_ms, tier=tier.value,
            ))

    def _drain_cycle_vectorized(self, outcomes):
        """The structure-of-arrays drain: one sweep per network, fused
        admit→shed→decide over the whole batch.

        Under a static scenario the drain-start observation never goes
        stale in *value* — re-observation would return the same load and
        RSSI and draw nothing from the RNG — so the per-request
        observe/sweep/encode work of the scalar drain collapses into a
        per-network prepass:

        - one ``estimate_all`` sweep and one feasibility floor per
          distinct network (the scalar path recomputes both per
          request);
        - one encoded state per network;
        - per-request shed checks reduced to two float compares against
          the cached floor (:func:`~repro.serving.shedder.shed_verdict`,
          EXPIRED before INFEASIBLE — the clock still moves mid-batch);
        - with a frozen engine and no guard, selection is RNG-free, so
          every coalescing group is decided upfront in one batched
          argmax pass (:meth:`~repro.core.engine.AutoScale
          .select_action_batch`); while training (or under an active
          guard, whose ticks can flip training mid-drain) selection
          stays lazy at each group's first surviving request, preserving
          the exact scalar RNG interleave.

        Execution, reward, Q update, trace rows, guard feeds, and the
        shed ledger all remain per-request and byte-equal to
        :meth:`_drain_cycle_scalar`.
        """
        service = self.service
        env = service.environment
        engine = service.engine
        tier = self.brownout.observe_pressure(self.queue.depth)
        batch = self.queue.take_batch(self.config.batch_max)
        observation = env.observe()
        mask = self._combined_mask()
        browned = self.brownout.tier is not BrownoutTier.NORMAL
        shedding = self.config.shedding
        guard = self.guard

        # SoA prepass: states and floors are functions of the constant
        # observation — gather once per distinct network.
        states = {}
        floors = {}
        for request in batch:
            network = request.use_case.network
            if network.name not in states:
                states[network.name] = engine.observe_state(network,
                                                            observation)
                if shedding:
                    sweep = env.estimate_all(network, observation)
                    floors[network.name] = min_feasible_latency_ms(
                        sweep, mask)

        decisions = {}
        if not engine.training and not guard.enabled and not browned:
            # Frozen NORMAL tier: selection is RNG-free and nothing can
            # flip mid-drain (guard ticks are off), so deciding a group
            # that later sheds every member is unobservable — decide
            # all groups upfront in one batched pass.
            group_keys = []
            for request in batch:
                use_case = request.use_case
                key = (use_case.network.name,
                       states[use_case.network.name])
                if key not in decisions:
                    decisions[key] = None
                    group_keys.append(key)
            for key, decision in zip(
                group_keys,
                engine.select_action_batch(
                    [key[1] for key in group_keys], allowed=mask),
            ):
                decisions[key] = decision

        # Loop invariants, hoisted: the clock object, tier label, and
        # bound methods are fixed for the drain; the reason code is too
        # unless a guard is live (its ticks can move the stage between
        # requests).
        clock = env.clock
        tier_label = tier.value
        guard_enabled = guard.enabled
        fixed_reason = None if guard_enabled else self._trace_reason()
        step_with_action = engine.step_with_action
        record_step = service.trace.record_step
        note_served = self.shed_stats.note_served

        for request in batch:
            now_ms = clock.now_ms
            use_case = request.use_case
            network_name = use_case.network.name
            if shedding:
                verdict = shed_verdict(now_ms, request.deadline_ms,
                                       floors[network_name])
                if verdict is not None:
                    self._shed(request, verdict, now_ms, outcomes)
                    continue
            wait_ms = request.queue_delay_ms(now_ms)
            shadowing = (guard_enabled
                         and guard.stage.depth >= GuardStage.SHADOW.depth)
            state = states[network_name]
            key = self._decision_key(use_case, state, shadowing, browned)
            if key not in decisions:
                if shadowing:
                    decisions[key] = (self._shadow_action(
                        use_case, observation, mask,
                        local_only=guard.stage is GuardStage.DEGRADE,
                    ), False)
                elif browned:
                    decisions[key] = (self._brownout_action(
                        use_case, observation, mask), False)
                else:
                    decisions[key] = engine.select_action(state,
                                                          allowed=mask)
            action, explored = decisions[key]
            step = step_with_action(
                use_case, action, observation, explored=explored,
                state=state,
            )
            record_step(
                step, use_case, at_ms=clock.now_ms,
                queue_delay_ms=wait_ms, tier=tier_label,
                reason=(self._trace_reason() if guard_enabled
                        else fixed_reason),
            )
            if guard_enabled:
                self._feed_guard(step, use_case, observation, wait_ms)
            note_served()
            outcomes.append(ServedRequest(
                request.arrival, step.result,
                queue_delay_ms=wait_ms, tier=tier.value,
            ))

    def _brownout_action(self, use_case, observation, mask):
        """Nominal-cost selection for an escalated brownout tier.

        A brownout mask deliberately admits quality-violating actions,
        and equation (5)'s accuracy-failure branch scores all of those
        identically — the Q-table has no signal to rank them.  So under
        an escalated tier the pipeline picks by the nominal cost model
        instead: the cheapest allowed target whose nominal latency fits
        the QoS budget (falling back to the cheapest allowed outright).
        The executed step still feeds the Q update as usual.
        """
        env = self.service.environment
        sweep = env.estimate_all(use_case.network, observation)
        latencies = np.asarray(sweep.latency_ms)
        energies = np.asarray(sweep.energy_mj)
        indices = (np.flatnonzero(np.asarray(mask, dtype=bool))
                   if mask is not None and np.any(mask)
                   else np.arange(len(latencies)))
        fits = indices[latencies[indices] <= use_case.qos_ms]
        pool = fits if len(fits) else indices
        return int(pool[np.argmin(energies[pool])])

    def _shadow_action(self, use_case, observation, mask, local_only):
        """The guard's shadow baseline: nominal-argmin via
        ``estimate_all``.

        SHADOW picks the cheapest accuracy+QoS-feasible target under
        the *current* nominal cost model — no learned state involved,
        and zero extra energy since the sweep is the cached estimator.
        DEGRADE additionally restricts to local targets (the PR 3
        graceful-degradation posture), falling back to the full allowed
        set only when the masks leave no local target at all.  Breaker
        and brownout masks keep applying in both stages.
        """
        env = self.service.environment
        sweep = env.estimate_all(use_case.network, observation)
        energies = np.asarray(sweep.energy_mj)
        allowed = (np.asarray(mask, dtype=bool)
                   if mask is not None and np.any(mask)
                   else np.ones(len(energies), dtype=bool))
        if local_only:
            local = np.array(
                [not target.is_remote for target in env.targets()],
                dtype=bool,
            )
            if np.any(allowed & local):
                allowed = allowed & local
        indices = [int(i) for i in np.flatnonzero(allowed)]
        best = sweep.argbest(use_case, indices=indices)
        if best is None:
            best = int(indices[int(np.argmin(energies[indices]))])
        return int(best)

    def _feed_guard(self, step, use_case, observation, wait_ms):
        """Feed one completed engine step to the guard's detectors.

        The residual compares the *a-priori* nominal energy for the
        chosen action (from the same observation the decision used)
        against the billed outcome — not ``estimated_energy_mj``, which
        is derived from the measured latency and would track stragglers
        instead of exposing them.
        """
        guard = self.guard
        result = step.result
        if result.failed:
            guard.note_refusal()
        else:
            sweep = self.service.environment.estimate_all(
                use_case.network, observation)
            nominal_mj = float(np.asarray(sweep.energy_mj)[step.action])
            guard.note_result(
                f"{use_case.network.name}|{step.state}",
                nominal_mj, result.energy_mj,
                wait_ms + result.latency_ms <= use_case.qos_ms,
            )
        if self.service.engine.training:
            guard.note_q_delta(step.q_delta,
                               self.service.engine.config.learning_rate)

    def _trace_reason(self):
        """The degradation reason code for trace rows written now."""
        if self.guard.active:
            return self.guard.annotation()
        if self.brownout.tier is not BrownoutTier.NORMAL:
            return f"brownout/{self.brownout.tier.value}"
        return ""

    def _serve_resilient(self, use_case, wait_ms, tier):
        """One request through PR 3's retry/breaker/degrade path.

        Retries re-observe between attempts, so coalescing does not
        apply; the brownout mask composes with the breaker mask inside
        the retry loop.  The pipeline's queueing columns ride down into
        the resilient path's own trace record — stamping the record at
        construction rather than rewriting ``trace.records[-1]``, whose
        tail may already belong to another request (or be gone entirely)
        once the rolling window starts evicting.
        """
        service = self.service
        extra_allowed = self.brownout.mask(service.engine.action_space)
        if self.guard.enabled and self.guard.stage is GuardStage.DEGRADE:
            # DEGRADE on the resilient path: keep the retry/breaker
            # machinery but fence selection to local targets, which the
            # fault plan cannot touch.
            env = service.environment
            local = np.array(
                [not target.is_remote for target in env.targets()],
                dtype=bool,
            )
            if np.any(local):
                extra_allowed = (local if extra_allowed is None
                                 else extra_allowed & local)
        return service._handle_resilient(
            use_case, extra_allowed=extra_allowed,
            queue_delay_ms=wait_ms, tier=tier.value,
            reason=self._trace_reason(),
        )

    def _combined_mask(self):
        """Breaker mask AND brownout mask (``None`` = everything)."""
        service = self.service
        space = service.engine.action_space
        masks = [mask for mask in (service.action_mask(),
                                   self.brownout.mask(space))
                 if mask is not None]
        if not masks:
            return None
        combined = masks[0].copy()
        for mask in masks[1:]:
            combined &= mask
        return combined

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def status(self):
        """One call, full serving health: queue, sheds, brownout, the
        environment's fault ledger, and the policy guard's counters."""
        status = {
            "queue_depth": self.queue.depth,
            "queue_peak_depth": self.queue.peak_depth,
            "queue_admitted": self.queue.admitted,
            "queue_rejected": self.queue.rejected,
            "brownout_tier": self.brownout.tier.value,
            "brownout_escalations": self.brownout.escalations,
            "brownout_deescalations": self.brownout.deescalations,
            "sheds": self.shed_stats.as_dict(),
            "guard": self.guard.status(),
        }
        fault_stats = getattr(self.service.environment, "fault_stats",
                              None)
        if fault_stats is not None:
            status["faults"] = fault_stats.as_dict()
        return status
