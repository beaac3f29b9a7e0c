"""The request-at-a-time reference drain: the serving pipeline's oracle.

:class:`ReferencePipeline` is a :class:`ServingPipeline` whose drain
sweeps the nominal costs for every request (re-observing whenever the
clock has moved), encodes every request's state on its own, and never
batches a selection.  It is the simplest drain that is correct under
every configuration, so it serves two purposes:

- the parity oracle of ``test_vectorized_drain.py``: the production
  drain must match it byte for byte on every observable;
- with ``batch_max=1``, the request-at-a-time baseline arm of
  ``benchmarks/test_serving_speedup.py``.
"""

from repro.core.action import intersect_masks
from repro.guard import GuardStage
from repro.serving.brownout import BrownoutTier
from repro.serving.pipeline import ServedRequest, ServingPipeline
from repro.serving.shedder import ShedReason, min_feasible_latency_ms


class ReferencePipeline(ServingPipeline):
    """A serving pipeline driven by the request-at-a-time drain."""

    def _drain_cycle(self, outcomes):
        """The reference drain: per-request observation refresh and
        feasibility sweeps.  Correct under every configuration."""
        service = self.service
        env = service.environment
        engine = service.engine
        tier = self.brownout.observe_pressure(self.queue.depth)
        batch = self.queue.take_batch(self.config.batch_max)
        observation = env.observe()
        mask = intersect_masks(service.action_mask(),
                               self.brownout.mask(engine.action_space))
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
                sweep = self._sweep(use_case.network, feasibility_obs)
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
