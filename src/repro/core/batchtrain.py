"""Batched training engine: fast Algorithm-1 rollouts, bit-exact.

The scalar training loop (:meth:`repro.core.engine.AutoScale.run`) pays
for the full per-request call chain — observation, state encoding,
selection, execution, reward, Q update, each behind its own method and
runtime contracts — on **every** inference, even though the paper's
protocol revisits the same few (network, target, observation) triples
tens of thousands of times.

:class:`BatchTrainer` drives the same Algorithm-1 cycles through the
environment's request kernel with the engine-side chain (selection,
reward, Q update) inlined:

- every execution is billed by the target's finishing plan
  (:meth:`~repro.env.costcache.NominalCostEngine.plan`), the one
  eq. (1)-(4) finisher
  :meth:`~repro.env.environment.EdgeCloudEnvironment.execute` uses too,
  reading its nominals from the cost engine's exact value-keyed caches;
- observations come from the scenario's compiled samplers through
  :func:`~repro.env.observation.sample_observation`, the code
  ``EdgeCloudEnvironment.observe`` runs on the Generator itself;
- static Table-IV scenarios (constant co-runner, constant signals) skip
  the per-step observation re-sampling entirely — legal because a
  static scenario draws nothing from the RNG and returns the same values
  every time — and re-issue one observation, which the plans resolve
  once;
- every environment draw of an episode (measurement jitters in the
  documented per-request order, see
  ``EdgeCloudEnvironment.execute_batch``, and the co-runner and signal
  noise of dynamic scenarios) is read from one
  :class:`~repro.common.NormalBlock` drawn ahead of the episode.

**Parity contract.**  For the same seeds, a :class:`BatchTrainer` episode
is *bit-identical* to the scalar engine loop it replaces: the same
engine-RNG draws in the same order (one uniform per step, one integer
draw only when exploring), the same environment-RNG draws (observation
sampling only in dynamic scenarios, jitters in scalar order; the block
re-syncs the Generator to exactly the values read on every exit, early
stops and exceptions included), the same
float arithmetic for results, rewards, and Q-updates.  Q-table values,
visit counts, convergence bookkeeping, history records, and the virtual
clock all end up bitwise equal.  ``tests/core/test_batchtrain.py`` pins
this.

**When the scalar path is still used.**  The trainer falls back to the
scalar :meth:`AutoScale.step` loop whenever batching could change RNG
semantics: a frozen (non-training) engine, or an active fault plan
(fault sampling interleaves data-dependent draws).
"""

from __future__ import annotations

import math
import time

from repro.analysis.contracts import contracts_enabled
from repro.common import ConfigError, NormalBlock
from repro.core.engine import AutoScaleStep
from repro.core.reward import compute_reward
from repro.env.observation import sample_observation

__all__ = ["BatchTrainer"]

#: Steps one :class:`NormalBlock` refill covers at the per-step worst
#: case; bounds the block's size on long episodes and the values drawn
#: ahead of an early stop.
_BLOCK_STEPS = 256


class BatchTrainer:
    """Fast-path driver for Algorithm-1 training episodes.

    Wraps an :class:`~repro.core.engine.AutoScale` engine and runs its
    training episodes through an inlined replica of the scalar step.
    All mutable learning state (Q-table, visit counts, convergence
    detector, overhead stats, history) lives on the wrapped engine; the
    trainer holds no state of its own, so scalar and batched stepping
    can be freely interleaved.
    """

    def __init__(self, engine):
        self.engine = engine

    @property
    def environment(self):
        return self.engine.environment

    # ------------------------------------------------------------------
    # Fast-path eligibility
    # ------------------------------------------------------------------

    def _static_scenario(self):
        """True when the scenario draws nothing and never changes.

        Delegates to
        :attr:`~repro.env.environment.EdgeCloudEnvironment.scenario_is_static`
        — the check the serving drain also uses to memoize its per-drain
        feasibility floors.
        """
        return self.engine.environment.scenario_is_static

    def _fast_path_available(self):
        engine = self.engine
        return engine.training and not engine.environment.faults_active

    # ------------------------------------------------------------------
    # Episodes
    # ------------------------------------------------------------------

    def run(self, use_case, num_inferences):
        """``AutoScale.run``, batched.  Returns the episode's steps."""
        if num_inferences < 1:
            raise ConfigError("num_inferences must be >= 1")
        if not self._fast_path_available():
            return self.engine.run(use_case, num_inferences)
        return self._train(use_case, num_inferences,
                           stop_on_convergence=False)

    def adapt(self, use_case, max_runs, stop_on_convergence=True):
        """The ``runner.adapt_engine`` loop, batched.

        Unfreezes the engine, resets the convergence detector, then runs
        up to ``max_runs`` cycles, stopping early on convergence (unless
        disabled).  Returns ``convergence.converged_at``.
        """
        if max_runs < 1:
            raise ConfigError("max_runs must be >= 1")
        engine = self.engine
        engine.unfreeze()
        engine.convergence.reset()
        if not self._fast_path_available():
            for _ in range(max_runs):
                engine.step(use_case)
                if stop_on_convergence and engine.converged:
                    break
        else:
            self._train(use_case, max_runs,
                        stop_on_convergence=stop_on_convergence)
        return engine.convergence.converged_at

    # ------------------------------------------------------------------
    # The hot loop
    # ------------------------------------------------------------------

    def _train(self, use_case, num_inferences, stop_on_convergence):
        """Bit-exact replica of ``num_inferences`` scalar training steps.

        Draw order per step (both RNG streams), matching
        ``AutoScale.step``:

        * env stream — observation sample (dynamic scenarios only),
          execution jitters (scalar order, see ``execute_batch``),
          successor-observation sample (dynamic only);
        * engine stream — one uniform for the epsilon test, plus one
          integer draw only when exploring.

        Runtime contracts (``REPRO_CONTRACTS``/pytest) are snapshotted
        once per episode: with contracts *on*, every step goes through
        the fully-instrumented ``observe``/``execute``/``QTable.update``
        call chain so each contract still fires; with contracts *off*
        (the production configuration the Section VI-C overhead numbers
        are about), the env-stream draws come from a
        :class:`~repro.common.NormalBlock` sized for the per-step worst
        case, executions are billed by the targets' finishing plans
        directly, and rewards and Q-updates run through inlined replicas
        of the same float expressions.  Both produce bit-identical
        values.  A scenario whose models do not declare
        ``draws_per_sample`` cannot size the block and takes the
        instrumented chain.
        """
        engine = self.engine
        env = engine.environment
        network = use_case.network
        qtable = engine.qtable
        values = qtable.values
        visits = qtable.visits
        config = qtable.config
        gamma = config.learning_rate
        mu = config.discount
        epsilon = engine.config.epsilon
        action_space = engine.action_space
        n_actions = len(action_space)
        targets = action_space.targets
        target_keys = [target.key for target in targets]
        reward_config = engine.reward_config
        alpha = reward_config.alpha
        beta = reward_config.beta
        normalize = reward_config.normalize
        energy_ref_mj = reward_config.energy_ref_mj
        accuracy_target = use_case.accuracy_target
        qos_ms = use_case.qos_ms
        convergence = engine.convergence
        converge_observe = convergence.observe
        overhead = engine.overhead
        select_append = overhead.select_us.append
        update_append = overhead.update_us.append
        history_append = engine.history.append
        engine_random = engine.rng.random
        engine_integers = engine.rng.integers
        observe = env.observe
        scenario = env.scenario
        encode = engine.state_space.encode
        clock = env.clock
        clock_advance = clock.advance
        think_time_ms = env.think_time_ms
        exp = math.exp
        perf_counter = time.perf_counter

        observation_draws = getattr(scenario, "draws_per_sample", None)
        faithful = contracts_enabled() or observation_draws is None
        execute = env.execute
        noise = env.noise
        plan = env.cost_engine.plan
        # Per-action jitter slots: the scalar draw order with zero-sigma
        # slots pre-resolved to "no draw" (None), exactly as ``_jitter``
        # skips them.
        local_slots = tuple(
            sigma if sigma > 0.0 else None
            for sigma in (noise.latency_sigma, noise.power_sigma)
        )
        remote_slots = tuple(
            sigma if sigma > 0.0 else None
            for sigma in (noise.server_sigma, noise.network_sigma,
                          noise.network_sigma, noise.network_sigma,
                          noise.power_sigma)
        )
        slots_by_action = [remote_slots if target.is_remote else local_slots
                           for target in targets]
        plans = [None] * n_actions

        static = self._static_scenario()
        if static:
            observation = observe()
            state = encode(network, observation)

        block = None
        next_refill = -1
        if not faithful:
            # Worst case per step: a remote action's jitters plus, in a
            # dynamic scenario, two observation samples.
            step_draws = max(
                sum(sigma is not None for sigma in slots)
                for slots in (local_slots, remote_slots))
            if not static:
                step_draws += 2 * observation_draws
            refill_steps = min(num_inferences, _BLOCK_STEPS)
            block = NormalBlock(env.rng)
            next_refill = 0

        steps = []
        try:
            for index in range(num_inferences):
                if index == next_refill:
                    assert block is not None  # only the block path refills
                    take = block.extend(refill_steps * step_draws)
                    next_refill += refill_steps
                if not static:
                    observation = (
                        observe() if faithful
                        else sample_observation(scenario, block,
                                                clock.now_ms))
                    state = encode(network, observation)
                started = perf_counter()
                if engine_random() < epsilon:
                    action = int(engine_integers(n_actions))
                    explored = True
                else:
                    # np.argmax dispatches here anyway; call it directly.
                    action = int(values[state].argmax())
                    explored = False
                select_append((perf_counter() - started) * 1e6)
                target = targets[action]

                if faithful:
                    result = execute(network, target, observation)
                else:
                    target_plan = plans[action]
                    if target_plan is None:
                        target_plan = plans[action] = plan(target)
                    # sigma * z is bit-identical to normal(0.0, sigma)
                    # up to the sign of a zero, which exp erases.
                    jitters = [
                        exp(sigma * take()) if sigma is not None else 1.0
                        for sigma in slots_by_action[action]
                    ]
                    result = target_plan.run(network, observation, jitters)
                    clock_advance(result.latency_ms + think_time_ms)

                started = perf_counter()
                if faithful:
                    reward = compute_reward(result, use_case, reward_config)
                else:
                    # Equation (5) (``compute_reward``) inline, normalized
                    # branch, non-failed results only — the fast path
                    # never sees injected faults.  Same expressions, same
                    # order.
                    accuracy = result.accuracy_pct
                    if accuracy_target is not None \
                            and accuracy < accuracy_target:
                        reward = (-50.0 + (accuracy - 100.0) / 100.0
                                  if normalize else accuracy - 100.0)
                    else:
                        latency_ms = result.latency_ms
                        if normalize:
                            cost_term = (result.estimated_energy_mj
                                         / energy_ref_mj)
                            time_term = latency_ms / energy_ref_mj
                        else:
                            cost_term = result.estimated_energy_mj / 1000.0
                            time_term = latency_ms / 1000.0
                        reward = -cost_term + beta * (accuracy / 100.0)
                        if latency_ms <= qos_ms:
                            reward += alpha * time_term
                if static:
                    # The scalar loop re-observes here; a static scenario
                    # returns the same values without drawing, so reuse.
                    next_state = state
                elif faithful:
                    next_state = encode(network, observe())
                else:
                    next_state = encode(
                        network,
                        sample_observation(scenario, block, clock.now_ms))
                if faithful:
                    q_delta = qtable.update(state, action, reward,
                                            next_state)
                else:
                    # QTable.update's expression chain, verbatim (the
                    # row max read as row[argmax], see best_value).
                    row = values[next_state]
                    target_q = reward + mu * float(row[row.argmax()])
                    delta = gamma * (target_q - values[state, action])
                    values[state, action] += delta
                    visits[state, action] += 1
                    qtable.update_count += 1
                    q_delta = float(delta)
                if not explored:
                    converge_observe(reward, executed_action=action)
                update_append((perf_counter() - started) * 1e6)
                record = AutoScaleStep(
                    state=state, action=action,
                    target_key=target_keys[action], reward=reward,
                    result=result, explored=explored, q_delta=q_delta,
                )
                history_append(record)
                steps.append(record)
                if stop_on_convergence and convergence.converged:
                    break
        finally:
            if block is not None:
                block.sync()
        return steps
