"""Batched training engine: fast Algorithm-1 rollouts, bit-exact.

The scalar training loop (:meth:`repro.core.engine.AutoScale.run`) pays
for the full per-request call chain — observation, state encoding,
selection, execution, reward, Q update, each behind its own method and
runtime contracts — on **every** inference, even though the paper's
protocol revisits the same few (network, target, observation) triples
tens of thousands of times.

:class:`BatchTrainer` drives the same Algorithm-1 cycles with that chain
inlined: nominal components come from the environment's exact
value-keyed caches (the ones
:meth:`~repro.env.environment.EdgeCloudEnvironment.execute` reads),
measurement jitters are drawn through the documented per-request
draw-order contract (see ``EdgeCloudEnvironment.execute_batch``), and
static Table-IV scenarios (constant co-runner, constant signals) skip
the per-step observation re-sampling entirely — legal because a static
scenario draws nothing from the RNG and returns the same values every
time.

**Parity contract.**  For the same seeds, a :class:`BatchTrainer` episode
is *bit-identical* to the scalar engine loop it replaces: the same
engine-RNG draws in the same order (one uniform per step, one integer
draw only when exploring), the same environment-RNG draws (observation
sampling only in dynamic scenarios, jitters in scalar order), the same
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

import numpy as np

from repro.analysis.contracts import contracts_enabled
from repro.common import ConfigError
from repro.core.engine import AutoScaleStep
from repro.core.reward import compute_reward
from repro.env.result import ExecutionResult
from repro.env.target import Location
from repro.hardware.processor import ProcessorKind

__all__ = ["BatchTrainer"]


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
        # Lazily-built per-action caches (stable for the engine's
        # lifetime: the action space and device topology are frozen).
        self._completers = {}
        self._accuracy_rows = {}

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
        — the shared eligibility check the vectorized serving drain uses
        too.
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

    def _local_completer(self, target):
        """A closure finishing one local execution from two jitters.

        Precomputes every latency-independent coefficient of equations
        (1)-(4) for this action; the per-step work is then the exact
        float expression chain of :func:`finish_local_execution` — same
        values, same IEEE operation order, bit-identical results.
        """
        engine = self.engine
        env = engine.environment
        device = env.device
        proc = device.soc.processor(target.role)
        vf_index = target.vf_index
        kind = proc.kind
        if kind is ProcessorKind.CPU:
            # cpu_energy_mj's busy power with full-cluster utilization.
            core_fraction = proc.num_cores / proc.num_cores
            busy_power_mw = proc.idle_power_mw + (
                proc.busy_power_at(vf_index) - proc.idle_power_mw
            ) * core_fraction
        elif kind is ProcessorKind.GPU:
            busy_power_mw = proc.busy_power_at(vf_index)
        else:
            busy_power_mw = proc.busy_power_mw
        platform_mw = device.soc.platform_idle_mw
        host_idle_mw = (device.soc.cpu.idle_power_mw
                        if target.role != "cpu" else None)
        target_key = target.key
        dispatch_ms = proc.dispatch_ms
        precision = target.precision
        interference_slowdown = env.interference.slowdown
        terms_for = env.cost_engine._terms_for

        # (network name, observation) -> (nominal_ms, slowdown) memo for
        # the repeat-heavy static case; observation identity is enough
        # because the static fast path reuses one Observation object.
        memo = [None, None, 0.0, 0.0]
        # The layer-term column is load-independent: cache it per
        # network so a memo miss only recomputes the slowdown product.
        vf_terms_cache = {}

        def complete(network, observation, accuracy_pct, jitters):
            lat_jitter, pwr_jitter = jitters
            if memo[0] is observation and memo[1] == network.name:
                nominal_ms = memo[2]
                slowdown = memo[3]
            else:
                # ``CostEngine.local_nominal``'s miss arithmetic, inline
                # (the layer-term table keeps the scalar walk's exact
                # accumulation order; see ``_terms_for``).  Observations
                # expose the same ``cpu_util``/``mem_util`` fields the
                # co-runner load carries.
                slowdown = interference_slowdown(kind, observation)
                if slowdown < 1.0:
                    raise ConfigError(
                        f"slowdown must be >= 1, got {slowdown}")
                vf_terms = vf_terms_cache.get(network.name)
                if vf_terms is None:
                    vf_terms = terms_for("local", proc, network,
                                         precision)[:, vf_index]
                    vf_terms_cache[network.name] = vf_terms
                nominal_ms = sum(
                    (vf_terms * slowdown + dispatch_ms).tolist()
                )
                memo[0] = observation
                memo[1] = network.name
                memo[2] = nominal_ms
                memo[3] = slowdown
            latency_ms = nominal_ms * lat_jitter
            busy_mj = busy_power_mw * latency_ms / 1000.0
            overhead_mj = platform_mw * latency_ms / 1000.0
            if host_idle_mw is not None:
                overhead_mj = (overhead_mj
                               + host_idle_mw * latency_ms / 1000.0)
            factor = (1.0 + 0.10 * observation.mem_util
                      + 0.05 * observation.cpu_util)
            return ExecutionResult(
                latency_ms=latency_ms,
                energy_mj=busy_mj * factor * pwr_jitter + overhead_mj,
                estimated_energy_mj=busy_mj + overhead_mj,
                accuracy_pct=accuracy_pct,
                target_key=target_key,
                detail={
                    "compute_ms": latency_ms,
                    "slowdown": slowdown,
                    "busy_mj": busy_mj,
                },
            )

        return complete

    def _remote_completer(self, target):
        """A closure finishing one remote execution from five jitters.

        Precomputes the link's constant power and tail terms; the
        per-step work is the exact float expression chain of
        :func:`finish_remote_execution` plus eq. (4)'s
        ``transmission_energy_mj`` — same values, same IEEE operation
        order, bit-identical results.  The jitter 5-tuple is the scalar
        draw order ``(server, tx, rx, rtt, power)``.
        """
        env = self.engine.environment
        device = env.device
        _, link = env._remote_setup(target)
        is_cloud = target.location is Location.CLOUD
        platform_mw = device.soc.platform_idle_mw
        host_idle_mw = device.soc.cpu.idle_power_mw
        rx_power_mw = link.rx_power_mw
        radio_idle_mw = link.idle_power_mw
        tail_mj = link.tail_energy_mj()
        tx_mw_for = link.tx_power_mw
        target_key = target.key
        remote_nominal = env.cost_engine.remote_nominal_ms
        link_nominal = env.cost_engine.link_nominal

        # Observation-identity memo (see ``_local_completer``) covering
        # the rssi- and load-dependent nominal components.
        memo = [None, None, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]
        remote_ms_cache = {}

        def complete(network, observation, accuracy_pct, jitters):
            if memo[0] is observation and memo[1] == network.name:
                remote_nominal_ms = memo[2]
                tx_base_ms = memo[3]
                rx_base_ms = memo[4]
                rtt_base_ms = memo[5]
                tx_slow = memo[6]
                tx_power_mw = memo[7]
            else:
                rssi_dbm = (observation.rssi_wlan_dbm if is_cloud
                            else observation.rssi_p2p_dbm)
                # Server compute is load- and rssi-independent: one
                # lookup per network, not per observation change.
                remote_nominal_ms = remote_ms_cache.get(network.name)
                if remote_nominal_ms is None:
                    remote_nominal_ms = remote_nominal(network, target)
                    remote_ms_cache[network.name] = remote_nominal_ms
                tx_base_ms, rx_base_ms, rtt_base_ms = link_nominal(
                    network, target, rssi_dbm
                )
                # InterferenceModel.transmission_slowdown, verbatim.
                tx_slow = (1.0 + 0.25 * observation.cpu_util
                           + 0.15 * observation.mem_util)
                tx_power_mw = tx_mw_for(rssi_dbm)
                memo[0] = observation
                memo[1] = network.name
                memo[2] = remote_nominal_ms
                memo[3] = tx_base_ms
                memo[4] = rx_base_ms
                memo[5] = rtt_base_ms
                memo[6] = tx_slow
                memo[7] = tx_power_mw
            (server_jitter, tx_jitter, rx_jitter, rtt_jitter,
             pwr_jitter) = jitters
            remote_ms = remote_nominal_ms * server_jitter
            tx_ms = tx_base_ms * tx_slow * tx_jitter
            rx_ms = rx_base_ms * tx_slow * rx_jitter
            rtt_ms = rtt_base_ms * rtt_jitter
            latency_ms = tx_ms + rtt_ms + remote_ms + rx_ms
            wait_ms = latency_ms - tx_ms - rx_ms
            if wait_ms < -1e-9:
                raise ConfigError(
                    f"total latency {latency_ms} ms shorter than transfer "
                    f"time {tx_ms + rx_ms:.3f} ms"
                )
            wait_ms = max(0.0, wait_ms)
            # TransmissionBreakdown.radio_energy_mj's addition order.
            radio_mj = (tx_power_mw * tx_ms / 1000.0
                        + rx_power_mw * rx_ms / 1000.0
                        + radio_idle_mw * wait_ms / 1000.0
                        + tail_mj)
            overhead_mj = (platform_mw * latency_ms / 1000.0
                           + host_idle_mw * latency_ms / 1000.0)
            return ExecutionResult(
                latency_ms=latency_ms,
                energy_mj=radio_mj * pwr_jitter + overhead_mj,
                estimated_energy_mj=radio_mj + overhead_mj,
                accuracy_pct=accuracy_pct,
                target_key=target_key,
                detail={
                    "tx_ms": tx_ms,
                    "rx_ms": rx_ms,
                    "rtt_ms": rtt_ms,
                    "remote_ms": remote_ms,
                    "radio_mj": radio_mj,
                },
            )

        return complete

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
        the fully-instrumented ``execute``/``QTable.update`` call
        chain so each contract still fires; with contracts *off* (the
        production configuration the Section VI-C overhead numbers are
        about), local executions and Q-updates run through inlined
        replicas of the same float expressions.  Both produce
        bit-identical values.
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
        env_std_normal = env.rng.standard_normal
        observe = env.observe
        encode = engine.state_space.encode
        clock_advance = env.clock.advance
        think_time_ms = env.think_time_ms
        exp = math.exp
        perf_counter = time.perf_counter

        faithful = contracts_enabled()
        execute = env.execute
        noise = env.noise
        accuracy_by_action = self._accuracy_rows.get(network.name)
        if accuracy_by_action is None:
            accuracy_by_action = [
                env.accuracy.lookup(network.name, target.precision)
                for target in targets
            ]
            self._accuracy_rows[network.name] = accuracy_by_action
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
        completers = self._completers

        static = self._static_scenario()
        if static:
            observation = observe()
            state = encode(network, observation)

        steps = []
        for _ in range(num_inferences):
            if not static:
                observation = observe()
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
                completer = completers.get(action)
                if completer is None:
                    completer = (self._remote_completer(target)
                                 if target.is_remote
                                 else self._local_completer(target))
                    completers[action] = completer
                # sigma * standard_normal() is bit-identical to
                # normal(0.0, sigma) (same ziggurat draw, same C
                # double scaling) and skips the loc/scale parsing.
                jitters = [
                    exp(sigma * env_std_normal())
                    if sigma is not None else 1.0
                    for sigma in slots_by_action[action]
                ]
                result = completer(network, observation,
                                   accuracy_by_action[action], jitters)
                clock_advance(result.latency_ms + think_time_ms)

            started = perf_counter()
            if faithful:
                reward = compute_reward(result, use_case, reward_config)
            else:
                # Equation (5) (``compute_reward``) inline, normalized
                # branch, non-failed results only — the fast path never
                # sees injected faults.  Same expressions, same order.
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
            else:
                next_state = encode(network, observe())
            if faithful:
                q_delta = qtable.update(state, action, reward, next_state)
            else:
                # QTable.update's expression chain, verbatim (np.max
                # dispatches to ndarray.max; same bits, less overhead).
                target_q = reward + mu * float(values[next_state].max())
                delta = gamma * (target_q - values[state, action])
                values[state, action] += delta
                visits[state, action] += 1
                qtable.update_count += 1
                q_delta = float(delta)
            if not explored:
                converge_observe(reward, executed_action=action)
            update_append((perf_counter() - started) * 1e6)
            record = AutoScaleStep(
                state=state, action=action, target_key=target_keys[action],
                reward=reward, result=result, explored=explored,
                q_delta=q_delta,
            )
            history_append(record)
            steps.append(record)
            if stop_on_convergence and convergence.converged:
                break
        return steps
