"""The AutoScale execution-scaling engine (Fig. 8 / Algorithm 1).

For each inference the engine (1) identifies the current execution state —
NN characteristics plus runtime variance; (2) selects an action (execution
target) from its Q-table via epsilon-greedy; (3) executes the inference on
that target; (4) computes the reward from the measured latency, the
estimated energy, and the stored accuracy; and (5) updates the Q-table.

The engine instruments its own decision/update path with wall-clock
timers, which is what the Section VI-C overhead analysis measures.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.common import ConfigError, make_rng
from repro.core.action import ActionSpace
from repro.core.convergence import ConvergenceDetector
from repro.core.qlearning import QLearningConfig, QTable, epsilon_greedy
from repro.core.reward import RewardConfig, compute_reward
from repro.core.state import table_i_state_space

__all__ = ["AutoScaleStep", "BoundedHistory", "OverheadStats",
           "StreamingSeries", "AutoScale"]


@dataclass(frozen=True)
class AutoScaleStep:
    """Everything produced by one observe-select-execute-update cycle.

    ``q_delta`` is the signed Q-table increment the update applied
    (``0.0`` with training frozen) — the raw temporal-difference signal
    the policy guard's surge detector consumes.
    """

    state: int
    action: int
    target_key: str
    reward: float
    result: object
    explored: bool
    q_delta: float = 0.0


class StreamingSeries:
    """A per-step timing series with O(1) memory.

    Long training campaigns (paper scale: 100 runs x 8 networks x 9
    scenarios, multiplied across devices) used to retain every per-step
    timing float forever.  This accumulator keeps the exact count and
    sum — so means stay exact — plus a bounded sample for percentiles,
    thinned *deterministically*: when the sample buffer fills, every
    other element is dropped and the keep-stride doubles.  No RNG is
    involved, so instrumented and non-instrumented runs consume
    identical random streams.
    """

    __slots__ = ("count", "total", "_capacity", "_stride", "_sample",
                 "_until_keep")

    def __init__(self, capacity=4096):
        if capacity < 2:
            raise ConfigError(
                f"sample capacity must be >= 2, got {capacity}"
            )
        self._capacity = capacity
        self.clear()

    def append(self, value):
        # Hot path: called once or twice per Algorithm-1 step.  A
        # countdown to the next retained sample keeps the common case
        # to three attribute updates and one branch.
        self.count += 1
        self.total += value
        self._until_keep -= 1
        if self._until_keep <= 0:
            if len(self._sample) >= self._capacity:
                self._sample = self._sample[::2]
                self._stride *= 2
            self._sample.append(value)
            self._until_keep = self._stride

    def clear(self):
        self.count = 0
        self.total = 0.0
        self._stride = 1
        self._sample = []
        self._until_keep = 1

    def mean(self):
        return self.total / self.count if self.count else 0.0

    def percentile(self, q):
        """Approximate percentile from the thinned sample (exact until
        ``count`` exceeds the sample capacity)."""
        if not self._sample:
            return 0.0
        return float(np.percentile(self._sample, q))

    @property
    def sample(self):
        """The retained (deterministically thinned) sample values."""
        return list(self._sample)

    def __len__(self):
        return self.count

    def __bool__(self):
        return self.count > 0

    def __iter__(self):
        return iter(self._sample)


@dataclass
class OverheadStats:
    """Accumulated engine overhead (Section VI-C).

    ``select_us`` covers state lookup + action choice (the inference-time
    overhead of a trained table); ``update_us`` additionally covers reward
    calculation and the Q update (the training-time overhead).  Both are
    :class:`StreamingSeries` — exact count/mean, bounded memory.
    """

    select_us: StreamingSeries = field(default_factory=StreamingSeries)
    update_us: StreamingSeries = field(default_factory=StreamingSeries)

    def mean_select_us(self):
        return self.select_us.mean()

    def mean_update_us(self):
        return self.update_us.mean()

    def mean_train_us(self):
        """Full training-path overhead per inference (select + update)."""
        return self.mean_select_us() + self.mean_update_us()


class BoundedHistory(list):
    """A step log with a hard cap on retained entries.

    Every Algorithm-1 cycle appends an :class:`AutoScaleStep` (which
    holds the full :class:`ExecutionResult`, detail dict included), so
    unbounded retention dominated memory on paper-scale campaigns.  When
    the cap is hit the *oldest quarter* is spliced out in one move —
    amortized O(1) per append — and counted in ``dropped``.  Recent-
    window consumers (slicing, ``history[-1]``, reward traces) keep the
    plain-``list`` interface; monotonic consumers should read ``total``.
    """

    #: Default retention: ~100k steps, comfortably above any single
    #: protocol in the repo (paper scale trains 900 episodes per case).
    DEFAULT_MAXLEN = 100_000

    def __init__(self, maxlen=DEFAULT_MAXLEN):
        super().__init__()
        if maxlen < 4:
            raise ConfigError(f"history cap must be >= 4, got {maxlen}")
        self.maxlen = maxlen
        self.dropped = 0

    def append(self, item):
        if len(self) >= self.maxlen:
            cut = self.maxlen // 4
            del self[:cut]
            self.dropped += cut
        super().append(item)

    @property
    def total(self):
        """Monotonic count of every step ever appended."""
        return len(self) + self.dropped


class AutoScale:
    """The adaptive execution-scaling engine.

    Args:
        environment: an :class:`~repro.env.EdgeCloudEnvironment`.
        state_space: defaults to the Table-I space (3,072 states).
        action_space: defaults to the environment's full augmented space.
        config: Q-learning hyperparameters (paper defaults).
        reward: reward weights/normalization.
        seed: RNG seed for exploration and Q-table initialization.
    """

    def __init__(self, environment, state_space=None, action_space=None,
                 config=None, reward=None, seed=None):
        self.environment = environment
        self.state_space = state_space or table_i_state_space()
        self.action_space = action_space or \
            ActionSpace.from_environment(environment)
        self.config = config or QLearningConfig()
        self.reward_config = reward or RewardConfig()
        self.rng = make_rng(seed)
        self.qtable = QTable(
            self.state_space.size, len(self.action_space),
            config=self.config, seed=self.rng,
        )
        self.overhead = OverheadStats()
        self.convergence = ConvergenceDetector()
        self.training = True
        self.history = BoundedHistory()

    # ------------------------------------------------------------------
    # Mode control
    # ------------------------------------------------------------------

    def freeze(self):
        """Stop exploring and learning; use the trained table greedily."""
        self.training = False

    def unfreeze(self):
        self.training = True

    # ------------------------------------------------------------------
    # Algorithm 1
    # ------------------------------------------------------------------

    def observe_state(self, network, observation):
        """Step 1: encode (NN characteristics, runtime variance)."""
        return self.state_space.encode(network, observation)

    def select_action(self, state, explore=None, allowed=None):
        """Step 2: epsilon-greedy over the Q-table.

        ``allowed`` — an optional boolean mask over the action space
        (the resilient service passes one derived from its circuit
        breakers) — restricts every branch to the True entries, so a
        broken remote target is not even exploration-eligible.  A mask
        with no True entry is treated as no mask.

        Returns ``(action_index, explored)``.
        """
        if explore is None:
            explore = self.training
        if allowed is not None and not np.any(allowed):
            allowed = None
        started = time.perf_counter()
        if explore and self.rng.random() < self.config.epsilon:
            if allowed is None:
                action = int(self.rng.integers(len(self.action_space)))
            else:
                candidates = np.flatnonzero(allowed)
                action = int(candidates[
                    self.rng.integers(len(candidates))
                ])
            explored = True
        elif explore:
            # Training-time exploitation: plain argmax, so untried
            # actions' optimistic init values drive directed exploration.
            action = self.qtable.best_action(state, allowed)
            explored = False
        else:
            # Trained-table usage: only actions with at least one real
            # reward are eligible (Section IV-B's "after the learning is
            # complete, the Q-table is used to select A").  States never
            # visited during training fall back to the nearest trained
            # sibling state of the same network (see _sibling_fallback).
            if self.qtable.visits[state].any():
                action = self.qtable.best_visited_action(state, allowed)
            else:
                action = self._sibling_fallback(state, allowed)
            explored = False
        self.overhead.select_us.append(
            (time.perf_counter() - started) * 1e6
        )
        return action, explored

    def select_action_batch(self, states, allowed=None, explore=None):
        """Step 2 for a whole drain batch of heterogeneous states.

        The structure-of-arrays serving plane: value rows for every state
        are gathered once and a single masked ``argmax`` pass decides the
        batch (:meth:`QTable.select_actions`).  Epsilon draws are
        vectorized **in the pinned scalar order** — one uniform per
        element, drawn from the engine's seeded RNG in one call — with an
        optimistic rollback: if any element would explore, the
        bit-generator state is rewound and the batch replays the scalar
        per-element interleave (uniform, then the exploration integer),
        so the RNG stream and every ``(action, explored)`` pair are
        *bit-identical* to calling :meth:`select_action` element-wise.

        Args:
            states: integer state indices, one per request group.
            allowed: ``None``, one shared ``(num_actions,)`` mask, or a
                per-element ``(n, num_actions)`` matrix.  Rows with no
                True entry follow :meth:`select_action`'s no-mask
                convention.
            explore: defaults to ``self.training``, as in
                :meth:`select_action`.

        Returns:
            A list of ``(action_index, explored)`` pairs.
        """
        state_vector = np.asarray(list(states), dtype=np.intp)
        count = len(state_vector)
        if count == 0:
            return []
        if explore is None:
            explore = self.training
        allowed_rows, effective = self._normalize_masks(allowed, count)
        started = time.perf_counter()
        if explore:
            snapshot = self.rng.bit_generator.state
            uniforms = self.rng.random(count)
            if bool((uniforms < self.config.epsilon).any()):
                # Someone explores: rewind the stream and replay the
                # scalar interleave so the exploration integers land at
                # exactly the positions the scalar path would use.
                self.rng.bit_generator.state = snapshot
                return [
                    self.select_action(int(state),
                                       allowed=allowed_rows[index])
                    for index, state in enumerate(state_vector)
                ]
            # All-exploit: plain argmax row by row, one NumPy pass (the
            # training-time exploitation rule of select_action).
            actions = self.qtable.select_actions(state_vector,
                                                 allowed=effective)
            decisions = [(int(action), False) for action in actions]
        else:
            decisions = self._select_frozen_batch(state_vector,
                                                  allowed_rows, effective)
        elapsed_us = (time.perf_counter() - started) * 1e6 / count
        for _ in range(count):
            self.overhead.select_us.append(elapsed_us)
        return decisions

    def _normalize_masks(self, allowed, count):
        """Split a batch mask into per-row masks + a broadcastable matrix.

        Returns ``(allowed_rows, effective)`` where ``allowed_rows[i]``
        is the mask :meth:`select_action` would see for element ``i``
        (``None`` when absent or empty, matching its convention) and
        ``effective`` is ``None`` or an ``(n, num_actions)`` boolean
        matrix whose empty rows are widened to all-True for the
        vectorized passes.
        """
        if allowed is None:
            return [None] * count, None
        mask = np.asarray(allowed, dtype=bool)
        num_actions = len(self.action_space)
        if mask.shape == (num_actions,):
            if not mask.any():
                return [None] * count, None
            return ([mask] * count,
                    np.broadcast_to(mask, (count, num_actions)))
        if mask.shape != (count, num_actions):
            raise ConfigError(
                f"mask of shape {mask.shape} for {count} states over "
                f"{num_actions} actions"
            )
        rows = [row if row.any() else None for row in mask]
        if all(row is not None for row in rows):
            return rows, mask
        effective = mask.copy()
        effective[~mask.any(axis=1)] = True
        return rows, effective

    def _select_frozen_batch(self, state_vector, allowed_rows, effective):
        """Trained-table selection for a batch (no RNG involved).

        The common case — every state visited, selection restricted to
        actions with at least one real reward — is one vectorized masked
        argmax; rows needing the scalar path's fallbacks (never-visited
        states borrowing from a trained sibling, visited states whose
        mask excludes every visited action) are fixed up per row with
        the exact scalar rules.
        """
        qtable = self.qtable
        visited = qtable.visits[state_vector] > 0
        eligible = (visited if effective is None
                    else visited & effective)
        rows = qtable.values[state_vector]
        masked = np.where(eligible, rows, -np.inf)
        actions = masked.argmax(axis=1)
        decisions = [(int(action), False) for action in actions]
        for index in np.flatnonzero(~eligible.any(axis=1)):
            state = int(state_vector[index])
            allowed = allowed_rows[index]
            if visited[index].any():
                # Visited state, but the mask excludes every visited
                # action: best_visited_action's documented fallback.
                action = qtable.best_action(state, allowed)
            else:
                action = self._sibling_fallback(state, allowed)
            decisions[index] = (int(action), False)
        return decisions

    def _variance_block_size(self):
        """States per network: the product of the trailing runtime-
        variance features' bin counts.

        Table I orders features network-first, so states of the same
        network occupy one contiguous block of this size.  Returns 0 when
        the layout does not follow that convention (custom spaces), which
        disables the sibling fallback.
        """
        features = getattr(self.state_space, "features", ())
        size = 1
        seen_variance = False
        for feature in features:
            is_variance = feature.name.startswith(("s_co_", "s_rssi"))
            if is_variance:
                seen_variance = True
                size *= feature.num_bins
            elif seen_variance:
                return 0  # NN feature after a variance feature
        return size if seen_variance else 0

    def _sibling_fallback(self, state, allowed=None):
        """Greedy action for an unvisited state.

        A deployed table can meet a runtime-variance combination it was
        never trained under (e.g. a co-runner burst level unseen during
        training).  The network's identity dominates the decision, so we
        borrow the best visited action from the *nearest trained state of
        the same network* — the sibling whose variance-bin vector is
        closest in L1 distance.  With no trained sibling at all, fall
        back to the plain argmax (random-init exploration behaviour).
        """
        block = self._variance_block_size()
        if block <= 0:
            return self.qtable.best_action(state, allowed)
        base = (state // block) * block
        offset = state - base
        best_action, best_distance = None, None
        for sibling_offset in range(block):
            sibling = base + sibling_offset
            if not self.qtable.visits[sibling].any():
                continue
            distance = self._bin_distance(offset, sibling_offset)
            if best_distance is None or distance < best_distance:
                best_distance = distance
                best_action = self.qtable.best_visited_action(
                    sibling, allowed)
        if best_action is None:
            return self.qtable.best_action(state, allowed)
        return best_action

    def _bin_distance(self, offset_a, offset_b):
        """L1 distance between two variance-bin vectors (by offset)."""
        radices = [
            feature.num_bins
            for feature in getattr(self.state_space, "features", ())
            if feature.name.startswith(("s_co_", "s_rssi"))
        ]
        distance = 0
        for radix in reversed(radices):
            distance += abs(offset_a % radix - offset_b % radix)
            offset_a //= radix
            offset_b //= radix
        return distance

    def step(self, use_case, observation=None, allowed_actions=None,
             deadline_ms=None):
        """One full Algorithm-1 cycle for an inference request.

        Observes the state, selects and executes an action, computes the
        reward, observes the successor state, and (in training mode)
        updates the Q-table.  Returns an :class:`AutoScaleStep`.

        ``allowed_actions`` (boolean mask) and ``deadline_ms`` are the
        resilient serving hooks: the mask keeps circuit-broken targets
        out of selection, the deadline aborts remote attempts that would
        overrun it (the aborted attempt still bills its energy and feeds
        the Q update, so the table learns the target is flaky).
        """
        env = self.environment
        if observation is None:
            observation = env.observe()
        state = self.observe_state(use_case.network, observation)
        action, explored = self.select_action(state,
                                              allowed=allowed_actions)
        return self._complete_step(use_case, state, action, explored,
                                   observation, deadline_ms)

    def step_with_action(self, use_case, action, observation,
                         explored=False, deadline_ms=None, state=None):
        """Algorithm 1 with the selection already made.

        The batched serving drain selects once per ``(network, state)``
        group (one Q-table row read) and then completes each coalesced
        request through this entry point: execute, reward, successor
        observation, and Q update all still happen *per request*, so the
        learning dynamics are identical to :meth:`step` — only the
        redundant selections are elided.

        ``state``, when given, must be the caller's already-computed
        ``observe_state(use_case.network, observation)`` — encoding is
        deterministic, so passing it skips a redundant encode without
        changing any observable.  The vectorized drain encodes
        once per network and feeds that here for every coalesced
        request.
        """
        if not 0 <= action < len(self.action_space):
            raise ConfigError(
                f"action {action} outside the "
                f"{len(self.action_space)}-action space"
            )
        if state is None:
            state = self.observe_state(use_case.network, observation)
        return self._complete_step(use_case, state, action, explored,
                                   observation, deadline_ms)

    def _complete_step(self, use_case, state, action, explored,
                       observation, deadline_ms):
        """Execute + reward + successor-observe + update for one request."""
        env = self.environment
        network = use_case.network
        target = self.action_space.target(action)

        result = env.execute(network, target, observation,
                             deadline_ms=deadline_ms)

        started = time.perf_counter()
        reward = compute_reward(result, use_case, self.reward_config)
        q_delta = 0.0
        if self.training:
            next_observation = env.observe()
            next_state = self.observe_state(network, next_observation)
            q_delta = self.qtable.update(state, action, reward, next_state)
            # Exploration steps are deliberate off-policy probes; feeding
            # their rewards to the detector would make the "converged"
            # reward stream look noisy forever.
            if not explored:
                self.convergence.observe(reward, executed_action=action)
        self.overhead.update_us.append(
            (time.perf_counter() - started) * 1e6
        )

        record = AutoScaleStep(
            state=state, action=action, target_key=target.key,
            reward=reward, result=result, explored=explored,
            q_delta=q_delta,
        )
        self.history.append(record)
        return record

    def run(self, use_case, num_inferences):
        """Run ``num_inferences`` Algorithm-1 cycles for one use case."""
        if num_inferences < 1:
            raise ConfigError("num_inferences must be >= 1")
        return [self.step(use_case) for _ in range(num_inferences)]

    # ------------------------------------------------------------------
    # Prediction (trained-table usage)
    # ------------------------------------------------------------------

    def predict(self, network, observation):
        """The greedy execution target for a (network, observation) pair."""
        state = self.observe_state(network, observation)
        action, _ = self.select_action(state, explore=False)
        return self.action_space.target(action)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def converged(self):
        return self.convergence.converged

    @property
    def total_steps(self):
        """Monotonic count of Algorithm-1 cycles ever run.

        Unlike ``len(engine.history)`` this survives the history cap —
        long-lived serving deployments report it as inferences served.
        """
        return self.history.total

    def memory_footprint_bytes(self):
        """Q-table resident size (Section VI-C reports ~0.4 MB)."""
        return self.qtable.memory_bytes

    def rewards(self):
        """The reward trace of every step taken so far."""
        return [step.reward for step in self.history]
