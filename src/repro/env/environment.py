"""The edge-cloud execution environment.

:class:`EdgeCloudEnvironment` wires a phone, the cloud server, a locally
connected edge device, the two radio links, and a Table-IV scenario into
one object with the interface every scheduler in this repo programs
against:

- ``targets()`` — the execution-scaling action space (Section V-C);
- ``observe()`` — the runtime-variance readings before an inference;
- ``execute(network, target)`` — run the inference, advance virtual time,
  return the measured :class:`ExecutionResult`;
- ``estimate(network, target, observation)`` — the deterministic nominal
  model (no noise, no clock), which the prediction-based baselines fit and
  the oracle searches;
- ``estimate_all(network, observation)`` — the same nominal model for the
  *whole* action space in one vectorized pass (a
  :class:`~repro.env.costcache.NominalSweep`), which is what every
  exhaustive-search consumer should use.
"""

from __future__ import annotations

import math

from repro.common import ConfigError, Stopwatch, make_rng
from repro.env.costcache import NominalCostEngine
from repro.env.injection import resolve_injector
from repro.env.executor import (
    NoiseConfig,
    check_segments,
    finish_partitioned_execution,
    finish_pipelined_execution,
    jitter_plan,
    pipeline_jitter_sigmas,
    split_jitter_sigmas,
)
from repro.env.observation import sample_observation
from repro.env.scenarios import build_scenario
from repro.env.target import Location, enumerate_targets
from repro.hardware.devices import cloud_server, galaxy_tab_s6
from repro.interference.corunner import ConstantCoRunner
from repro.interference.model import InterferenceModel
from repro.models.accuracy import DEFAULT_ACCURACY
from repro.sim.kernel import EventKernel
from repro.wireless.profiles import default_wifi, default_wifi_direct
from repro.wireless.signal import ConstantSignal

__all__ = ["EdgeCloudEnvironment"]

#: Virtual think-time between consecutive inferences (ms); keeps dynamic
#: scenarios' trace co-runners moving through their phases.
_INTER_ARRIVAL_MS = 150.0

#: Noise-free jitters for every slot (local uses the first two): what
#: the executor's ``_jitter`` returns without an RNG.
_UNIT_JITTERS = (1.0,) * 5


def _spread_draws(sigmas, normals, cursor, draw_flags):
    """One request's jitters, in slot order, from position ``cursor``.

    A drawing slot takes ``exp(sigma * z)`` of the next aligned
    ``(sigmas, normals)`` pair; a zero-sigma slot is 1.0.  Returns
    ``(jitters, cursor)`` with the cursor past the draws consumed.
    """
    jitters = []
    for has_draw in draw_flags:
        if has_draw:
            jitters.append(math.exp(sigmas[cursor] * normals[cursor]))
            cursor += 1
        else:
            jitters.append(1.0)
    return jitters, cursor


class EdgeCloudEnvironment:
    """A phone in an edge-cloud execution environment under a scenario.

    Args:
        device: the phone (a :class:`~repro.hardware.devices.Device`).
        cloud: cloud server device; defaults to the Xeon+P100 node.
            Pass ``False`` to remove the cloud path entirely.
        connected: locally connected edge device; defaults to the Galaxy
            Tab S6.  Pass ``False`` to remove it.
        scenario: a :class:`~repro.env.scenarios.Scenario` or a Table-IV
            id string; defaults to ``"S1"``.
        wifi / p2p: radio links; default profiles from
            ``repro.wireless.profiles``.
        interference: contention model; defaults to one sharing the
            device SoC's thermal model.
        accuracy: the pre-measured accuracy table.
        noise: ground-truth stochastic-variance magnitudes.
        seed: RNG seed (or a Generator) for all stochasticity.
        faults: a :class:`~repro.faults.FaultPlan` of request-level
            faults applied to remote attempts; defaults to
            ``FaultPlan.none()``, which changes nothing (no extra RNG
            draws, bit-identical executions).
        think_time_ms: virtual idle time appended to the clock after each
            execution (default 150 ms, the historical closed-loop think
            time).  Open-loop serving (``repro.serving``) sets this to 0
            so the clock is driven by arrivals, not by a synthetic gap.
    """

    def __init__(self, device, cloud=None, connected=None, scenario="S1",
                 wifi=None, p2p=None, interference=None,
                 accuracy=DEFAULT_ACCURACY, noise=None, seed=None,
                 faults=None, think_time_ms=_INTER_ARRIVAL_MS):
        self.device = device
        self.cloud = cloud_server() if cloud is None else (
            None if cloud is False else cloud)
        self.connected = galaxy_tab_s6() if connected is None else (
            None if connected is False else connected)
        if self.cloud is None and self.connected is None:
            raise ConfigError(
                "environment needs at least one remote system or none of "
                "the paper's scale-out experiments can run; pass "
                "cloud=False/connected=False only individually"
            )
        self.scenario = scenario  # property setter normalizes id strings
        self.wifi = wifi if wifi is not None else default_wifi()
        self.p2p = p2p if p2p is not None else default_wifi_direct()
        self.interference = interference if interference is not None else \
            InterferenceModel(thermal=device.soc.thermal)
        self.accuracy = accuracy
        self.noise = noise if noise is not None else NoiseConfig()
        if think_time_ms < 0:
            raise ConfigError(
                f"think time cannot be negative, got {think_time_ms} ms"
            )
        self.think_time_ms = think_time_ms
        self.rng = make_rng(seed)
        self.clock = Stopwatch()
        self.kernel = EventKernel(self.clock)
        self.faults = faults  # property setter builds the injector
        self._targets = enumerate_targets(device, self.cloud, self.connected)
        self._cost_engine = NominalCostEngine(self)

    # ------------------------------------------------------------------
    # Scenario
    # ------------------------------------------------------------------

    @property
    def scenario(self):
        return self._scenario

    @scenario.setter
    def scenario(self, scenario):
        self._scenario = (build_scenario(scenario)
                          if isinstance(scenario, str) else scenario)

    @property
    def scenario_is_static(self):
        """True when the scenario draws nothing and never changes.

        Constant co-runner + constant signals (Table IV's S1-S5) sample
        no RNG values and return identical observations every step, so
        fast paths (batched training campaigns, the serving drain's
        feasibility floors) can elide repeated observe/encode work
        without touching the RNG stream or any downstream value.
        """
        scenario = self._scenario
        return (isinstance(scenario.corunner, ConstantCoRunner)
                and isinstance(scenario.wlan_signal, ConstantSignal)
                and isinstance(scenario.p2p_signal, ConstantSignal))

    # ------------------------------------------------------------------
    # Fault plan (swappable between serving phases, e.g. chaos sweeps)
    # ------------------------------------------------------------------

    @property
    def faults(self):
        """The active :class:`~repro.faults.FaultPlan`."""
        return self._fault_injector.plan

    @faults.setter
    def faults(self, plan):
        # Resolved through the dependency-inverted injection interface:
        # repro.faults registers the real injector factory at import
        # time, so this layer never imports upward.  The previous
        # injector's outage event chains are detached first — swapping
        # plans mid-run must not leave stale boundaries on the heap.
        previous = getattr(self, "_fault_injector", None)
        if previous is not None:
            previous.detach()
        self._fault_injector = resolve_injector(plan, self.kernel)

    @property
    def fault_stats(self):
        """Cumulative injected-fault counters and billed energy."""
        return self._fault_injector.stats

    @property
    def faults_active(self):
        """True when the fault plan can alter remote attempts.

        The batched execution path checks this: active faults draw from
        the RNG stream data-dependently, so batching falls back to the
        scalar :meth:`execute` whenever this is set.
        """
        return self._fault_injector.active

    # ------------------------------------------------------------------
    # Action space and observations
    # ------------------------------------------------------------------

    def targets(self):
        """The full execution-scaling action space for this setup."""
        return self._targets

    def observe(self):
        """Sample the runtime variance at the current virtual time."""
        return sample_observation(self._scenario, self.rng,
                                  self.clock.now_ms)

    def reset(self, seed=None):
        """Rewind the virtual clock (and optionally reseed).

        The nominal-cost caches are kept: every entry is a pure function
        of the topology and its exact key, so a replayed episode reads
        the values it would recompute.
        """
        self.kernel.rewind()
        if seed is not None:
            self.rng = make_rng(seed)

    # ------------------------------------------------------------------
    # Clock funnels
    # ------------------------------------------------------------------
    # The environment owns the virtual timeline's *interface*; the
    # event kernel (repro.sim) owns its *writes*.  Every component that
    # needs to move time — workload idle gaps, retry backoff, profiling
    # sweeps, episode rewinds — goes through these three methods, which
    # delegate to the kernel so pending timeline events (arrivals,
    # outage boundaries, retry timers) fire in deterministic order as
    # time passes.  reprolint's RL103 enforces the funnel: only the
    # kernel and the Stopwatch primitive may write the clock.

    def advance_clock(self, delta_ms):
        """Advance the virtual clock by ``delta_ms`` (>= 0)."""
        self.kernel.advance_by(delta_ms)

    def advance_clock_to(self, at_ms):
        """Advance the virtual clock to ``at_ms`` if it is in the future.

        A target at or behind the current time is a no-op — arrivals
        already in the past start service immediately.
        """
        self.kernel.advance_to(at_ms)

    def rewind_clock(self):
        """Rewind the virtual clock to zero without reseeding.

        Pending timeline events are dropped and event subscribers
        (the outage schedule) re-arm on the fresh timeline via the
        kernel's rewind hooks.
        """
        self.kernel.rewind()

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def _remote_setup(self, target):
        if target.location is Location.CLOUD:
            if self.cloud is None:
                raise ConfigError("no cloud system in this environment")
            return self.cloud, self.wifi
        if self.connected is None:
            raise ConfigError("no connected edge device in this environment")
        return self.connected, self.p2p

    def _rssi_for(self, target, observation):
        return (observation.rssi_wlan_dbm
                if target.location is Location.CLOUD
                else observation.rssi_p2p_dbm)

    def execute(self, network, target, observation=None, deadline_ms=None):
        """Run one inference and advance virtual time.

        If ``observation`` is omitted, a fresh one is sampled — this is
        the normal serving loop: observe, decide, execute.

        Nominal components (the per-layer latency sum, link transfer
        times) come from the cost engine's exact layer-term tables, which
        reproduce :func:`~repro.env.executor.local_execution` /
        :func:`~repro.env.executor.remote_execution` bit for bit.  The
        jitters are drawn in those functions' order (local ``(latency,
        power)``, remote ``(server, tx, rx, rtt, power)``, zero-sigma
        slots skipped) as ``exp(sigma * z)`` over one
        ``rng.standard_normal(n)`` call: the same stream and values as
        ``rng.normal(0.0, sigmas)`` (see :meth:`_jitter_plans`).  The
        request is billed by the target's finishing plan
        (:meth:`~repro.env.costcache.NominalCostEngine.plan`).

        With an active fault plan, a remote attempt may come back as a
        :class:`~repro.faults.FailedAttempt` that bills the energy the
        dead attempt burned.  ``deadline_ms`` (used by the resilient
        serving path) aborts a remote attempt whose completion would run
        past it, independent of the fault plan.  The clock advances by
        whatever time the attempt actually consumed.
        """
        if observation is None:
            observation = self.observe()
        result = self._finish_cached(network, target, observation,
                                     self._target_jitters(target))
        injector = self._fault_injector
        if target.is_remote and (injector.active or deadline_ms is not None):
            if deadline_ms is not None and injector.plan is None:
                # The null injector cannot enforce deadlines; upgrade to
                # the real one (the deadline came from the resilience
                # machinery, so repro.faults is imported by now and the
                # factory is registered).
                injector = self._fault_injector = \
                    resolve_injector(None, self.kernel)
            _, link = self._remote_setup(target)
            idle_power_mw = (self.device.soc.platform_idle_mw
                             + self.device.soc.cpu.idle_power_mw
                             + link.idle_power_mw)
            result = injector.apply(
                result, target, link, self._rssi_for(target, observation),
                self.clock.now_ms, self.rng, idle_power_mw,
                deadline_ms=deadline_ms,
            )
        self.kernel.advance_by(result.latency_ms + self.think_time_ms)
        return result

    def execute_cached(self, network, target, observation):
        """:meth:`execute` with a required observation and no deadline."""
        return self.execute(network, target, observation)

    def _target_jitters(self, target):
        """One whole-model request's jitters, drawn in the scalar order."""
        _, local_plan, remote_plan = self._jitter_plans()
        sigmas, draw_flags = remote_plan if target.is_remote else local_plan
        if not sigmas:
            return _UNIT_JITTERS
        normals = self.rng.standard_normal(len(sigmas)).tolist()
        jitters, _ = _spread_draws(sigmas, normals, 0, draw_flags)
        return jitters

    def _jitter_plans(self):
        """Per-location jitter plans for the current noise config.

        Each plan is ``(positive_sigmas, draw_flags)`` (see
        :func:`~repro.env.executor.jitter_plan`).  A slot's jitter is
        ``exp(sigma * z)`` for its standard normal ``z``, drawn with the
        request's others in one ``rng.standard_normal(n)`` call: NumPy
        computes ``rng.normal(0.0, sigma)`` as ``0.0 + sigma * z`` from
        the same stream, which differs only in the sign of a zero
        (``exp(±0) == 1``), and skips its Python-level ``scale < 0``
        pass.  That check cannot fire here —
        :func:`~repro.env.executor.jitter_plan` keeps only sigmas > 0
        and :class:`~repro.env.executor.NoiseConfig` rejects negative
        ones — and is made once below, when a plan is cached.
        """
        plans = getattr(self, "_jitter_plan_cache", None)
        if plans is None or plans[0] is not self.noise:
            local_sigmas, local_flags = jitter_plan(self.noise, False)
            remote_sigmas, remote_flags = jitter_plan(self.noise, True)
            plans = (self.noise,
                     (tuple(local_sigmas), local_flags),
                     (tuple(remote_sigmas), remote_flags))
            for sigmas, _ in plans[1:]:
                if not all(sigma > 0.0 for sigma in sigmas):
                    raise ConfigError(
                        f"jitter sigmas must be positive, got {sigmas}")
            self._jitter_plan_cache = plans
        return plans

    def _finish_cached(self, network, target, observation, jitters):
        """Complete one request through ``target``'s finishing plan:
        exact cached nominals at ``observation``, then eq. (1)-(4)."""
        return self._cost_engine.plan(target).run(network, observation,
                                                  jitters)

    # ------------------------------------------------------------------
    # Batched execution (vectorized jitter draws)
    # ------------------------------------------------------------------

    def execute_batch(self, network, targets, observations):
        """Execute a chunk of inferences with vectorized jitter draws.

        Per-request draw order (the parity contract with the scalar
        path): requests consume the environment RNG in sequence; request
        ``i`` draws its jitters in the scalar order — local targets
        ``(latency, power)``, remote targets ``(server, tx, rx, rtt,
        power)`` — skipping any zero-sigma slot exactly as the scalar
        ``_jitter`` does.  All of the chunk's standard normals are drawn
        by one ``rng.standard_normal(n)`` call;
        NumPy's ``Generator`` fills the array element-wise from the same
        stream, so the draws (and the bit-generator state afterwards)
        are bit-identical to scalar per-request draws.

        Nominal components and the finishing arithmetic are those of
        :meth:`execute`, so the returned :class:`ExecutionResult`\\ s
        and the clock advances are bit-identical to calling
        :meth:`execute` per request with the same ``observation``.

        With an active fault plan the whole chunk falls back to scalar
        :meth:`execute` calls (fault sampling interleaves data-dependent
        draws that cannot be batched).
        """
        if len(targets) != len(observations):
            raise ConfigError(
                f"execute_batch got {len(targets)} targets for "
                f"{len(observations)} observations"
            )
        if self._fault_injector.active:
            return [self.execute(network, target, observation)
                    for target, observation in zip(targets, observations)]
        _, local_plan, remote_plan = self._jitter_plans()
        chunk_sigmas = []
        for target in targets:
            positive_sigmas, _ = (remote_plan if target.is_remote
                                  else local_plan)
            chunk_sigmas.extend(positive_sigmas)
        normals = (self.rng.standard_normal(len(chunk_sigmas)).tolist()
                   if chunk_sigmas else ())
        cursor = 0
        results = []
        for target, observation in zip(targets, observations):
            _, draw_flags = (remote_plan if target.is_remote
                             else local_plan)
            jitters, cursor = _spread_draws(chunk_sigmas, normals, cursor,
                                            draw_flags)
            result = self._finish_cached(network, target, observation,
                                         jitters)
            self.kernel.advance_by(result.latency_ms + self.think_time_ms)
            results.append(result)
        return results

    def estimate(self, network, target, observation):
        """Deterministic nominal model: no noise, no clock advance."""
        return self._finish_cached(network, target, observation,
                                   _UNIT_JITTERS)

    def estimate_all(self, network, observation):
        """Nominal model for **every** target in one vectorized pass.

        Returns a :class:`~repro.env.costcache.NominalSweep` whose arrays
        are index-aligned with ``targets()``; entry ``i`` of each column
        equals (``==``) the matching field of
        ``estimate(network, targets()[i], observation)``.  Sweeps are
        memoized on ``(network.name, exact observation readings)``.
        """
        return self._cost_engine.sweep(network, observation)

    @property
    def cost_engine(self):
        """The batched nominal-cost engine (cache stats, rebuild)."""
        return self._cost_engine

    # ------------------------------------------------------------------
    # Layer-granularity execution (baseline schedulers)
    # ------------------------------------------------------------------
    #
    # Head, tail and segment nominals are slices of the cost engine's
    # layer-term tables, finished by the executor's shared arithmetic;
    # ``partitioned_execution`` / ``pipelined_local_execution`` walk the
    # layers instead and stay as the ``==`` oracle
    # (``tests/env/test_layer_walk_oracle.py``).

    def _draw_jitters(self, sigmas, deterministic):
        """One multiplicative jitter per slot of ``sigmas``, in order.

        A positive sigma takes ``exp(sigma * z)`` of its draw from one
        ``rng.standard_normal(n)`` call (see :meth:`_jitter_plans`); a
        zero sigma, or a deterministic run, gives 1.0.
        """
        if deterministic:
            return (1.0,) * len(sigmas)
        positive_sigmas = [sigma for sigma in sigmas if sigma > 0.0]
        normals = (self.rng.standard_normal(len(positive_sigmas)).tolist()
                   if positive_sigmas else ())
        jitters, _ = _spread_draws(positive_sigmas, normals, 0,
                                   [sigma > 0.0 for sigma in sigmas])
        return jitters

    def execute_split(self, network, split_point, local_target,
                      remote_target, observation=None, deterministic=False):
        """NeuroSurgeon-style split execution (head local, tail remote).

        A split at the last layer runs the whole model on
        ``local_target``, a split at 0 offloads it to ``remote_target``;
        neither passes through the fault injector.
        """
        if observation is None:
            observation = self.observe()
        _, link = self._remote_setup(remote_target)
        num_layers = len(network.layers)
        if not 0 <= split_point <= num_layers:
            raise ConfigError(
                f"split point {split_point} outside [0, {num_layers}]"
            )
        if split_point in (0, num_layers):
            target = remote_target if split_point == 0 else local_target
            if target.is_remote != (split_point == 0):
                raise ConfigError(
                    f"{target} cannot run a split at {split_point}")
            jitters = (_UNIT_JITTERS if deterministic
                       else self._target_jitters(target))
            result = self._finish_cached(network, target, observation,
                                         jitters)
        else:
            proc = self.device.soc.processor(local_target.role)
            slowdown = self.interference.slowdown(proc.kind, observation)
            engine = self._cost_engine
            local_nominal_ms = engine.local_slice_ms(
                network, local_target, slowdown, 0, split_point)
            remote_nominal_ms = engine.remote_slice_ms(
                network, remote_target, split_point, num_layers)
            jitters = self._draw_jitters(split_jitter_sigmas(self.noise),
                                         deterministic)
            result = finish_partitioned_execution(
                self.device, network, split_point, local_target,
                remote_target, link,
                self._rssi_for(remote_target, observation), observation,
                self.accuracy, proc, local_nominal_ms, remote_nominal_ms,
                self.interference.transmission_slowdown(observation),
                jitters,
            )
        if not deterministic:
            self.kernel.advance_by(result.latency_ms + self.think_time_ms)
        return result

    def execute_pipelined(self, network, segments, observation=None,
                          deterministic=False):
        """MOSAIC-style sliced execution across local processors."""
        if observation is None:
            observation = self.observe()
        check_segments(network, segments)
        engine = self._cost_engine
        procs = []
        nominal_ms = []
        cursor = 0
        for count, target in segments:
            proc = self.device.soc.processor(target.role)
            slowdown = self.interference.slowdown(proc.kind, observation)
            nominal_ms.append(engine.local_slice_ms(
                network, target, slowdown, cursor, cursor + count))
            procs.append(proc)
            cursor += count
        jitters = self._draw_jitters(
            pipeline_jitter_sigmas(self.noise, len(segments)),
            deterministic)
        result = finish_pipelined_execution(
            self.device, network, segments, procs, nominal_ms, observation,
            self.accuracy, jitters,
        )
        if not deterministic:
            self.kernel.advance_by(result.latency_ms + self.think_time_ms)
        return result
