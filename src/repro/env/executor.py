"""Inference-execution simulation.

These functions play the role of the paper's real-system measurement
infrastructure (TVM/SNPE runtimes + Monsoon power meter): given a network,
an execution target, and the current runtime variance, they produce the
measured latency, the ground-truth mobile-system energy, and AutoScale's
equation-(1)-(4) energy *estimate*.

Ground truth differs from the estimate in two ways, mirroring reality:

- multiplicative measurement/variance noise on latency and power, and
- a contention power surcharge (bus/DRAM activity from co-runners raises
  the measured busy power slightly), which the estimator's pre-measured
  power tables do not capture.

Passing ``rng=None`` disables all noise, turning every function into the
deterministic *nominal model* — exactly what the prediction-based baselines
(and the Opt oracle construction) fit or search over.

Whole-model runs are billed by one finisher per location:
:class:`LocalPlan` (eq. 1-3) and :class:`RemotePlan` (eq. 4), built once
per target with every latency-independent coefficient folded in.  The
environment's execution paths and the batched trainer hold one plan per
(environment, target); the layer-walking :func:`local_execution` /
:func:`remote_execution` build one per call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.analysis.contracts import (
    contracts_enabled,
    ensure_duration_ms,
    ensure_energy_mj,
    ensure_latency_ms,
    ensure_power_mw,
    ensure_rssi_dbm,
)
from repro.common import ConfigError
from repro.env.result import ExecutionResult
from repro.env.target import Location
from repro.hardware.power import (
    cpu_energy_mj,
    dsp_energy_mj,
    gpu_energy_mj,
    platform_energy_mj,
)
from repro.hardware.processor import ProcessorKind
from repro.wireless.energy import (
    TransmissionBreakdown,
    transmission_energy_mj,
)

__all__ = [
    "NoiseConfig",
    "jitter_plan",
    "busy_power_mw",
    "LocalPlan",
    "RemotePlan",
    "local_execution",
    "remote_execution",
    "split_jitter_sigmas",
    "pipeline_jitter_sigmas",
    "check_segments",
    "finish_partitioned_execution",
    "finish_pipelined_execution",
    "partitioned_execution",
    "pipelined_local_execution",
]


@dataclass(frozen=True)
class NoiseConfig:
    """Stochastic-variance magnitudes for the ground-truth simulation.

    Local compute and power measurements are tight (Monsoon-meter
    precision, pinned clocks); the shared cloud and the wireless medium
    are the genuinely noisy parts of the system.
    """

    latency_sigma: float = 0.03
    power_sigma: float = 0.02
    server_sigma: float = 0.08
    network_sigma: float = 0.05

    def __post_init__(self):
        for name in ("latency_sigma", "power_sigma", "server_sigma",
                     "network_sigma"):
            if getattr(self, name) < 0:
                raise ConfigError(f"negative {name}")


def _jitter(rng, sigma):
    """Multiplicative lognormal noise; 1.0 when rng is None."""
    if rng is None or sigma <= 0.0:
        return 1.0
    return float(math.exp(rng.normal(0.0, sigma)))


def jitter_plan(noise, is_remote):
    """The scalar path's jitter-draw order for one request, as data.

    Returns ``(positive_sigmas, draw_flags)``: the sigmas that actually
    consume an RNG draw (in draw order) and, aligned with the *full*
    jitter sequence, whether each slot draws.  The sequences mirror
    :func:`local_execution` / :func:`remote_execution` exactly:

    - local:  ``(latency_sigma, power_sigma)`` — 2 slots;
    - remote: ``(server_sigma, network_sigma x3 [tx, rx, rtt],
      power_sigma)`` — 5 slots.

    A zero sigma draws nothing (matching :func:`_jitter`), which is why
    the flags are needed: the environment's vectorized draws must skip
    exactly the slots these functions skip to consume the RNG stream
    identically.
    """
    if is_remote:
        sigmas = (noise.server_sigma, noise.network_sigma,
                  noise.network_sigma, noise.network_sigma,
                  noise.power_sigma)
    else:
        sigmas = (noise.latency_sigma, noise.power_sigma)
    return ([sigma for sigma in sigmas if sigma > 0.0],
            tuple(sigma > 0.0 for sigma in sigmas))


_INF = math.inf


def _contention_power_factor(load):
    """Busy-power surcharge from co-runner bus/DRAM traffic (truth only)."""
    return 1.0 + 0.10 * load.mem_util + 0.05 * load.cpu_util


def _processor_energy(proc, busy_ms, vf_index):
    """Dispatch to the right eq. (1)-(3) model for a fully busy run."""
    if proc.kind is ProcessorKind.CPU:
        return cpu_energy_mj(proc, busy_ms, vf_index=vf_index)
    if proc.kind is ProcessorKind.GPU:
        return gpu_energy_mj(proc, busy_ms, vf_index=vf_index)
    return dsp_energy_mj(proc, busy_ms)


def _host_overheads_mj(device, latency_ms, role):
    """Platform base power plus the idle host CPU (when it isn't running)."""
    energy_mj = platform_energy_mj(device.soc.platform_idle_mw, latency_ms)
    if role != "cpu":
        energy_mj += device.soc.cpu.idle_power_mw * latency_ms / 1000.0
    return energy_mj


def busy_power_mw(proc, vf_index):
    """The busy power eq. (1)-(3) charge for a fully busy run on ``proc``.

    :func:`~repro.hardware.power.cpu_energy_mj` (full-cluster
    utilization), :func:`~repro.hardware.power.gpu_energy_mj` and
    :func:`~repro.hardware.power.dsp_energy_mj` all reduce to
    ``busy_power_mw(proc, vf_index) * busy_ms / 1000.0`` when nothing
    idles.
    """
    if proc.kind is ProcessorKind.CPU:
        core_fraction = proc.num_cores / proc.num_cores
        return proc.idle_power_mw + (
            proc.busy_power_at(vf_index) - proc.idle_power_mw
        ) * core_fraction
    if proc.kind is ProcessorKind.GPU:
        return proc.busy_power_at(vf_index)
    return proc.busy_power_mw  # DSP/NPU: constant pre-measured power


class _TargetPlan:
    """State shared by the two whole-model finishing plans.

    A plan built by the cost engine carries the engine (for the exact
    nominal components) and the accuracy table; :meth:`run` then serves
    a whole request.  One built by the layer-walk functions carries
    neither and only bills (``finish``).  ``run`` remembers the last
    ``(observation, network)`` pair it resolved (both are immutable),
    so a caller that re-issues one
    :class:`~repro.env.observation.Observation` object (a static
    scenario's training episode, a serving drain) looks its nominals up
    once.
    """

    __slots__ = ("target", "target_key", "platform_power_mw",
                 "host_idle_power_mw", "_engine", "_accuracy_table",
                 "_accuracy_by_network", "_memo")

    def __init__(self, device, target, engine, accuracy_table):
        self.target = target
        self.target_key = target.key
        self.platform_power_mw = ensure_power_mw(
            device.soc.platform_idle_mw, "idle_power_mw")
        self.host_idle_power_mw = ensure_power_mw(
            device.soc.cpu.idle_power_mw, "idle_power_mw")
        self._engine = engine
        self._accuracy_table = accuracy_table
        self._accuracy_by_network = {}
        self._memo = (None,)

    def _accuracy_pct(self, network):
        accuracy_pct = self._accuracy_by_network.get(network.name)
        if accuracy_pct is None:
            accuracy_pct = self._accuracy_table.lookup(network.name,
                                                       self.target.precision)
            self._accuracy_by_network[network.name] = accuracy_pct
        return accuracy_pct


class LocalPlan(_TargetPlan):
    """Eq. (1)-(3) finishing plan for one local target.

    Holds the target's busy power (:func:`busy_power_mw`), the platform
    power, and the host CPU's idle power when the target is not the CPU
    itself.  :meth:`finish` is the one whole-model local finisher: the
    environment's execution paths, its nominal estimate, the batched
    trainer and :func:`local_execution` all bill through it.
    """

    __slots__ = ("proc", "busy_power_mw")

    def __init__(self, device, target, engine=None, accuracy_table=None):
        if target.location is not Location.LOCAL:
            raise ConfigError(f"{target} is not a local target")
        super().__init__(device, target, engine, accuracy_table)
        self.proc = device.soc.processor(target.role)
        self.busy_power_mw = busy_power_mw(self.proc, target.vf_index)
        if target.role == "cpu":
            self.host_idle_power_mw = None

    def run(self, network, observation, jitters):
        """One request: exact nominals at ``observation``, then
        :meth:`finish` with ``jitters`` = ``(latency, power)``."""
        memo = self._memo
        if memo[0] is observation and memo[1] is network:
            nominal_ms, slowdown, accuracy_pct = memo[2:]
        else:
            _, nominal_ms, slowdown = self._engine.local_nominal(
                network, self.target, observation)
            accuracy_pct = self._accuracy_pct(network)
            self._memo = (observation, network, nominal_ms, slowdown,
                          accuracy_pct)
        return self.finish(nominal_ms, slowdown, observation, accuracy_pct,
                           jitters[0], jitters[1])

    def finish(self, nominal_ms, slowdown, load, accuracy_pct, lat_jitter,
               pwr_jitter):
        """Bill one local run from its nominal latency and two jitters.

        ``load`` only feeds the contention power factor, so any object
        with ``cpu_util``/``mem_util`` (a ``CoRunnerLoad`` or an
        ``Observation``) works.  With contracts on, the latency and the
        energies are validated as the ``@checked`` eq. (1)-(3) functions
        validate them.
        """
        latency_ms = nominal_ms * lat_jitter
        busy_mj = self.busy_power_mw * latency_ms / 1000.0
        platform_mj = self.platform_power_mw * latency_ms / 1000.0
        overhead_mj = platform_mj
        if self.host_idle_power_mw is not None:
            overhead_mj += self.host_idle_power_mw * latency_ms / 1000.0
        if contracts_enabled():
            ensure_duration_ms(latency_ms, "busy_ms")
            ensure_energy_mj(busy_mj, "busy_mj")
            ensure_energy_mj(platform_mj, "platform_mj")
        return ExecutionResult(
            latency_ms,
            busy_mj * _contention_power_factor(load) * pwr_jitter
            + overhead_mj,
            busy_mj + overhead_mj,
            accuracy_pct,
            self.target_key,
            {"compute_ms": latency_ms, "slowdown": slowdown,
             "busy_mj": busy_mj},
        )


class RemotePlan(_TargetPlan):
    """Eq. (4) finishing plan for one remote target over ``link``.

    Holds the platform and host-CPU idle powers, the radio's RX and
    connected-idle powers, its tail energy, and its TX-power function of
    RSSI.  :meth:`finish` is the one whole-model remote finisher (see
    :class:`LocalPlan`).
    """

    __slots__ = ("link", "rx_power_mw", "radio_idle_power_mw",
                 "tail_energy_mj", "tx_power_mw", "_is_cloud",
                 "_transmission_slowdown")

    def __init__(self, device, target, link, engine=None,
                 accuracy_table=None, interference=None):
        if not target.is_remote:
            raise ConfigError(f"{target} is not a remote target")
        super().__init__(device, target, engine, accuracy_table)
        self.link = link
        self.rx_power_mw = link.rx_power_mw
        self.radio_idle_power_mw = link.idle_power_mw
        self.tail_energy_mj = ensure_energy_mj(link.tail_energy_mj(),
                                               "tail_energy_mj")
        self.tx_power_mw = link.tx_power_mw
        self._is_cloud = target.location is Location.CLOUD
        self._transmission_slowdown = (
            None if interference is None
            else interference.transmission_slowdown)

    def run(self, network, observation, jitters):
        """One request: exact nominals at ``observation``, then
        :meth:`finish` with ``jitters`` = ``(server, tx, rx, rtt,
        power)``."""
        memo = self._memo
        if memo[0] is observation and memo[1] is network:
            (remote_nominal_ms, tx_base_ms, rx_base_ms, rtt_base_ms,
             tx_slow, rssi_dbm, accuracy_pct) = memo[2:]
        else:
            rssi_dbm = (observation.rssi_wlan_dbm if self._is_cloud
                        else observation.rssi_p2p_dbm)
            engine = self._engine
            remote_nominal_ms = engine.remote_nominal_ms(network,
                                                         self.target)
            tx_base_ms, rx_base_ms, rtt_base_ms = engine.link_nominal(
                network, self.target, rssi_dbm)
            tx_slow = self._transmission_slowdown(observation)
            accuracy_pct = self._accuracy_pct(network)
            self._memo = (observation, network, remote_nominal_ms,
                          tx_base_ms, rx_base_ms, rtt_base_ms, tx_slow,
                          rssi_dbm, accuracy_pct)
        return self.finish(remote_nominal_ms, tx_base_ms, rx_base_ms,
                           rtt_base_ms, tx_slow, rssi_dbm, accuracy_pct,
                           jitters)

    def finish(self, remote_nominal_ms, tx_base_ms, rx_base_ms, rtt_base_ms,
               tx_slow, rssi_dbm, accuracy_pct, jitters):
        """Bill one offload from its nominal components and five jitters.

        ``jitters`` is ``(server, tx, rx, rtt, power)`` in the scalar
        draw order; the ``*_base_ms`` values are the load- and
        noise-free link/remote nominals.  Rejects a negative effective
        transfer and a latency shorter than its transfers, and holds the
        radio phases to :class:`~repro.wireless.energy.TransmissionBreakdown`'s
        field checks; with contracts on, also validates the RSSI, the
        latency and the platform energy as the ``@checked`` eq. (4) and
        platform functions do.
        """
        server_jitter, tx_jitter, rx_jitter, rtt_jitter, pwr_jitter = jitters
        remote_ms = remote_nominal_ms * server_jitter
        tx_ms = tx_base_ms * tx_slow * tx_jitter
        rx_ms = rx_base_ms * tx_slow * rx_jitter
        rtt_ms = rtt_base_ms * rtt_jitter
        latency_ms = tx_ms + rtt_ms + remote_ms + rx_ms
        contracts = contracts_enabled()
        if contracts:
            ensure_rssi_dbm(rssi_dbm, "rssi_dbm")
            ensure_latency_ms(latency_ms, "total_latency_ms")
        if tx_ms < 0 or rx_ms < 0:
            raise ConfigError(
                f"negative effective transfer time (tx {tx_ms}, rx {rx_ms})"
            )
        wait_ms = latency_ms - tx_ms - rx_ms
        if wait_ms < -1e-9:
            raise ConfigError(
                f"total latency {latency_ms} ms shorter than transfer "
                f"time {tx_ms + rx_ms:.3f} ms"
            )
        wait_ms = max(0.0, wait_ms)
        tx_mj = self.tx_power_mw(rssi_dbm) * tx_ms / 1000.0
        rx_mj = self.rx_power_mw * rx_ms / 1000.0
        idle_mj = self.radio_idle_power_mw * wait_ms / 1000.0
        # TransmissionBreakdown's field checks (finite, non-negative) as
        # one test; the dataclass itself raises the precise error.
        if not (0.0 <= tx_ms < _INF and 0.0 <= rx_ms < _INF
                and 0.0 <= wait_ms < _INF and 0.0 <= tx_mj < _INF
                and 0.0 <= rx_mj < _INF and 0.0 <= idle_mj < _INF):
            TransmissionBreakdown(tx_ms, rx_ms, wait_ms, tx_mj, rx_mj,
                                  idle_mj, self.tail_energy_mj)
        radio_mj = tx_mj + rx_mj + idle_mj + self.tail_energy_mj
        platform_mj = self.platform_power_mw * latency_ms / 1000.0
        if contracts:
            ensure_energy_mj(platform_mj, "platform_mj")
        overhead_mj = (platform_mj
                       + self.host_idle_power_mw * latency_ms / 1000.0)
        return ExecutionResult(
            latency_ms,
            radio_mj * pwr_jitter + overhead_mj,
            radio_mj + overhead_mj,
            accuracy_pct,
            self.target_key,
            {"tx_ms": tx_ms, "rx_ms": rx_ms, "rtt_ms": rtt_ms,
             "remote_ms": remote_ms, "radio_mj": radio_mj},
        )


def local_execution(device, network, target, load, interference,
                    accuracy_table, rng=None, noise=NoiseConfig()):
    """Run an inference entirely on one of the device's processors."""
    plan = LocalPlan(device, target)
    slowdown = interference.slowdown(plan.proc.kind, load)
    nominal_ms = plan.proc.network_latency_ms(
        network, target.precision, target.vf_index, slowdown
    )
    # Draw order (the environment's contract): latency, then power.
    lat_jitter = _jitter(rng, noise.latency_sigma)
    pwr_jitter = _jitter(rng, noise.power_sigma)
    return plan.finish(
        nominal_ms, slowdown, load,
        accuracy_table.lookup(network.name, target.precision),
        lat_jitter, pwr_jitter,
    )


def remote_execution(device, remote, network, target, link, rssi_dbm,
                     accuracy_table, rng=None, noise=NoiseConfig(),
                     load=None, interference=None):
    """Offload a whole inference to the cloud or a connected edge device.

    The phone transmits the (compressed) input, idles while the remote
    device computes, and receives the result.  Only the *phone's* energy is
    accounted, as in the paper's Monsoon-based methodology.  Co-runner
    load on the phone slows the radio path (the network stack runs on the
    contended CPU) when ``load``/``interference`` are provided.
    """
    plan = RemotePlan(device, target, link)
    tx_slow = (interference.transmission_slowdown(load)
               if interference is not None and load is not None else 1.0)
    remote_proc = remote.soc.processor(target.role)
    remote_nominal_ms = remote_proc.network_latency_ms(network,
                                                       target.precision)
    tx_base_ms = link.transfer_ms(network.input_bytes, rssi_dbm)
    rx_base_ms = link.transfer_ms(network.output_bytes, rssi_dbm)
    rtt_base_ms = link.effective_rtt_ms(rssi_dbm)
    # Draw order (the environment's contract): server, tx, rx, rtt,
    # power.
    jitters = (
        _jitter(rng, noise.server_sigma),
        _jitter(rng, noise.network_sigma),
        _jitter(rng, noise.network_sigma),
        _jitter(rng, noise.network_sigma),
        _jitter(rng, noise.power_sigma),
    )
    return plan.finish(
        remote_nominal_ms, tx_base_ms, rx_base_ms, rtt_base_ms, tx_slow,
        rssi_dbm, accuracy_table.lookup(network.name, target.precision),
        jitters,
    )


def split_jitter_sigmas(noise):
    """Jitter sigmas of a mid-network split, in draw order.

    ``(latency, server, tx, rx, rtt, power)``: the local head's latency,
    the remote tail's compute, the three network legs, and the power
    measurement.  A zero sigma draws nothing (see :func:`_jitter`).
    """
    return (noise.latency_sigma, noise.server_sigma, noise.network_sigma,
            noise.network_sigma, noise.network_sigma, noise.power_sigma)


def pipeline_jitter_sigmas(noise, num_segments):
    """Jitter sigmas of a sliced local run: one latency draw per segment,
    then the power measurement."""
    return (noise.latency_sigma,) * num_segments + (noise.power_sigma,)


def finish_partitioned_execution(device, network, split_point, local_target,
                                 remote_target, link, rssi_dbm, load,
                                 accuracy_table, proc, local_nominal_ms,
                                 remote_nominal_ms, tx_slow, jitters):
    """Complete a mid-network split from its nominal components + jitters.

    The single arithmetic shared by :func:`partitioned_execution` (which
    walks the head and tail layers for the two nominals) and
    :meth:`EdgeCloudEnvironment.execute_split` (which reads them from the
    cost engine's layer-term tables), so the two are bit-identical by
    construction.  ``proc`` is the local processor running the head;
    ``jitters`` follows :func:`split_jitter_sigmas`.
    """
    (lat_jitter, server_jitter, tx_jitter, rx_jitter, rtt_jitter,
     pwr_jitter) = jitters
    local_ms = local_nominal_ms * lat_jitter
    remote_ms = remote_nominal_ms * server_jitter
    wire_bytes = (network.transfer_bytes_at(split_point)
                  * local_target.precision.size_ratio)
    tx_ms = link.transfer_ms(wire_bytes, rssi_dbm) * tx_slow * tx_jitter
    rx_ms = (link.transfer_ms(network.output_bytes, rssi_dbm) * tx_slow
             * rx_jitter)
    rtt_ms = link.effective_rtt_ms(rssi_dbm) * rtt_jitter
    latency_ms = local_ms + tx_ms + rtt_ms + remote_ms + rx_ms

    busy_mj = _processor_energy(proc, local_ms, local_target.vf_index)
    radio = transmission_energy_mj(
        link, rssi_dbm, wire_bytes, network.output_bytes,
        latency_ms - local_ms, tx_ms=tx_ms, rx_ms=rx_ms,
    )
    overhead_mj = _host_overheads_mj(device, latency_ms, local_target.role)
    estimate_mj = busy_mj + radio.radio_energy_mj + overhead_mj
    truth_mj = (
        (busy_mj * _contention_power_factor(load)
         + radio.radio_energy_mj) * pwr_jitter
        + overhead_mj
    )
    accuracy = min(
        accuracy_table.lookup(network.name, local_target.precision),
        accuracy_table.lookup(network.name, remote_target.precision),
    )
    return ExecutionResult(
        latency_ms=latency_ms,
        energy_mj=truth_mj,
        estimated_energy_mj=estimate_mj,
        accuracy_pct=accuracy,
        target_key=(f"split@{split_point}:{local_target.key}"
                    f"->{remote_target.key}"),
        detail={
            "local_ms": local_ms,
            "remote_ms": remote_ms,
            "tx_ms": tx_ms,
            "rtt_ms": rtt_ms,
            "wire_bytes": wire_bytes,
        },
    )


def partitioned_execution(device, remote, network, split_point,
                          local_target, remote_target, link, rssi_dbm,
                          load, interference, accuracy_table,
                          rng=None, noise=NoiseConfig()):
    """Layer-granularity split: head runs locally, tail remotely.

    This is the execution model of the NeuroSurgeon baseline.  The wire
    payload is the output activation of the last local layer (or the
    compressed input for ``split_point == 0``); a split at the final layer
    degenerates to pure local execution.
    """
    head, tail = network.split(split_point)
    if not tail:
        return local_execution(device, network, local_target, load,
                               interference, accuracy_table, rng, noise)
    if not head:
        return remote_execution(device, remote, network, remote_target,
                                link, rssi_dbm, accuracy_table, rng, noise,
                                load=load, interference=interference)

    proc = device.soc.processor(local_target.role)
    slowdown = interference.slowdown(proc.kind, load)
    tx_slow = interference.transmission_slowdown(load)
    local_nominal_ms = proc.layers_latency_ms(
        head, local_target.precision, local_target.vf_index, slowdown)
    remote_proc = remote.soc.processor(remote_target.role)
    remote_nominal_ms = remote_proc.layers_latency_ms(
        tail, remote_target.precision)
    jitters = [_jitter(rng, sigma) for sigma in split_jitter_sigmas(noise)]
    return finish_partitioned_execution(
        device, network, split_point, local_target, remote_target, link,
        rssi_dbm, load, accuracy_table, proc, local_nominal_ms,
        remote_nominal_ms, tx_slow, jitters,
    )


#: Fixed cost of handing a partially computed activation from one local
#: processor to another (driver synchronization, cache flush, and tensor
#: format conversion — e.g. NCHW to GPU textures), plus a DRAM copy at
#: this effective bandwidth.  Real cross-engine transitions on mobile
#: SoCs cost milliseconds, which is the "context switching overhead"
#: the paper cites for offloading at model rather than layer granularity.
_HOP_OVERHEAD_MS = 2.5
_DRAM_COPY_GBPS = 4.0


def check_segments(network, segments):
    """Reject a slicing plan that is not a cover of local segments.

    ``segments`` must be ``(num_layers, ExecutionTarget)`` pairs with
    positive counts and LOCAL targets that cover the network's layer
    list exactly.
    """
    total_layers = sum(count for count, _ in segments)
    if total_layers != len(network.layers):
        raise ConfigError(
            f"segments cover {total_layers} layers, network has "
            f"{len(network.layers)}"
        )
    for count, target in segments:
        if count <= 0:
            raise ConfigError("segment layer counts must be positive")
        if target.location is not Location.LOCAL:
            raise ConfigError(f"{target} is not local; MOSAIC slices "
                              "within the device")


def finish_pipelined_execution(device, network, segments, procs,
                               nominal_ms, load, accuracy_table, jitters):
    """Complete a sliced local run from per-segment nominals + jitters.

    Shared bit-exact arithmetic for :func:`pipelined_local_execution`
    and :meth:`EdgeCloudEnvironment.execute_pipelined` (see
    :func:`finish_partitioned_execution`).  ``procs`` and ``nominal_ms``
    are aligned with ``segments``; ``jitters`` follows
    :func:`pipeline_jitter_sigmas`.
    """
    latency_ms = 0.0
    busy_mj = 0.0
    segment_times = []
    cursor = 0
    previous_role = None
    for (count, target), proc, segment_nominal_ms, lat_jitter in zip(
            segments, procs, nominal_ms, jitters):
        segment_ms = segment_nominal_ms * lat_jitter
        if previous_role is not None and previous_role != target.role:
            handoff_bytes = network.layers[cursor - 1].output_bytes
            latency_ms += (_HOP_OVERHEAD_MS
                           + handoff_bytes / (_DRAM_COPY_GBPS * 1e6))
        latency_ms += segment_ms
        busy_mj += _processor_energy(proc, segment_ms, target.vf_index)
        segment_times.append(segment_ms)
        previous_role = target.role
        cursor += count

    overhead_mj = platform_energy_mj(device.soc.platform_idle_mw, latency_ms)
    # The host CPU idles whenever a segment runs elsewhere; charge its
    # idle power over the non-CPU fraction of the pipeline (consistent
    # with the whole-model local path).
    cpu_busy_ms = sum(
        seg_ms for seg_ms, (_, target) in zip(segment_times, segments)
        if target.role == "cpu"
    )
    overhead_mj += (device.soc.cpu.idle_power_mw
                    * max(0.0, latency_ms - cpu_busy_ms) / 1000.0)
    estimate_mj = busy_mj + overhead_mj
    truth_mj = (
        busy_mj * _contention_power_factor(load)
        * jitters[len(segments)]
        + overhead_mj
    )
    accuracy = min(
        accuracy_table.lookup(network.name, target.precision)
        for _, target in segments
    )
    description = "+".join(
        f"{count}x{target.role}" for count, target in segments
    )
    return ExecutionResult(
        latency_ms=latency_ms,
        energy_mj=truth_mj,
        estimated_energy_mj=estimate_mj,
        accuracy_pct=accuracy,
        target_key=f"mosaic[{description}]",
        detail={"busy_mj": busy_mj, "segments": float(len(segments))},
    )


def pipelined_local_execution(device, network, segments, load,
                              interference, accuracy_table,
                              rng=None, noise=NoiseConfig()):
    """Contiguous layer segments on different *local* processors.

    This is the execution model of the MOSAIC baseline: a model is sliced
    into contiguous groups, each mapped to one on-device processor, with a
    hand-off cost between consecutive segments.

    Args:
        segments: list of ``(num_layers, ExecutionTarget)`` covering the
            network's layer list in order; all targets must be LOCAL.
    """
    check_segments(network, segments)
    procs = []
    nominal_ms = []
    cursor = 0
    for count, target in segments:
        proc = device.soc.processor(target.role)
        slowdown = interference.slowdown(proc.kind, load)
        nominal_ms.append(proc.layers_latency_ms(
            network.layers[cursor:cursor + count], target.precision,
            target.vf_index, slowdown))
        procs.append(proc)
        cursor += count
    jitters = [_jitter(rng, sigma)
               for sigma in pipeline_jitter_sigmas(noise, len(segments))]
    return finish_pipelined_execution(device, network, segments, procs,
                                      nominal_ms, load, accuracy_table,
                                      jitters)
