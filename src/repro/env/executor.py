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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.common import ConfigError
from repro.env.result import ExecutionResult
from repro.env.target import ExecutionTarget, Location
from repro.hardware.power import (
    cpu_energy_mj,
    dsp_energy_mj,
    gpu_energy_mj,
    platform_energy_mj,
)
from repro.hardware.processor import ProcessorKind
from repro.wireless.energy import transmission_energy_mj

__all__ = [
    "NoiseConfig",
    "jitter_plan",
    "finish_local_execution",
    "finish_remote_execution",
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


def finish_local_execution(device, proc, network, target, load,
                           accuracy_table, nominal_ms, slowdown,
                           lat_jitter, pwr_jitter):
    """Complete a local execution from its nominal components + jitters.

    The arithmetic here is the *single source of truth* shared by
    :func:`local_execution` (which walks the layers for the nominal and
    draws the jitters itself) and the environment's execution path
    (:meth:`EdgeCloudEnvironment.execute`, which reads the nominal from
    the exact layer-term cache and draws the jitters in one call) — so
    the two are bit-identical by construction.  ``load`` only feeds the
    contention power factor, so any object with ``cpu_util``/``mem_util``
    (a ``CoRunnerLoad`` or an ``Observation``) works.
    """
    latency_ms = nominal_ms * lat_jitter
    busy_mj = _processor_energy(proc, latency_ms, target.vf_index)
    overhead_mj = _host_overheads_mj(device, latency_ms, target.role)
    estimate_mj = busy_mj + overhead_mj
    truth_mj = (
        busy_mj * _contention_power_factor(load)
        * pwr_jitter
        + overhead_mj
    )
    return ExecutionResult(
        latency_ms=latency_ms,
        energy_mj=truth_mj,
        estimated_energy_mj=estimate_mj,
        accuracy_pct=accuracy_table.lookup(network.name, target.precision),
        target_key=target.key,
        detail={
            "compute_ms": latency_ms,
            "slowdown": slowdown,
            "busy_mj": busy_mj,
        },
    )


def local_execution(device, network, target, load, interference,
                    accuracy_table, rng=None, noise=NoiseConfig()):
    """Run an inference entirely on one of the device's processors."""
    if target.location is not Location.LOCAL:
        raise ConfigError(f"{target} is not a local target")
    proc = device.soc.processor(target.role)
    slowdown = interference.slowdown(proc.kind, load)
    nominal_ms = proc.network_latency_ms(
        network, target.precision, target.vf_index, slowdown
    )
    # Draw order (the environment's contract): latency, then power.
    lat_jitter = _jitter(rng, noise.latency_sigma)
    pwr_jitter = _jitter(rng, noise.power_sigma)
    return finish_local_execution(
        device, proc, network, target, load, accuracy_table,
        nominal_ms, slowdown, lat_jitter, pwr_jitter,
    )


def finish_remote_execution(device, network, target, link, rssi_dbm,
                            accuracy_table, remote_nominal_ms, tx_base_ms,
                            rx_base_ms, rtt_base_ms, tx_slow, jitters):
    """Complete a remote execution from its nominal components + jitters.

    Shared bit-exact arithmetic for :func:`remote_execution` and the
    environment's execution path (see :func:`finish_local_execution`).
    ``jitters`` is the 5-tuple ``(server, tx, rx, rtt, power)`` in the
    scalar draw order; the ``*_base_ms`` values are the load- and
    noise-free link/remote nominals :func:`remote_execution` computes
    inline.
    """
    server_jitter, tx_jitter, rx_jitter, rtt_jitter, pwr_jitter = jitters
    remote_ms = remote_nominal_ms * server_jitter
    tx_ms = tx_base_ms * tx_slow * tx_jitter
    rx_ms = rx_base_ms * tx_slow * rx_jitter
    rtt_ms = rtt_base_ms * rtt_jitter
    latency_ms = tx_ms + rtt_ms + remote_ms + rx_ms

    radio = transmission_energy_mj(
        link, rssi_dbm, network.input_bytes, network.output_bytes,
        latency_ms, tx_ms=tx_ms, rx_ms=rx_ms,
    )
    overhead_mj = platform_energy_mj(
        device.soc.platform_idle_mw, latency_ms
    ) + device.soc.cpu.idle_power_mw * latency_ms / 1000.0
    estimate_mj = radio.radio_energy_mj + overhead_mj
    truth_mj = (
        radio.radio_energy_mj * pwr_jitter
        + overhead_mj
    )
    return ExecutionResult(
        latency_ms=latency_ms,
        energy_mj=truth_mj,
        estimated_energy_mj=estimate_mj,
        accuracy_pct=accuracy_table.lookup(network.name, target.precision),
        target_key=target.key,
        detail={
            "tx_ms": tx_ms,
            "rx_ms": rx_ms,
            "rtt_ms": rtt_ms,
            "remote_ms": remote_ms,
            "radio_mj": radio.radio_energy_mj,
        },
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
    if not target.is_remote:
        raise ConfigError(f"{target} is not a remote target")
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
    return finish_remote_execution(
        device, network, target, link, rssi_dbm, accuracy_table,
        remote_nominal_ms, tx_base_ms, rx_base_ms, rtt_base_ms,
        tx_slow, jitters,
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
