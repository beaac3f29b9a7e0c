"""Processor performance model.

Each processor is described by an effective peak throughput (GMACs/s at its
top frequency, FP32), a V/F table, per-precision throughput multipliers,
and per-layer-type efficiency factors.  The layer-type factors encode the
paper's Fig. 3 observation: throughput-oriented co-processors (GPU, DSP)
excel at CONV layers but fall behind the CPU on memory-bound FC and RC
layers, so a network's layer composition decides its best local target.

Latency of a layer on a processor at a chosen V/F step and precision:

    t = macs / (peak * (f / f_max) * precision_mult * layer_eff) + dispatch

where ``dispatch`` is a fixed per-layer launch overhead (kernel launches on
co-processors are much more expensive than function calls on the CPU).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Tuple

from repro.common import ConfigError
from repro.hardware.dvfs import VFStep
from repro.models.layers import LayerType
from repro.models.quantization import Precision

__all__ = ["ProcessorKind", "Processor"]


class ProcessorKind(enum.Enum):
    """Processor classes appearing in the edge-cloud system (Section IV-A).

    NPU covers the paper's proposed action-space extensions ("additional
    actions, such as mobile NPU or cloud TPU, could be further
    considered", Section V-C): dedicated matrix engines, whether a mobile
    NPU or a server TPU.
    """

    CPU = "cpu"
    GPU = "gpu"
    DSP = "dsp"
    NPU = "npu"


# Default per-layer-type efficiency (fraction of peak MAC throughput)
# per processor class.  CPUs handle everything acceptably; GPUs/DSPs are
# CONV machines that stall on memory-bound FC/RC layers (Fig. 3).
_DEFAULT_LAYER_EFFICIENCY = {
    ProcessorKind.CPU: {
        LayerType.CONV: 0.70, LayerType.FC: 0.75, LayerType.RC: 0.60,
        LayerType.POOL: 0.50, LayerType.NORM: 0.50,
        LayerType.SOFTMAX: 0.60, LayerType.ARGMAX: 0.60,
        LayerType.DROPOUT: 0.80,
    },
    ProcessorKind.GPU: {
        LayerType.CONV: 0.95, LayerType.FC: 0.22, LayerType.RC: 0.12,
        LayerType.POOL: 0.85, LayerType.NORM: 0.80,
        LayerType.SOFTMAX: 0.40, LayerType.ARGMAX: 0.40,
        LayerType.DROPOUT: 0.90,
    },
    ProcessorKind.DSP: {
        LayerType.CONV: 0.90, LayerType.FC: 0.18, LayerType.RC: 0.08,
        LayerType.POOL: 0.75, LayerType.NORM: 0.70,
        LayerType.SOFTMAX: 0.35, LayerType.ARGMAX: 0.35,
        LayerType.DROPOUT: 0.85,
    },
    # NPUs are systolic matrix engines: excellent CONV *and* decent
    # FC/RC throughput (weights stream through the array), weak on the
    # odd scalar-ish tail layers.
    ProcessorKind.NPU: {
        LayerType.CONV: 0.95, LayerType.FC: 0.35, LayerType.RC: 0.20,
        LayerType.POOL: 0.60, LayerType.NORM: 0.55,
        LayerType.SOFTMAX: 0.25, LayerType.ARGMAX: 0.25,
        LayerType.DROPOUT: 0.80,
    },
}

# Per-layer dispatch overhead in ms: CPU calls are cheap, GPU kernel
# launches and DSP DMA set-up are not.
_DEFAULT_DISPATCH_MS = {
    ProcessorKind.CPU: 0.03,
    ProcessorKind.GPU: 0.12,
    ProcessorKind.DSP: 0.10,
    ProcessorKind.NPU: 0.08,
}


@dataclass(frozen=True)
class Processor:
    """One execution engine inside a device.

    Attributes:
        name: e.g. ``"cortex_a75"`` or ``"adreno_630"``.
        kind: CPU / GPU / DSP.
        vf_table: ascending V/F steps; single-entry for fixed-clock parts
            (the paper's DSPs do not support DVFS).
        peak_gmacs: effective FP32 GMAC/s throughput at the top V/F step.
        precisions: map of supported :class:`Precision` to the *total*
            throughput multiplier at that precision (relative to FP32).
        busy_power_mw: power at 100% utilization at the top V/F step.
        idle_power_mw: power when the unit is idle but powered.
        num_cores: parallel cores (CPU clusters); used by the
            utilization-based power model of eq. (1).
        layer_efficiency: per-:class:`LayerType` fraction of peak
            throughput; defaults per processor class.
        dispatch_ms: fixed per-layer launch overhead.
    """

    name: str
    kind: ProcessorKind
    vf_table: Tuple[VFStep, ...]
    peak_gmacs: float
    precisions: Dict[Precision, float]
    busy_power_mw: float
    idle_power_mw: float
    num_cores: int = 1
    layer_efficiency: Dict[LayerType, float] = field(default=None)
    dispatch_ms: float = field(default=None)

    def __post_init__(self):
        if not self.vf_table:
            raise ConfigError(f"{self.name}: empty V/F table")
        freqs = [step.freq_mhz for step in self.vf_table]
        if freqs != sorted(freqs):
            raise ConfigError(f"{self.name}: V/F table must be ascending")
        if self.peak_gmacs <= 0:
            raise ConfigError(f"{self.name}: peak_gmacs must be positive")
        if not self.precisions:
            raise ConfigError(f"{self.name}: supports no precision")
        if Precision.FP32 in self.precisions:
            if abs(self.precisions[Precision.FP32] - 1.0) > 1e-9:
                raise ConfigError(
                    f"{self.name}: FP32 multiplier must be 1.0 by definition"
                )
        if self.busy_power_mw <= self.idle_power_mw:
            raise ConfigError(
                f"{self.name}: busy power must exceed idle power"
            )
        if self.num_cores < 1:
            raise ConfigError(f"{self.name}: num_cores must be >= 1")
        if self.layer_efficiency is None:
            object.__setattr__(
                self, "layer_efficiency",
                dict(_DEFAULT_LAYER_EFFICIENCY[self.kind]),
            )
        if self.dispatch_ms is None:
            object.__setattr__(
                self, "dispatch_ms", _DEFAULT_DISPATCH_MS[self.kind]
            )

    # ------------------------------------------------------------------
    # DVFS helpers
    # ------------------------------------------------------------------

    @property
    def num_vf_steps(self):
        return len(self.vf_table)

    @property
    def max_freq_mhz(self):
        return self.vf_table[-1].freq_mhz

    @property
    def supports_dvfs(self):
        return len(self.vf_table) > 1

    def supports(self, precision):
        return precision in self.precisions

    # ------------------------------------------------------------------
    # Latency model
    # ------------------------------------------------------------------

    def throughput_gmacs(self, precision, vf_index=-1):
        """Effective GMAC/s at a precision and V/F step (before layer eff)."""
        if not self.supports(precision):
            raise ConfigError(
                f"{self.name} does not support {precision}"
            )
        step = self.vf_table[vf_index]
        vf_scale = step.freq_mhz / self.max_freq_mhz
        return self.peak_gmacs * vf_scale * self.precisions[precision]

    def layer_latency_ms(self, layer, precision, vf_index=-1,
                         slowdown=1.0):
        """Latency of one layer, including dispatch overhead.

        ``slowdown`` >= 1 multiplies the compute time; the interference
        model uses it to express contention and thermal throttling.
        """
        if slowdown < 1.0:
            raise ConfigError(f"slowdown must be >= 1, got {slowdown}")
        efficiency = self.layer_efficiency.get(layer.kind, 0.5)
        gmacs_per_s = self.throughput_gmacs(precision, vf_index) * efficiency
        compute_ms = (layer.macs / 1e9) / gmacs_per_s * 1000.0
        return compute_ms * slowdown + self.dispatch_ms

    def network_latency_ms(self, network, precision, vf_index=-1,
                           slowdown=1.0):
        """Latency of a full network (sum over layers)."""
        return sum(
            self.layer_latency_ms(layer, precision, vf_index, slowdown)
            for layer in network.layers
        )

    def layers_latency_ms(self, layers, precision, vf_index=-1,
                          slowdown=1.0):
        """Latency of an arbitrary layer slice (partitioned execution)."""
        return sum(
            self.layer_latency_ms(layer, precision, vf_index, slowdown)
            for layer in layers
        )

    # ------------------------------------------------------------------
    # Power helpers (used by the eq. 1-3 energy models in ``power.py``)
    # ------------------------------------------------------------------

    def busy_power_at(self, vf_index=-1):
        """Busy power (mW) at a V/F step.

        Dynamic power scales with V^2 * f; the static share (approximated
        by the idle power) does not scale.
        """
        step = self.vf_table[vf_index]
        top = self.vf_table[-1]
        scale = (
            (step.voltage_v / top.voltage_v) ** 2
            * (step.freq_mhz / top.freq_mhz)
        )
        dynamic = self.busy_power_mw - self.idle_power_mw
        return self.idle_power_mw + dynamic * scale
