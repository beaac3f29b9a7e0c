"""Contention model: how co-runner load slows each processor class down.

Reproduces the two effects of Fig. 5:

- a **CPU-intensive** co-runner hurts CPU inference badly — time-sharing of
  the big cores plus thermal throttling — while only mildly affecting GPU
  and DSP execution (their kernels are fed by a lightly loaded CPU thread);
- a **memory-intensive** co-runner hurts *all* on-device processors,
  because inference competes with it for DRAM bandwidth; memory-bound
  layers (FC/RC) suffer most, but we apply a single per-network factor for
  simplicity since the paper reports whole-network effects.

The model produces a latency multiplier (>= 1).  Remote execution targets
are unaffected: the paper's interference lives on the user's phone.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.common import ConfigError
from repro.hardware.processor import ProcessorKind
from repro.hardware.thermal import ThermalModel

__all__ = ["InterferenceModel"]


@dataclass(frozen=True)
class InterferenceModel:
    """Translates co-runner load into per-processor slowdowns.

    Attributes:
        cpu_share: fraction of CPU time effectively stolen per unit of
            co-runner CPU utilization (time-sharing intensity).
        mem_penalty: per-kind latency penalty per unit of co-runner memory
            utilization.
        cpu_feed_penalty: GPU/DSP penalty per unit co-runner CPU load (the
            host thread that feeds kernels gets descheduled).
        inference_cpu_util: CPU utilization of the inference itself when it
            runs on the CPU (drives thermal throttling).
        host_cpu_util: CPU utilization of the host thread when inference
            runs on a co-processor.
        thermal: the throttling model (shared with the SoC).
    """

    cpu_share: float = 0.55
    mem_penalty: float = None
    cpu_feed_penalty: float = 0.08
    inference_cpu_util: float = 1.0
    host_cpu_util: float = 0.10
    thermal: ThermalModel = field(default_factory=ThermalModel)

    def __post_init__(self):
        if not 0.0 <= self.cpu_share < 1.0:
            raise ConfigError(f"cpu_share outside [0, 1): {self.cpu_share}")
        if self.mem_penalty is None:
            object.__setattr__(self, "mem_penalty", {
                ProcessorKind.CPU: 1.00,
                ProcessorKind.GPU: 1.10,
                ProcessorKind.DSP: 0.90,
                ProcessorKind.NPU: 0.95,
            })
        for kind, value in self.mem_penalty.items():
            if value < 0:
                raise ConfigError(f"negative mem penalty for {kind}")

    def slowdown(self, kind, load):
        """Latency multiplier for an inference on ``kind`` under ``load``.

        Args:
            kind: the :class:`ProcessorKind` running the inference.
            load: anything with ``cpu_util``/``mem_util`` — a
                :class:`~repro.interference.corunner.CoRunnerLoad`, or
                the :class:`~repro.env.observation.Observation` itself.
        """
        mem_factor = 1.0 + self.mem_penalty[kind] * load.mem_util
        if kind is ProcessorKind.CPU:
            sharing = 1.0 / (1.0 - self.cpu_share * load.cpu_util)
            throttle = self.thermal.slowdown(
                self.inference_cpu_util, load.cpu_util
            )
            return sharing * throttle * mem_factor
        feed = 1.0 + self.cpu_feed_penalty * load.cpu_util
        throttle = self.thermal.slowdown(self.host_cpu_util, load.cpu_util)
        return feed * throttle * mem_factor

    def transmission_slowdown(self, load):
        """Latency multiplier on radio transfers under co-runner load.

        The network stack runs on the contended CPU and buffers through
        the contended memory system, so offloading is not entirely free
        of on-device interference either.
        """
        return 1.0 + 0.25 * load.cpu_util + 0.15 * load.mem_util
