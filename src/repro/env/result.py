"""Execution results returned by the simulator."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict

from repro.analysis.contracts import (
    ensure_energy_mj,
    ensure_finite,
    ensure_latency_ms,
)
from repro.common import ConfigError, ppw_from_energy

__all__ = ["ExecutionResult"]

_INF = math.inf


@dataclass(frozen=True)
class ExecutionResult:
    """The measured outcome of one inference execution.

    Attributes:
        latency_ms: end-to-end inference latency (``R_latency``).
        energy_mj: ground-truth mobile-system energy for the inference —
            what the Monsoon power meter would have integrated.
        estimated_energy_mj: AutoScale's ``R_energy`` estimate, computed
            from the measured latency via equations (1)-(4); its gap to
            ``energy_mj`` is the estimator error (paper MAPE: 7.3%).
        accuracy_pct: the pre-measured inference accuracy of the network
            at the executed precision (``R_accuracy``).
        target_key: the executed :class:`ExecutionTarget`'s key, or a
            description for partitioned executions.
        detail: per-phase breakdown (compute/tx/rx/rtt times, slowdowns,
            per-component energies) for analysis and tests.
    """

    latency_ms: float
    energy_mj: float
    estimated_energy_mj: float
    accuracy_pct: float
    target_key: str
    detail: Dict[str, float] = field(default_factory=dict)

    #: Class-level discriminators shared with
    #: :class:`repro.faults.FailedAttempt` (``failed = True``) and
    #: :class:`repro.serving.shedder.SheddedRequest` (``shed = True``):
    #: every serve outcome carries both flags as typed attributes, so
    #: consumers branch on ``outcome.failed`` / ``outcome.shed``
    #: directly instead of duck-typing through ``getattr`` defaults.
    failed = False
    shed = False

    def __post_init__(self):
        # One straight-line test per result: ``0 < x < inf`` holds only
        # for a finite positive number (NaN fails every comparison).
        # Anything else takes the per-field path below, which raises.
        try:
            valid = (0.0 < self.latency_ms < _INF
                     and 0.0 < self.energy_mj < _INF
                     and 0.0 < self.estimated_energy_mj < _INF
                     and 0.0 <= self.accuracy_pct <= 100.0)
        except TypeError:
            valid = False
        if not valid:
            self._reject()

    def _reject(self):
        # Finiteness first: NaN slips through plain comparisons (``nan
        # <= 0`` is False), and a NaN latency here would silently poison
        # every downstream benchmark figure.
        ensure_latency_ms(self.latency_ms, "latency_ms")
        ensure_energy_mj(self.energy_mj, "energy_mj")
        ensure_energy_mj(self.estimated_energy_mj, "estimated_energy_mj")
        if self.energy_mj <= 0 or self.estimated_energy_mj <= 0:
            raise ConfigError("non-positive energy")
        ensure_finite(self.accuracy_pct, "accuracy_pct")
        if not 0.0 <= self.accuracy_pct <= 100.0:
            raise ConfigError(f"accuracy outside [0, 100]: "
                              f"{self.accuracy_pct}")

    @property
    def ppw(self):
        """Performance per watt (inferences per joule); see DESIGN.md."""
        return ppw_from_energy(self.energy_mj)

    def meets_qos(self, qos_ms):
        return self.latency_ms <= qos_ms
