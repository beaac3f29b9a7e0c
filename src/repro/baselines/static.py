"""The paper's static baseline policies (Section V-A).

- **Edge (CPU FP32)** — always the local CPU at full clock, FP32; the
  normalization baseline of every figure.
- **Edge (Best)** — the most energy-efficient *local* processor for the
  network (chosen once per use case from nominal quiescent profiles, at
  the top V/F step — the standard governor behaviour).
- **Cloud** — always offload to the cloud (best server processor for the
  network, chosen from nominal profiles).
- **Connected Edge** — always offload to the locally connected device.
"""

from __future__ import annotations

import weakref

from repro.baselines.base import Scheduler
from repro.common import SimulationError
from repro.env.observation import Observation
from repro.env.target import Location
from repro.models.quantization import Precision

__all__ = [
    "EdgeCpuFp32",
    "EdgeBest",
    "CloudOffload",
    "ConnectedEdgeOffload",
]


#: environment -> {location: top-V/F targets}; an environment's action
#: space is fixed at construction, so each set is filtered once.
_TOP_VF_TARGETS: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def _top_vf_targets(environment, location):
    """The location's targets with local DVFS pinned to the top step.

    Computed once per (environment, location) and returned as a tuple.
    """
    by_location = _TOP_VF_TARGETS.get(environment)
    if by_location is None:
        by_location = _TOP_VF_TARGETS[environment] = {}
    targets = by_location.get(location)
    if targets is None:
        chosen = {}
        for target in environment.targets():
            if target.location is not location:
                continue
            slot = (target.role, target.precision)
            best = chosen.get(slot)
            if best is None or target.vf_index > best.vf_index:
                chosen[slot] = target
        targets = by_location[location] = tuple(chosen.values())
    return targets


def _quiescent_observation(observation):
    """The same radio conditions with no co-runner (profile-time view)."""
    return Observation(
        cpu_util=0.0, mem_util=0.0,
        rssi_wlan_dbm=observation.rssi_wlan_dbm,
        rssi_p2p_dbm=observation.rssi_p2p_dbm,
        now_ms=observation.now_ms,
    )


def _nominal_best(environment, use_case, observation, candidates):
    """Feasibility-first min-energy candidate under the nominal model.

    Uses one ``estimate_all`` sweep when the environment provides it
    (candidates index into the sweep, no scalar ``estimate`` loop);
    otherwise falls back to per-candidate scalar estimates.  Returns
    ``None`` when no candidate is accuracy-feasible.
    """
    estimate_all = getattr(environment, "estimate_all", None)
    if estimate_all is not None:
        sweep = estimate_all(use_case.network, observation)
        index = sweep.argbest(
            use_case,
            indices=[sweep.index_of(target) for target in candidates],
        )
        return None if index is None else sweep.targets[index]
    best, best_rank = None, None
    for target in candidates:
        result = environment.estimate(use_case.network, target, observation)
        if not use_case.meets_accuracy(result.accuracy_pct):
            continue
        # Feasible options sort before infeasible; energy breaks ties.
        rank = (not use_case.meets_qos(result.latency_ms),
                result.energy_mj)
        if best_rank is None or rank < best_rank:
            best, best_rank = target, rank
    return best


class EdgeCpuFp32(Scheduler):
    """Always the local CPU, FP32, full clock."""

    name = "edge_cpu_fp32"

    def select(self, environment, use_case, observation):
        for target in _top_vf_targets(environment, Location.LOCAL):
            if target.role == "cpu" and target.precision is Precision.FP32:
                return target
        raise SimulationError("environment has no local CPU FP32 target")


class EdgeBest(Scheduler):
    """The most energy-efficient local processor per network.

    Chosen from nominal quiescent profiles (no co-runner), preferring
    QoS- and accuracy-satisfying options, exactly how a vendor would
    statically map a model to the best on-device engine.  The choice is
    static per use case — it cannot react to runtime variance, which is
    what Fig. 5 punishes it for.
    """

    name = "edge_best"

    def __init__(self):
        self._choice = {}

    def select(self, environment, use_case, observation):
        key = use_case.name
        if key not in self._choice:
            self._choice[key] = self._profile(environment, use_case,
                                              observation)
        return self._choice[key]

    def _profile(self, environment, use_case, observation):
        quiet = _quiescent_observation(observation)
        best = _nominal_best(environment, use_case, quiet,
                             _top_vf_targets(environment, Location.LOCAL))
        if best is None:
            raise SimulationError(
                f"no accuracy-feasible local target for {use_case.name}"
            )
        return best


class _RemoteOffload(Scheduler):
    """Shared logic: always offload to one remote location."""

    location = None

    def __init__(self):
        self._choice = {}

    def select(self, environment, use_case, observation):
        key = use_case.name
        if key not in self._choice:
            self._choice[key] = self._profile(environment, use_case,
                                              observation)
        return self._choice[key]

    def _profile(self, environment, use_case, observation):
        quiet = _quiescent_observation(observation)
        candidates = [target for target in environment.targets()
                      if target.location is self.location]
        best = _nominal_best(environment, use_case, quiet, candidates)
        if best is None:
            raise SimulationError(
                f"no {self.location.value} target for {use_case.name}"
            )
        return best


class CloudOffload(_RemoteOffload):
    """Always run inference in the cloud."""

    name = "cloud"
    location = Location.CLOUD


class ConnectedEdgeOffload(_RemoteOffload):
    """Always run inference on the locally connected edge device."""

    name = "connected_edge"
    location = Location.CONNECTED
