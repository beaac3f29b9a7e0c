"""What AutoScale can see before each inference.

The paper's engine reads co-runner CPU/memory usage through procfs/sysfs
and the two radios' RSSI through kernel APIs (footnote 7).  An
:class:`Observation` bundles exactly those raw readings; the state
discretizer in ``repro.core.state`` maps them to Table I's bins.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common import ConfigError

__all__ = ["Observation", "sample_observation"]


@dataclass(frozen=True)
class Observation:
    """Raw runtime-variance readings at the moment an inference is issued.

    Attributes:
        cpu_util: co-running applications' CPU utilization in [0, 1].
        mem_util: co-running applications' memory usage in [0, 1].
        rssi_wlan_dbm: RSSI of the WLAN (Wi-Fi) radio.
        rssi_p2p_dbm: RSSI of the peer-to-peer (Wi-Fi Direct) radio.
        now_ms: virtual timestamp of the observation.
    """

    cpu_util: float = 0.0
    mem_util: float = 0.0
    rssi_wlan_dbm: float = -55.0
    rssi_p2p_dbm: float = -55.0
    now_ms: float = 0.0

    def __post_init__(self):
        # One straight-line test per construction; NaN fails every
        # comparison, so it lands in the per-field path, which raises.
        if not (0.0 <= self.cpu_util <= 1.0 and 0.0 <= self.mem_util <= 1.0
                and -120.0 <= self.rssi_wlan_dbm <= -10.0
                and -120.0 <= self.rssi_p2p_dbm <= -10.0):
            self._reject()

    def _reject(self):
        for name, value in (("cpu_util", self.cpu_util),
                            ("mem_util", self.mem_util)):
            if not 0.0 <= value <= 1.0:
                raise ConfigError(f"{name} outside [0, 1]: {value}")
        for name, value in (("rssi_wlan_dbm", self.rssi_wlan_dbm),
                            ("rssi_p2p_dbm", self.rssi_p2p_dbm)):
            if not -120.0 <= value <= -10.0:
                raise ConfigError(f"implausible {name}: {value} dBm")


def sample_observation(scenario, rng, now_ms):
    """The readings a scenario produces at ``now_ms``.

    ``rng`` is the environment's Generator or a
    :class:`~repro.common.NormalBlock` drawn from it; the scenario's
    compiled :attr:`~repro.env.scenarios.Scenario.readings` sample the
    same way from either.
    """
    cpu_util, mem_util, rssi_wlan_dbm, rssi_p2p_dbm = scenario.readings(
        rng, now_ms)
    return Observation(cpu_util, mem_util, rssi_wlan_dbm, rssi_p2p_dbm,
                       now_ms)
