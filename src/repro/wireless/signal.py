"""Signal-strength processes.

The paper models signal-strength variance with a Gaussian distribution
(Section V-B, citing [19]) and emulates it by modulating the Wi-Fi AP.
We provide three processes:

- :class:`ConstantSignal` — the static environments (S1, S4, S5);
- :class:`GaussianSignal` — i.i.d. Gaussian RSSI per inference (D3);
- :class:`RandomWalkSignal` — a mean-reverting walk for long episodes
  where consecutive inferences should see correlated signal (used by the
  examples; an extension beyond the paper's setup).

Each process exposes ``sample(rng, now_ms)`` and ``draws_per_sample``,
the most standard-normal draws one sample takes (all through
``rng.normal(loc, scale)``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.common import ConfigError, clamp

__all__ = [
    "STRONG_RSSI_DBM",
    "WEAK_RSSI_DBM_TYPICAL",
    "ConstantSignal",
    "GaussianSignal",
    "RandomWalkSignal",
    "OutageSignal",
]

#: Default RSSI used for a "regular" (strong) link in the scenarios.
STRONG_RSSI_DBM = -55.0
#: Default RSSI used for a "weak" link in the scenarios (below Table I's
#: -80 dBm threshold).
WEAK_RSSI_DBM_TYPICAL = -86.0

_RSSI_FLOOR_DBM = -100.0
_RSSI_CEIL_DBM = -30.0


@dataclass(frozen=True)
class ConstantSignal:
    """Fixed RSSI, for the static environments."""

    rssi_dbm: float = STRONG_RSSI_DBM

    draws_per_sample = 0

    def __post_init__(self):
        if not _RSSI_FLOOR_DBM <= self.rssi_dbm <= _RSSI_CEIL_DBM:
            raise ConfigError(f"implausible RSSI {self.rssi_dbm} dBm")

    def sample(self, rng, now_ms=0.0):
        """RSSI seen by the inference issued at ``now_ms``."""
        return self.rssi_dbm


@dataclass(frozen=True)
class GaussianSignal:
    """Independent Gaussian RSSI per inference (scenario D3)."""

    mean_dbm: float = -72.0
    std_db: float = 9.0

    draws_per_sample = 1

    def __post_init__(self):
        if self.std_db < 0:
            raise ConfigError(f"negative std {self.std_db}")
        if not _RSSI_FLOOR_DBM <= self.mean_dbm <= _RSSI_CEIL_DBM:
            raise ConfigError(f"implausible mean RSSI {self.mean_dbm} dBm")

    def sample(self, rng, now_ms=0.0):
        value = rng.normal(self.mean_dbm, self.std_db)
        return clamp(value, _RSSI_FLOOR_DBM, _RSSI_CEIL_DBM)


@dataclass
class RandomWalkSignal:
    """Mean-reverting (Ornstein-Uhlenbeck-style) RSSI walk.

    Models a user walking around: RSSI drifts smoothly instead of jumping
    independently every inference.
    """

    mean_dbm: float = -70.0
    std_db: float = 10.0
    reversion: float = 0.05
    _state: float = field(default=None, repr=False)

    draws_per_sample = 1

    def __post_init__(self):
        if not 0.0 < self.reversion <= 1.0:
            raise ConfigError(f"reversion outside (0, 1]: {self.reversion}")
        if self.std_db < 0:
            raise ConfigError(f"negative std {self.std_db}")
        if self._state is None:
            self._state = self.mean_dbm

    def sample(self, rng, now_ms=0.0):
        noise = rng.normal(0.0, self.std_db * (2 * self.reversion) ** 0.5)
        self._state += self.reversion * (self.mean_dbm - self._state) + noise
        self._state = clamp(self._state, _RSSI_FLOOR_DBM, _RSSI_CEIL_DBM)
        return self._state

    def reset(self):
        """Return the walk to its mean (between experiment episodes)."""
        self._state = self.mean_dbm


@dataclass(frozen=True)
class OutageSignal:
    """Failure injection: a base signal with periodic dead windows.

    During an outage window the RSSI collapses to the floor (-100 dBm),
    which drives the link's data rate to its minimum and its latency off
    the chart — the radio-level rendering of "the AP went away".  Used to
    test that a trained engine *re-learns* away from remote targets when
    connectivity dies (elevator rides, subway tunnels, AP reboots).
    """

    base: object = field(default_factory=ConstantSignal)
    period_ms: float = 120_000.0
    outage_ms: float = 30_000.0
    outage_rssi_dbm: float = -100.0

    def __post_init__(self):
        if self.period_ms <= 0:
            raise ConfigError(f"period must be positive: {self.period_ms}")
        if not 0.0 < self.outage_ms < self.period_ms:
            raise ConfigError(
                f"outage window {self.outage_ms} must sit inside the "
                f"period {self.period_ms}"
            )
        if not _RSSI_FLOOR_DBM <= self.outage_rssi_dbm <= _RSSI_CEIL_DBM:
            raise ConfigError(
                f"implausible outage RSSI {self.outage_rssi_dbm} dBm"
            )

    @property
    def draws_per_sample(self):
        return getattr(self.base, "draws_per_sample", None)

    def in_outage(self, now_ms):
        """Whether ``now_ms`` falls inside a dead window."""
        return (now_ms % self.period_ms) < self.outage_ms

    def sample(self, rng, now_ms=0.0):
        if self.in_outage(now_ms):
            return self.outage_rssi_dbm
        return self.base.sample(rng, now_ms)
