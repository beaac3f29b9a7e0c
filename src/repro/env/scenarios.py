"""The DNN inference execution environments of Table IV.

Static (the runtime variance is held fixed):

- **S1** — no runtime variance;
- **S2** — CPU-intensive co-running app;
- **S3** — memory-intensive co-running app;
- **S4** — weak Wi-Fi signal;
- **S5** — weak Wi-Fi Direct signal.

Dynamic (the variance itself varies over time):

- **D1** — co-running app: music player;
- **D2** — co-running app: web browser;
- **D3** — random (Gaussian) Wi-Fi signal;
- **D4** — co-running apps switching over time.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common import ConfigError, UnknownKeyError
from repro.interference.corunner import (
    SwitchingCoRunner,
    cpu_intensive_corunner,
    memory_intensive_corunner,
    music_player,
    no_corunner,
    web_browser,
)
from repro.wireless.signal import (
    STRONG_RSSI_DBM,
    WEAK_RSSI_DBM_TYPICAL,
    ConstantSignal,
    GaussianSignal,
)

__all__ = [
    "Scenario",
    "build_scenario",
    "SCENARIO_NAMES",
    "STATIC_SCENARIOS",
    "DYNAMIC_SCENARIOS",
]


@dataclass(frozen=True)
class Scenario:
    """One Table-IV environment: a co-runner plus two signal processes."""

    name: str
    description: str
    corunner: object
    wlan_signal: object
    p2p_signal: object
    dynamic: bool = False

    def __post_init__(self):
        if not self.name:
            raise ConfigError("scenario needs a name")

    @property
    def draws_per_sample(self):
        """The most standard-normal draws one :meth:`sample` takes.

        ``None`` when a component does not declare its count.
        """
        counts = [getattr(part, "draws_per_sample", None)
                  for part in (self.corunner, self.wlan_signal,
                               self.p2p_signal)]
        return None if None in counts else sum(counts)

    def sample(self, rng, now_ms=0.0):
        """Draw (co-runner load, WLAN RSSI, P2P RSSI) at ``now_ms``."""
        load = self.corunner.sample(rng, now_ms)
        return (
            load,
            self.wlan_signal.sample(rng, now_ms),
            self.p2p_signal.sample(rng, now_ms),
        )


def _strong():
    return ConstantSignal(STRONG_RSSI_DBM)


def _weak():
    return ConstantSignal(WEAK_RSSI_DBM_TYPICAL)


_BUILDERS = {
    "S1": lambda: Scenario(
        "S1", "no runtime variance",
        no_corunner(), _strong(), _strong()),
    "S2": lambda: Scenario(
        "S2", "CPU-intensive co-running app",
        cpu_intensive_corunner(), _strong(), _strong()),
    "S3": lambda: Scenario(
        "S3", "memory-intensive co-running app",
        memory_intensive_corunner(), _strong(), _strong()),
    "S4": lambda: Scenario(
        "S4", "weak Wi-Fi signal",
        no_corunner(), _weak(), _strong()),
    "S5": lambda: Scenario(
        "S5", "weak Wi-Fi Direct signal",
        no_corunner(), _strong(), _weak()),
    "D1": lambda: Scenario(
        "D1", "co-running app: music player",
        music_player(), _strong(), _strong(), dynamic=True),
    "D2": lambda: Scenario(
        "D2", "co-running app: web browser",
        web_browser(), _strong(), _strong(), dynamic=True),
    "D3": lambda: Scenario(
        "D3", "random Wi-Fi signal",
        no_corunner(), GaussianSignal(mean_dbm=-72.0, std_db=9.0),
        _strong(), dynamic=True),
    "D4": lambda: Scenario(
        "D4", "varying co-running apps",
        SwitchingCoRunner("music_then_browser",
                          (music_player(), web_browser()),
                          switch_every_ms=60_000.0),
        _strong(), _strong(), dynamic=True),
}

SCENARIO_NAMES = tuple(_BUILDERS)
STATIC_SCENARIOS = tuple(n for n in SCENARIO_NAMES if n.startswith("S"))
DYNAMIC_SCENARIOS = tuple(n for n in SCENARIO_NAMES if n.startswith("D"))


def build_scenario(name):
    """Build a Table-IV environment by its id (``"S1"`` ... ``"D4"``)."""
    try:
        return _BUILDERS[name]()
    except KeyError:
        raise UnknownKeyError(
            f"unknown scenario {name!r}; choose from {SCENARIO_NAMES}"
        ) from None
