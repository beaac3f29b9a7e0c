"""Shared primitives used across the AutoScale reproduction.

Unit conventions (documented in DESIGN.md and enforced by reprolint —
see ``repro.analysis`` and ``docs/static_analysis.md``):

- latency: milliseconds (ms)
- energy: millijoules (mJ)
- power: milliwatts (mW)
- data size: bytes
- data rate: megabits per second (Mbit/s)
- signal strength: dBm (negative; closer to zero is stronger)
- frequency: MHz
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

__all__ = [
    "ReproError",
    "ConfigError",
    "SimulationError",
    "UnknownKeyError",
    "Stopwatch",
    "make_rng",
    "NormalBlock",
    "mj_to_joules",
    "ms_to_seconds",
    "mbits_to_bytes",
    "bytes_to_mbits",
    "ppw_from_energy",
    "clamp",
]

#: Everything accepted as a seed by :func:`make_rng`.
SeedLike = Union[None, int, np.random.Generator]


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class ConfigError(ReproError):
    """Raised when a component is constructed with invalid parameters."""


class SimulationError(ReproError):
    """Raised when a simulation request cannot be executed."""


class UnknownKeyError(ConfigError, KeyError):
    """A lookup by name/key missed (unknown device, scenario, network...).

    Subclasses both :class:`ConfigError` — so ``except ReproError`` still
    catches every library failure — and :class:`KeyError`, preserving the
    builtin contract for callers doing ``except KeyError`` around lookups.
    """

    def __str__(self) -> str:
        # KeyError.__str__ repr()s its argument, which would wrap our
        # messages in quotes; report them like every other ReproError.
        return Exception.__str__(self)


def make_rng(seed: SeedLike = None) -> np.random.Generator:
    """Return a ``numpy.random.Generator``.

    Accepts ``None`` (non-deterministic), an int seed, or an existing
    generator (returned unchanged).  Every stochastic component in the
    library takes its randomness through this funnel so experiments are
    reproducible from a single seed.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


class NormalBlock:
    """A Generator's standard normals drawn ahead in blocks, read in order.

    Stands in for the Generator wherever a model samples through
    ``rng.normal(loc, scale)``: :meth:`normal` returns
    ``loc + scale * z`` for the next value ``z``, the arithmetic
    ``Generator.normal`` applies to its own standard-normal draw, and
    :attr:`standard_normal` hands out the next value itself.  A Generator
    fills an array element by element from the same stream its scalar
    draws read, so reading ``k`` values here yields exactly the ``k``
    values ``k`` scalar draws would.

    The block draws ahead of what is read.  :meth:`sync` puts the
    Generator where ``k`` scalar draws would have left it: it restores
    the bit-generator state saved at construction and redraws the ``k``
    values read (a standard normal may consume more than one raw output,
    so the state cannot be advanced by a count).  Nothing else may draw
    from the Generator between construction and :meth:`sync`.
    """

    def __init__(self, rng: np.random.Generator) -> None:
        self._rng = rng
        self._start_state = rng.bit_generator.state
        self._values: list = []
        self._read_before = 0
        self._reader = iter(self._values)
        #: The next standard normal (raises ``StopIteration`` past the
        #: end of the block; :meth:`extend` first).
        self.standard_normal = self._reader.__next__

    def extend(self, count: int) -> Callable[[], float]:
        """Draw ``count`` more values; returns the new reader."""
        unread = list(self._reader)
        self._read_before += len(self._values) - len(unread)
        self._values = unread + self._rng.standard_normal(count).tolist()
        self._reader = iter(self._values)
        self.standard_normal = self._reader.__next__
        return self.standard_normal

    def normal(self, loc: float = 0.0, scale: float = 1.0) -> float:
        """``Generator.normal(loc, scale)`` from the next value."""
        if scale < 0:
            raise ConfigError(f"normal scale must be >= 0, got {scale}")
        return loc + scale * self.standard_normal()

    @property
    def read_count(self) -> int:
        """Values handed out so far."""
        return (self._read_before + len(self._values)
                - operator.length_hint(self._reader))

    def sync(self) -> None:
        """Leave the Generator as ``read_count`` scalar draws would."""
        read = self.read_count
        self._rng.bit_generator.state = self._start_state
        if read:
            self._rng.standard_normal(read)


def mj_to_joules(energy_mj: float) -> float:
    """Convert millijoules to joules."""
    return energy_mj / 1000.0


def ms_to_seconds(latency_ms: float) -> float:
    """Convert milliseconds to seconds."""
    return latency_ms / 1000.0


def mbits_to_bytes(mbits: float) -> float:
    """Convert megabits to bytes (1 Mbit = 125,000 bytes)."""
    return mbits * 125_000.0


def bytes_to_mbits(num_bytes: float) -> float:
    """Convert bytes to megabits."""
    return num_bytes / 125_000.0


def ppw_from_energy(energy_mj: float) -> float:
    """Performance-per-watt proxy used throughout the paper's figures.

    For a single inference, throughput/power reduces to the reciprocal of
    the energy per inference.  We report inferences per joule; the figures
    always normalize PPW to a named baseline so the absolute scale cancels.
    """
    if energy_mj <= 0:
        raise ConfigError(f"energy must be positive, got {energy_mj}")
    return 1000.0 / energy_mj


def clamp(value: float, low: float, high: float) -> float:
    """Clamp ``value`` into the closed interval [low, high]."""
    if low > high:
        raise ConfigError(f"empty interval [{low}, {high}]")
    return max(low, min(high, value))


@dataclass
class Stopwatch:
    """Accumulates simulated wall-clock time in milliseconds.

    The environment uses one of these to stamp each inference with a
    virtual timestamp, which drives time-varying scenario processes
    (signal-strength random walks, co-runner phase changes).
    """

    now_ms: float = 0.0

    def __post_init__(self) -> None:
        if not math.isfinite(self.now_ms) or self.now_ms < 0:
            raise ConfigError(
                f"stopwatch cannot start at {self.now_ms} ms"
            )

    def advance(self, delta_ms: float) -> float:
        """Move the clock forward; negative deltas are rejected."""
        if delta_ms < 0 or not math.isfinite(delta_ms):
            raise ConfigError(f"cannot advance clock by {delta_ms} ms")
        self.now_ms += delta_ms
        return self.now_ms

    def reset(self) -> None:
        """Rewind the clock to zero (used between experiment episodes)."""
        self.now_ms = 0.0
