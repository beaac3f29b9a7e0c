"""AutoScale's action space.

Actions are the available execution targets (Section IV-A), augmented with
DVFS settings and quantization levels (Section V-C).  The
:class:`ActionSpace` indexes a stable tuple of
:class:`~repro.env.target.ExecutionTarget` so the Q-table can address
actions by integer column.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from repro.common import ConfigError, UnknownKeyError
from repro.env.target import enumerate_targets

__all__ = ["ActionSpace", "intersect_masks"]


def intersect_masks(*masks):
    """The AND of optional boolean action masks (``None`` = everything).

    Returns ``None`` when every mask is ``None`` and the lone mask
    itself when only one is set; otherwise a fresh array.  No input is
    ever written, so callers may pass cached vectors (the brownout
    tiers, :attr:`ActionSpace.local_mask`).  An all-``False`` result is
    passed through as is: selection treats it as no mask.
    """
    combined = None
    for mask in masks:
        if mask is not None:
            combined = mask if combined is None else combined & mask
    return combined


class ActionSpace:
    """An indexed, immutable set of execution targets."""

    def __init__(self, targets):
        self.targets = tuple(targets)
        if not self.targets:
            raise ConfigError("action space cannot be empty")
        self._index = {target.key: i for i, target in enumerate(self.targets)}
        if len(self._index) != len(self.targets):
            raise ConfigError("duplicate targets in action space")

    @classmethod
    def from_environment(cls, environment, with_dvfs=True,
                         with_quantization=True):
        """Build the action space of an :class:`EdgeCloudEnvironment`.

        With both augmentations on (the paper's configuration), the
        Mi8Pro environment yields the paper's 66 actions.
        """
        return cls(enumerate_targets(
            environment.device, environment.cloud, environment.connected,
            with_dvfs=with_dvfs, with_quantization=with_quantization,
        ))

    def __len__(self):
        return len(self.targets)

    def __iter__(self):
        return iter(self.targets)

    def target(self, index):
        """The :class:`ExecutionTarget` at an action index."""
        return self.targets[index]

    def index_of(self, target):
        """The action index of a target (by key)."""
        try:
            return self._index[target.key]
        except KeyError:
            raise UnknownKeyError(f"{target.key} not in this action space") from None

    def __contains__(self, target):
        return getattr(target, "key", None) in self._index

    @cached_property
    def local_mask(self):
        """Read-only boolean mask of the on-device (non-remote) actions."""
        mask = np.array([not target.is_remote for target in self.targets],
                        dtype=bool)
        mask.flags.writeable = False
        return mask

    def positions_in(self, targets):
        """Each action's index within ``targets``, or ``None`` when the
        two orders coincide.

        Nominal sweeps are index-aligned with the environment's full
        ``targets()``; an engine may act over a subset or a reordering.
        Reading a sweep at these positions aligns it with action indices.
        """
        keys = [target.key for target in targets]
        if keys == [target.key for target in self.targets]:
            return None
        index = {key: position for position, key in enumerate(keys)}
        try:
            return np.array([index[target.key] for target in self.targets],
                            dtype=int)
        except KeyError as missing:
            raise UnknownKeyError(
                f"action {missing.args[0]} is not among the given targets"
            ) from None
