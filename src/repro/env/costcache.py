"""Batched nominal-cost engine for the oracle/baseline hot path.

Every figure benchmark and the Opt oracle's footnote-8 construction sweep
the full ~66-target action space through the nominal model for each
observation.  Doing that one scalar :meth:`EdgeCloudEnvironment.estimate`
call at a time costs ~66 Python call chains, so the nominal model — not
the learner — dominates wall-clock.  This module evaluates **all**
targets for one ``(network, observation)`` in a single vectorized numpy
pass:

- per-``(network, role, precision, vf_index)`` nominal latencies and the
  eq. (1)-(3) busy powers are folded into dense per-target arrays once
  (the device/link arrays at engine construction, the network arrays on
  the first sweep of that network);
- a sweep then costs a handful of numpy operations over those arrays plus
  four scalar interference-model calls, instead of ~66 Python call chains;
- full sweep results are memoized behind a bounded LRU keyed on
  ``(network.name, discretized load, discretized RSSI)`` with hit/miss
  counters and explicit invalidation on scenario/device change.

The sweep reproduces the scalar nominal model (``estimate``) to float64
round-off — the parity suite in ``tests/env/test_costcache.py`` bounds
the divergence at 1e-9 relative.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

from repro.common import ConfigError, UnknownKeyError
from repro.env.executor import _contention_power_factor
from repro.env.result import ExecutionResult
from repro.env.target import Location
from repro.hardware.processor import ProcessorKind
from repro.interference.corunner import CoRunnerLoad

__all__ = ["CacheStats", "NominalSweep", "NominalCostEngine"]

#: Bound on the exact nominal-component caches (entries are a few floats
#: each; 8k entries comfortably cover a full LOO protocol's distinct
#: (network, target, load) and (network, link, RSSI) combinations while
#: keeping worst-case growth in dynamic scenarios bounded).
_EXACT_CACHE_SIZE = 8192


def _readonly(values):
    array = np.asarray(values, dtype=float)
    array.flags.writeable = False
    return array


@dataclass(frozen=True)
class CacheStats:
    """Counters of the engine's sweep memoization."""

    hits: int
    misses: int
    evictions: int
    size: int
    capacity: int

    def __post_init__(self):
        for name in ("hits", "misses", "evictions", "size", "capacity"):
            if getattr(self, name) < 0:
                raise ConfigError(f"negative cache counter {name}")

    @property
    def hit_ratio(self):
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


@dataclass(frozen=True)
class NominalSweep:
    """Nominal-model results for every target at one observation.

    The arrays are index-aligned with ``targets`` and frozen read-only —
    a sweep may be shared by every consumer that hits the same cache
    entry, so nobody gets to scribble on it.
    """

    targets: Tuple
    latency_ms: np.ndarray
    energy_mj: np.ndarray
    estimated_energy_mj: np.ndarray
    accuracy_pct: np.ndarray

    def __post_init__(self):
        count = len(self.targets)
        for name in ("latency_ms", "energy_mj", "estimated_energy_mj",
                     "accuracy_pct"):
            values = getattr(self, name)
            if len(values) != count:
                raise ConfigError(
                    f"sweep column {name} has {len(values)} entries for "
                    f"{count} targets"
                )
            if count and not np.all(np.isfinite(values)):
                raise ConfigError(f"non-finite sweep column {name}")
        if count and (np.any(np.asarray(self.latency_ms) <= 0)
                      or np.any(np.asarray(self.energy_mj) <= 0)):
            raise ConfigError("non-positive nominal latency/energy")
        object.__setattr__(
            self, "_index_by_key",
            {target.key: index for index, target in enumerate(self.targets)},
        )

    def __len__(self):
        return len(self.targets)

    def index_of(self, target):
        """Index of ``target`` (or a target with the same key)."""
        try:
            return self._index_by_key[target.key]
        except KeyError:
            raise UnknownKeyError(
                f"target {target.key} is not in this sweep"
            ) from None

    def result(self, index):
        """The scalar-``estimate``-compatible result at ``index``."""
        return ExecutionResult(
            latency_ms=float(self.latency_ms[index]),
            energy_mj=float(self.energy_mj[index]),
            estimated_energy_mj=float(self.estimated_energy_mj[index]),
            accuracy_pct=float(self.accuracy_pct[index]),
            target_key=self.targets[index].key,
        )

    def result_for(self, target):
        return self.result(self.index_of(target))

    def argbest(self, use_case, indices=None):
        """Footnote-8 ranking: index of the best feasible target.

        Minimum nominal energy among accuracy- and QoS-feasible targets;
        falls back to the minimum-energy accuracy-feasible target when no
        target meets the deadline (the oracle's nonzero-violation case).
        Returns ``None`` when nothing is accuracy-feasible.  Ties resolve
        to the first candidate, matching the scalar search's iteration
        order.  ``indices`` restricts the search to a candidate subset
        (e.g. one location's targets); the returned index is still a
        whole-sweep index.
        """
        candidate = (np.arange(len(self.targets)) if indices is None
                     else np.asarray(indices, dtype=int))
        if use_case.accuracy_target is None:
            accuracy_ok = np.ones(len(candidate), dtype=bool)
        else:
            accuracy_ok = (self.accuracy_pct[candidate]
                           >= use_case.accuracy_target)
        if not accuracy_ok.any():
            return None
        qos_ok = accuracy_ok & (self.latency_ms[candidate]
                                <= use_case.qos_ms)
        pool = qos_ok if qos_ok.any() else accuracy_ok
        best = np.argmin(np.where(pool, self.energy_mj[candidate], np.inf))
        return int(candidate[best])


@dataclass(frozen=True)
class _NetworkTable:
    """Per-target nominal constants for one network."""

    compute_ms: np.ndarray   # local compute at slowdown 1 (0 for remote)
    dispatch_ms: np.ndarray  # local per-layer launch overhead (0 remote)
    remote_ms: np.ndarray    # remote nominal compute (0 for local)
    accuracy_pct: np.ndarray
    input_bytes: float
    output_bytes: float

    def __post_init__(self):
        for name in ("compute_ms", "dispatch_ms", "remote_ms",
                     "accuracy_pct"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise ConfigError(f"non-finite network table {name}")
        if self.input_bytes <= 0 or self.output_bytes <= 0:
            raise ConfigError("network I/O sizes must be positive")


class NominalCostEngine:
    """Vectorized nominal model over an environment's full action space.

    Args:
        environment: the :class:`EdgeCloudEnvironment` to mirror.  The
            engine snapshots the device/remote/link topology at
            construction; call :meth:`rebuild` if any of those change.
        cache_size: bound on memoized sweeps (LRU eviction beyond it).
        load_quantum: cache-key resolution for ``cpu_util``/``mem_util``.
        rssi_quantum_dbm: cache-key resolution for the two RSSI readings.

    A cache hit returns the sweep computed for the *first* observation
    that landed in the key's bin, so the quanta bound the staleness of a
    hit; both default fine enough that the returned sweep is within
    measurement noise of an exact evaluation.  ``use_cache=False`` always
    evaluates exactly.
    """

    def __init__(self, environment, cache_size=512, load_quantum=0.02,
                 rssi_quantum_dbm=0.5):
        if cache_size < 1:
            raise ConfigError(f"cache_size must be >= 1, got {cache_size}")
        if load_quantum <= 0 or rssi_quantum_dbm <= 0:
            raise ConfigError("cache quanta must be positive")
        self._environment = environment
        self._cache_capacity = int(cache_size)
        self._load_quantum = float(load_quantum)
        self._rssi_quantum_dbm = float(rssi_quantum_dbm)
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.exact_hits = 0
        self.exact_misses = 0
        self._sweeps: "OrderedDict" = OrderedDict()
        self._network_tables: Dict[str, _NetworkTable] = {}
        self._exact_local: "OrderedDict" = OrderedDict()
        self._exact_remote: Dict[Tuple[str, str], float] = {}
        self._exact_links: "OrderedDict" = OrderedDict()
        self._layer_terms: Dict[Tuple, np.ndarray] = {}
        self.rebuild()

    # ------------------------------------------------------------------
    # Static (device/link) tables
    # ------------------------------------------------------------------

    def rebuild(self):
        """Re-snapshot the environment topology and drop every cache."""
        env = self._environment
        self._targets = tuple(env.targets())
        device = env.device
        count = len(self._targets)
        kinds = []
        kind_codes = np.zeros(count, dtype=int)
        busy_power_mw = np.zeros(count)
        idle_overhead_power_mw = np.zeros(count)
        local_indices, cloud_indices, connected_indices = [], [], []
        for index, target in enumerate(self._targets):
            if target.location is Location.LOCAL:
                local_indices.append(index)
                proc = device.soc.processor(target.role)
                if proc.kind not in kinds:
                    kinds.append(proc.kind)
                kind_codes[index] = kinds.index(proc.kind)
                busy_power_mw[index] = self._busy_power_mw(proc,
                                                           target.vf_index)
                if target.role != "cpu":
                    idle_overhead_power_mw[index] = \
                        device.soc.cpu.idle_power_mw
            else:
                if target.location is Location.CLOUD:
                    cloud_indices.append(index)
                else:
                    connected_indices.append(index)
                idle_overhead_power_mw[index] = device.soc.cpu.idle_power_mw
        self._kinds = tuple(kinds)
        self._kind_codes = kind_codes
        self._busy_power_mw_by_target = busy_power_mw
        self._idle_overhead_power_mw = idle_overhead_power_mw
        self._platform_power_mw = device.soc.platform_idle_mw
        self._local_indices = np.array(local_indices, dtype=int)
        self._cloud_indices = np.array(cloud_indices, dtype=int)
        self._connected_indices = np.array(connected_indices, dtype=int)
        self.invalidate(network_tables=True)

    @staticmethod
    def _busy_power_mw(proc, vf_index):
        """The eq. (1)-(3) busy power the scalar energy models charge."""
        if proc.kind is ProcessorKind.CPU:
            # cpu_energy_mj with the default full-cluster utilization.
            core_fraction = proc.num_cores / proc.num_cores
            return proc.idle_power_mw + (
                proc.busy_power_at(vf_index) - proc.idle_power_mw
            ) * core_fraction
        if proc.kind is ProcessorKind.GPU:
            return proc.busy_power_at(vf_index)
        return proc.busy_power_mw  # DSP/NPU: constant pre-measured power

    # ------------------------------------------------------------------
    # Per-network tables
    # ------------------------------------------------------------------

    def _table_for(self, network):
        table = self._network_tables.get(network.name)
        if table is None:
            table = self._build_network_table(network)
            self._network_tables[network.name] = table
        return table

    def _build_network_table(self, network):
        env = self._environment
        device = env.device
        count = len(self._targets)
        compute_ms = np.zeros(count)
        dispatch_ms = np.zeros(count)
        remote_ms = np.zeros(count)
        accuracy_pct = np.zeros(count)
        # One layer walk per (role, precision); V/F steps reuse it.
        weighted_ms_cache: Dict[Tuple[str, object], float] = {}
        for index, target in enumerate(self._targets):
            accuracy_pct[index] = env.accuracy.lookup(network.name,
                                                      target.precision)
            if target.location is Location.LOCAL:
                proc = device.soc.processor(target.role)
                slot = (target.role, target.precision)
                weighted_ms = weighted_ms_cache.get(slot)
                if weighted_ms is None:
                    weighted_ms = sum(
                        (layer.macs / 1e9)
                        / proc.layer_efficiency.get(layer.kind, 0.5)
                        * 1000.0
                        for layer in network.layers
                    )
                    weighted_ms_cache[slot] = weighted_ms
                compute_ms[index] = weighted_ms / proc.throughput_gmacs(
                    target.precision, target.vf_index
                )
                dispatch_ms[index] = proc.dispatch_ms * len(network.layers)
            else:
                remote_ms[index] = self.remote_nominal_ms(network, target)
        return _NetworkTable(
            compute_ms=_readonly(compute_ms),
            dispatch_ms=_readonly(dispatch_ms),
            remote_ms=_readonly(remote_ms),
            accuracy_pct=_readonly(accuracy_pct),
            input_bytes=network.input_bytes,
            output_bytes=network.output_bytes,
        )

    # ------------------------------------------------------------------
    # Exact nominal components (the execution path's backbone)
    # ------------------------------------------------------------------
    #
    # Unlike the sweeps below — which are keyed on *discretized*
    # observations and whose vectorized arithmetic agrees with the scalar
    # model only to ~1e-9 relative — these caches key on the **exact**
    # observation values and compute through the very same scalar call
    # chain the executor's per-layer walk evaluates.  A hit is therefore
    # bit-identical to recomputation, which is what lets ``execute``,
    # ``execute_batch`` and ``estimate`` read them instead of walking
    # the layers (``tests/env/test_layer_walk_oracle.py`` holds them to
    # the walk with ``==``).  Because they are pure deterministic
    # functions of the topology, they deliberately survive
    # ``reset()``/reseeds (a replayed episode would recompute exactly the
    # same values) and are only dropped when the topology or the network
    # definitions change (``rebuild`` /
    # ``invalidate(network_tables=True)``).  That persistence is what
    # makes fold-level environment reuse in the LOO protocol profitable:
    # every fold after the first trains against a warm cache.

    def _terms_for(self, host_tag, proc, network, precision):
        """Per-layer compute terms for every V/F step, as a 2-D table.

        ``terms[layer, vf]`` is the scalar model's per-layer
        ``compute_ms`` before the slowdown multiply, so the scalar
        ``network_latency_ms(network, precision, vf, slowdown)`` equals
        ``sum((terms[:, vf] * slowdown + proc.dispatch_ms).tolist())``
        **bit-for-bit**: the table is built with element-wise float64
        ops (each term is the identical IEEE chain the scalar layer walk
        evaluates), and summing the ``tolist()`` sequence preserves the
        scalar walk's left-to-right accumulation order.  One table build
        replaces ``num_vf_steps`` full layer walks.
        """
        key = (host_tag, proc.kind, network.name, precision)
        terms = self._layer_terms.get(key)
        if terms is None:
            macs = np.array([layer.macs for layer in network.layers],
                            dtype=np.float64)
            efficiency = np.array(
                [proc.layer_efficiency.get(layer.kind, 0.5)
                 for layer in network.layers], dtype=np.float64)
            throughput = np.array(
                [proc.throughput_gmacs(precision, vf)
                 for vf in range(proc.num_vf_steps)], dtype=np.float64)
            terms = ((macs / 1e9)[:, None]
                     / (throughput[None, :] * efficiency[:, None])
                     * 1000.0)
            self._layer_terms[key] = terms
        return terms

    def local_nominal(self, network, target, observation):
        """``(proc, nominal_ms, slowdown)`` for one local target.

        Bit-identical to what :func:`~repro.env.executor.local_execution`
        computes inline; keyed on the exact co-runner load.  Raises
        :class:`ConfigError` for a slowdown below 1, as the layer walk
        (``Processor.layer_latency_ms``) does.
        """
        key = (network.name, target.key,
               observation.cpu_util, observation.mem_util)
        entry = self._exact_local.get(key)
        if entry is not None:
            self.exact_hits += 1
            self._exact_local.move_to_end(key)
            return entry
        self.exact_misses += 1
        env = self._environment
        proc = env.device.soc.processor(target.role)
        load = CoRunnerLoad(cpu_util=observation.cpu_util,
                            mem_util=observation.mem_util)
        slowdown = env.interference.slowdown(proc.kind, load)
        if slowdown < 1.0:
            raise ConfigError(f"slowdown must be >= 1, got {slowdown}")
        terms = self._terms_for("local", proc, network, target.precision)
        nominal_ms = sum(
            (terms[:, target.vf_index] * slowdown
             + proc.dispatch_ms).tolist()
        )
        entry = (proc, nominal_ms, slowdown)
        self._exact_local[key] = entry
        if len(self._exact_local) > _EXACT_CACHE_SIZE:
            self._exact_local.popitem(last=False)
        return entry

    def remote_nominal_ms(self, network, target):
        """The remote processor's load-independent compute nominal."""
        key = (network.name, target.key)
        nominal_ms = self._exact_remote.get(key)
        if nominal_ms is not None:
            self.exact_hits += 1
            return nominal_ms
        self.exact_misses += 1
        env = self._environment
        remote = env.cloud if target.location is Location.CLOUD \
            else env.connected
        host_tag = "cloud" if target.location is Location.CLOUD else "edge"
        remote_proc = remote.soc.processor(target.role)
        terms = self._terms_for(host_tag, remote_proc, network,
                                target.precision)
        # Scalar default: last V/F step, slowdown 1.0 (an exact no-op).
        nominal_ms = sum(
            (terms[:, -1] * 1.0 + remote_proc.dispatch_ms).tolist()
        )
        self._exact_remote[key] = nominal_ms
        return nominal_ms

    def link_nominal(self, network, target, rssi_dbm):
        """``(tx_base_ms, rx_base_ms, rtt_base_ms)`` for one link/RSSI.

        The load- and noise-free transfer times of the scalar remote
        path, keyed on the exact RSSI (the link is implied by the
        target's location).
        """
        is_cloud = target.location is Location.CLOUD
        key = (network.name, is_cloud, rssi_dbm)
        entry = self._exact_links.get(key)
        if entry is not None:
            self.exact_hits += 1
            self._exact_links.move_to_end(key)
            return entry
        self.exact_misses += 1
        env = self._environment
        link = env.wifi if is_cloud else env.p2p
        entry = (
            link.transfer_ms(network.input_bytes, rssi_dbm),
            link.transfer_ms(network.output_bytes, rssi_dbm),
            link.effective_rtt_ms(rssi_dbm),
        )
        self._exact_links[key] = entry
        if len(self._exact_links) > _EXACT_CACHE_SIZE:
            self._exact_links.popitem(last=False)
        return entry

    # ------------------------------------------------------------------
    # Sweeps
    # ------------------------------------------------------------------

    def sweep(self, network, observation, use_cache=True):
        """All-target nominal results for one ``(network, observation)``."""
        if not use_cache:
            return self._evaluate(network, observation)
        key = self._cache_key(network.name, observation)
        cached = self._sweeps.get(key)
        if cached is not None:
            self.hits += 1
            self._sweeps.move_to_end(key)
            return cached
        self.misses += 1
        fresh = self._evaluate(network, observation)
        self._sweeps[key] = fresh
        if len(self._sweeps) > self._cache_capacity:
            self._sweeps.popitem(last=False)
            self.evictions += 1
        return fresh

    def _cache_key(self, network_name, observation):
        return (
            network_name,
            int(round(observation.cpu_util / self._load_quantum)),
            int(round(observation.mem_util / self._load_quantum)),
            int(round(observation.rssi_wlan_dbm / self._rssi_quantum_dbm)),
            int(round(observation.rssi_p2p_dbm / self._rssi_quantum_dbm)),
        )

    def _evaluate(self, network, observation):
        env = self._environment
        table = self._table_for(network)
        count = len(self._targets)
        load = CoRunnerLoad(cpu_util=observation.cpu_util,
                            mem_util=observation.mem_util)
        interference = env.interference
        latency_ms = np.zeros(count)
        energy_mj = np.zeros(count)
        estimated_energy_mj = np.zeros(count)

        local = self._local_indices
        if local.size:
            slowdown_by_kind = np.array([
                interference.slowdown(kind, load) for kind in self._kinds
            ])
            slowdown = slowdown_by_kind[self._kind_codes[local]]
            local_latency_ms = (table.compute_ms[local] * slowdown
                                + table.dispatch_ms[local])
            busy_mj = (self._busy_power_mw_by_target[local]
                       * local_latency_ms / 1000.0)
            overhead_mj = (
                self._platform_power_mw * local_latency_ms / 1000.0
                + self._idle_overhead_power_mw[local]
                * local_latency_ms / 1000.0
            )
            contention = _contention_power_factor(load)
            latency_ms[local] = local_latency_ms
            estimated_energy_mj[local] = busy_mj + overhead_mj
            energy_mj[local] = busy_mj * contention + overhead_mj

        tx_slow = interference.transmission_slowdown(load)
        for indices, link, rssi_dbm in (
            (self._cloud_indices, env.wifi, observation.rssi_wlan_dbm),
            (self._connected_indices, env.p2p, observation.rssi_p2p_dbm),
        ):
            if not indices.size:
                continue
            tx_ms = link.transfer_ms(table.input_bytes, rssi_dbm) * tx_slow
            rx_ms = link.transfer_ms(table.output_bytes, rssi_dbm) * tx_slow
            rtt_ms = link.effective_rtt_ms(rssi_dbm)
            group_latency_ms = tx_ms + rtt_ms + table.remote_ms[indices] \
                + rx_ms
            wait_ms = group_latency_ms - tx_ms - rx_ms
            radio_mj = (
                link.tx_power_mw(rssi_dbm) * tx_ms / 1000.0
                + link.rx_power_mw * rx_ms / 1000.0
                + link.idle_power_mw * wait_ms / 1000.0
                + link.tail_energy_mj()
            )
            overhead_mj = (
                self._platform_power_mw * group_latency_ms / 1000.0
                + self._idle_overhead_power_mw[indices]
                * group_latency_ms / 1000.0
            )
            latency_ms[indices] = group_latency_ms
            estimated_energy_mj[indices] = radio_mj + overhead_mj
            energy_mj[indices] = radio_mj + overhead_mj

        return NominalSweep(
            targets=self._targets,
            latency_ms=_readonly(latency_ms),
            energy_mj=_readonly(energy_mj),
            estimated_energy_mj=_readonly(estimated_energy_mj),
            accuracy_pct=_readonly(table.accuracy_pct),
        )

    # ------------------------------------------------------------------
    # Cache management
    # ------------------------------------------------------------------

    def invalidate(self, network_tables=False):
        """Drop memoized sweeps (and the network tables when asked).

        The environment calls this on scenario swaps and reseeds; pass
        ``network_tables=True`` when the network *definitions* may have
        changed (a different zoo build reusing a name).  The exact
        nominal-component caches are value-keyed and deterministic, so a
        plain reseed keeps them; only ``network_tables=True`` (and
        :meth:`rebuild`) drops them too.
        """
        self._sweeps.clear()
        if network_tables:
            self._network_tables.clear()
            self._exact_local.clear()
            self._exact_remote.clear()
            self._exact_links.clear()
            self._layer_terms.clear()

    def stats(self):
        """Current :class:`CacheStats` snapshot."""
        return CacheStats(
            hits=self.hits,
            misses=self.misses,
            evictions=self.evictions,
            size=len(self._sweeps),
            capacity=self._cache_capacity,
        )
