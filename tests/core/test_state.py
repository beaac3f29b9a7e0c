"""Tests for the Table-I state space."""

import itertools
import math

import numpy as np
import pytest

from repro.common import ConfigError
from repro.core.state import StateFeature, StateSpace, table_i_state_space
from repro.env.observation import Observation


@pytest.fixture()
def space():
    return table_i_state_space()


class TestTableISize:
    def test_3072_states(self, space):
        """Footnote 8: the design space has 3,072 states."""
        assert space.size == 3072

    def test_eight_features(self, space):
        assert len(space.features) == 8

    def test_feature_order(self, space):
        assert [f.name for f in space.features] == [
            "s_conv", "s_fc", "s_rc", "s_mac", "s_co_cpu", "s_co_mem",
            "s_rssi_w", "s_rssi_p",
        ]


class TestTableIBins:
    """Bin boundaries verbatim from Table I."""

    def test_s_conv(self, space):
        feature = space.feature("s_conv")
        assert feature.label_of(29) == "small"
        assert feature.label_of(30) == "medium"
        assert feature.label_of(49) == "medium"
        assert feature.label_of(50) == "large"
        assert feature.label_of(89) == "large"
        assert feature.label_of(90) == "larger"

    def test_s_fc(self, space):
        feature = space.feature("s_fc")
        assert feature.label_of(9) == "small"
        assert feature.label_of(10) == "large"

    def test_s_rc(self, space):
        feature = space.feature("s_rc")
        assert feature.label_of(0) == "small"
        assert feature.label_of(24) == "large"

    def test_s_mac(self, space):
        feature = space.feature("s_mac")
        assert feature.label_of(999.0) == "small"
        assert feature.label_of(1000.0) == "medium"
        assert feature.label_of(1999.0) == "medium"
        assert feature.label_of(2000.0) == "large"

    def test_s_co_cpu_zero_bin(self, space):
        feature = space.feature("s_co_cpu")
        assert feature.label_of(0.0) == "none"
        assert feature.label_of(0.1) == "small"
        assert feature.label_of(24.9) == "small"
        assert feature.label_of(25.0) == "medium"
        assert feature.label_of(74.9) == "medium"
        assert feature.label_of(75.0) == "large"
        assert feature.label_of(100.0) == "large"

    def test_rssi_threshold(self, space):
        for name in ("s_rssi_w", "s_rssi_p"):
            feature = space.feature(name)
            assert feature.label_of(-80.0) == "weak"
            assert feature.label_of(-80.1) == "weak"
            assert feature.label_of(-79.9) == "regular"


class TestEncoding:
    def test_index_in_range(self, space, zoo):
        obs = Observation()
        for network in zoo.values():
            index = space.encode(network, obs)
            assert 0 <= index < space.size

    def test_distinct_networks_can_share_bins(self, space, zoo):
        """MobileNet v3 and SSD-MobileNet v3 land in the same state —
        this aliasing is what makes leave-one-out generalize."""
        obs = Observation()
        assert space.encode(zoo["mobilenet_v3"], obs) \
            == space.encode(zoo["ssd_mobilenet_v3"], obs)

    def test_observation_changes_state(self, space, zoo):
        net = zoo["mobilenet_v3"]
        quiet = space.encode(net, Observation())
        busy = space.encode(net, Observation(cpu_util=0.9))
        weak = space.encode(net, Observation(rssi_wlan_dbm=-86.0))
        assert len({quiet, busy, weak}) == 3

    def test_describe_labels(self, space, zoo):
        labels = space.describe(zoo["mobilebert"], Observation())
        assert labels["s_rc"] == "large"
        assert labels["s_conv"] == "small"

    def test_index_bijective_over_bins(self, space):
        seen = set()
        import itertools
        radices = [f.num_bins for f in space.features]
        for bins in itertools.product(*(range(r) for r in radices)):
            seen.add(space.index_of(bins))
        assert len(seen) == space.size


def _reference_index(space, network, observation):
    """``index_of(discretize(raw))`` — the general encoding path."""
    raw = (network.num_conv, network.num_fc, network.num_rc,
           network.mega_macs, observation.cpu_util * 100.0,
           observation.mem_util * 100.0, observation.rssi_wlan_dbm,
           observation.rssi_p2p_dbm)
    return space.index_of(space.discretize(raw))


def _on_and_beside(value, low, high):
    """``value`` and its float neighbours, clipped to [low, high]."""
    return sorted({min(max(v, low), high) for v in (
        math.nextafter(value, -math.inf), value,
        math.nextafter(value, math.inf))})


#: Utilizations on and beside the 0 %, 25 % and 75 % bin edges (the
#: percent conversion can round a neighbour onto the edge; both paths
#: must agree on it either way), plus interior and extreme values.
UTILS = sorted(set(
    _on_and_beside(0.0, 0.0, 1.0) + _on_and_beside(0.25, 0.0, 1.0)
    + _on_and_beside(0.75, 0.0, 1.0)
    + [0.249999, 0.250001, 0.749999, 0.750001, 0.5, 1.0]
))
#: RSSI on and beside the -80 dBm edge, plus the window ends.
RSSIS = sorted(set(_on_and_beside(-80.0, -120.0, -10.0)
                   + [-80.0001, -79.9999, -100.0, -55.0, -30.0]))


class TestPrefixEncoder:
    """encode()'s per-network prefix path equals the reference path."""

    def test_equals_reference_on_every_bin_edge(self, space, zoo):
        for network in zoo.values():
            for cpu, mem, wlan, p2p in itertools.product(UTILS, UTILS,
                                                         RSSIS, RSSIS):
                observation = Observation(cpu_util=cpu, mem_util=mem,
                                          rssi_wlan_dbm=wlan,
                                          rssi_p2p_dbm=p2p)
                assert space.encode(network, observation) \
                    == _reference_index(space, network, observation), (
                        network.name, observation)

    def test_equals_reference_on_random_observations(self, space, zoo):
        rng = np.random.default_rng(0)
        networks = list(zoo.values())
        for _ in range(2000):
            network = networks[rng.integers(len(networks))]
            observation = Observation(
                cpu_util=float(rng.random()), mem_util=float(rng.random()),
                rssi_wlan_dbm=float(rng.uniform(-100.0, -30.0)),
                rssi_p2p_dbm=float(rng.uniform(-100.0, -30.0)),
            )
            assert space.encode(network, observation) \
                == _reference_index(space, network, observation)

    def test_equal_networks_are_distinct_cache_entries(self, space, zoo):
        from repro.models.zoo import build_network

        observation = Observation(cpu_util=0.3)
        for network in zoo.values():
            rebuilt = build_network(network.name)
            assert rebuilt is not network
            assert space.encode(rebuilt, observation) \
                == space.encode(network, observation) \
                == _reference_index(space, network, observation)

    def test_without_space_takes_the_general_path(self, space, zoo):
        smaller = space.without("s_rssi_p")
        calls = []
        general = smaller.discretize

        def spy(raw):
            calls.append(raw)
            return general(raw)

        smaller.discretize = spy
        # The general path checks the raw width against the space: the
        # Table-I tuple no longer fits a seven-feature space.
        with pytest.raises(ConfigError, match="expected 7 values, got 8"):
            smaller.encode(zoo["resnet_50"], Observation())
        assert len(calls) == 1


class TestAblation:
    def test_without_removes_feature(self, space):
        smaller = space.without("s_rssi_p")
        assert smaller.size == space.size // 2
        with pytest.raises(KeyError):
            smaller.feature("s_rssi_p")

    def test_without_unknown_raises(self, space):
        with pytest.raises(KeyError):
            space.without("s_gpu")


class TestValidation:
    def test_unsorted_edges_rejected(self):
        with pytest.raises(ConfigError):
            StateFeature("x", edges=(5, 2), labels=("a", "b", "c"))

    def test_label_count_checked(self):
        with pytest.raises(ConfigError):
            StateFeature("x", edges=(5,), labels=("a",))

    def test_zero_bin_needs_extra_label(self):
        feature = StateFeature("x", edges=(5,), labels=("z", "a", "b"),
                               zero_bin=True)
        assert feature.num_bins == 3

    def test_empty_space_rejected(self):
        with pytest.raises(ConfigError):
            StateSpace([])

    def test_bad_bin_index_rejected(self, space):
        with pytest.raises(ConfigError):
            space.index_of((99,) * 8)
