"""Shared fixtures for the test suite."""

import pytest

from repro.analysis.contracts import (
    contracts_enabled,
    resolve_contracts,
    set_contracts,
)
from repro.env.environment import EdgeCloudEnvironment
from repro.env.qos import use_case_for
from repro.hardware.devices import build_device
from repro.models.zoo import load_zoo

# The contract switch is resolved once, at import, and
# PYTEST_CURRENT_TEST is not set while modules import: resolve it again
# as a test run, so contracts are on unless REPRO_CONTRACTS says
# otherwise.
set_contracts(resolve_contracts(under_pytest=True))


@pytest.fixture()
def contracts_switch():
    """``contracts_switch(enabled)`` sets the contract switch for one
    test; the pytest session's value is restored afterwards."""
    previous = contracts_enabled()
    yield set_contracts
    set_contracts(previous)


@pytest.fixture(scope="session")
def zoo():
    """The full Table-III network zoo (built once per session)."""
    return load_zoo()


@pytest.fixture()
def mi8pro_device():
    return build_device("mi8pro")


@pytest.fixture()
def moto_device():
    return build_device("moto_x_force")


@pytest.fixture()
def s10e_device():
    return build_device("galaxy_s10e")


@pytest.fixture()
def env(mi8pro_device):
    """A quiescent Mi8Pro edge-cloud environment with a fixed seed."""
    return EdgeCloudEnvironment(mi8pro_device, scenario="S1", seed=1234)


@pytest.fixture()
def mobilenet_case(zoo):
    return use_case_for(zoo["mobilenet_v3"])


@pytest.fixture()
def resnet_case(zoo):
    return use_case_for(zoo["resnet_50"])


@pytest.fixture()
def bert_case(zoo):
    return use_case_for(zoo["mobilebert"])
