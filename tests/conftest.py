"""Shared fixtures for the NASAIC reproduction test suite.

The seeded builders hoisted out of ``test_evalservice.py`` /
``test_driver.py`` / ``test_store.py`` live in
:mod:`tests.suite_helpers` (``from suite_helpers import ...``); they are
re-exported here as session fixtures so fixture-style tests — including
the differential fuzz-harness tests — reuse the exact same builders.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.accel import (
    AllocationSpace,
    Dataflow,
    HeterogeneousAccelerator,
    SubAccelerator,
)
from repro.arch import (
    cifar10_resnet_space,
    nuclei_unet_space,
    stl10_resnet_space,
)
from repro.cost import CostModel
from repro.train import SurrogateTrainer, default_surrogate
from repro.workloads import w1, w2, w3
from suite_helpers import build_hw_evaluator, sample_design_pairs


@pytest.fixture(scope="session")
def hw_evaluator_factory():
    return build_hw_evaluator


@pytest.fixture(scope="session")
def design_pairs_factory():
    return sample_design_pairs


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture(scope="session")
def cifar_space():
    return cifar10_resnet_space()


@pytest.fixture(scope="session")
def stl_space():
    return stl10_resnet_space()


@pytest.fixture(scope="session")
def unet_space():
    return nuclei_unet_space()


@pytest.fixture(scope="session")
def cost_model():
    """Session-wide cost model."""
    return CostModel()


@pytest.fixture
def surrogate(cifar_space, stl_space, unet_space):
    return default_surrogate([cifar_space, stl_space, unet_space])


@pytest.fixture
def trainer(surrogate):
    return SurrogateTrainer(surrogate)


@pytest.fixture
def small_accel():
    """A small two-slot heterogeneous design used across tests."""
    return HeterogeneousAccelerator((
        SubAccelerator(Dataflow.NVDLA, 1024, 32),
        SubAccelerator(Dataflow.SHIDIANNAO, 1024, 32),
    ))


@pytest.fixture
def tiny_alloc():
    """A coarse allocation space keeping enumeration/test runs small."""
    return AllocationSpace(pe_step=512, bw_step=16)


@pytest.fixture
def workload_w1():
    return w1()


@pytest.fixture
def workload_w2():
    return w2()


@pytest.fixture
def workload_w3():
    return w3()


@pytest.fixture
def cifar_net_small(cifar_space):
    return cifar_space.decode(cifar_space.smallest_indices())


@pytest.fixture
def cifar_net_large(cifar_space):
    return cifar_space.decode(cifar_space.largest_indices())


@pytest.fixture
def unet_net_mid(unet_space):
    return unet_space.decode((2, 1, 1, 1, 0, 0))  # height 3, mid filters
