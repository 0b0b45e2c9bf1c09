import numpy as np
import pytest
from hypothesis import settings

import nld

# Property tests draw the same small set of examples on every run.
settings.register_profile("nld", derandomize=True, database=None, max_examples=25, deadline=None)
settings.load_profile("nld")


@pytest.fixture
def two_state_kernel():
    return nld.KernelMatrix.from_entries(np.array([[0.9, 0.1], [0.1, 0.9]]))


@pytest.fixture
def exchange_kernel():
    return nld.KernelMatrix.from_entries(np.array([[0.0, 1.0], [1.0, 0.0]]))


@pytest.fixture
def two_state_field():
    return nld.FeatureField(np.array([[1.0], [-1.0]]))


def make_field(seed, M, d):
    rng = nld.SplitMix64(nld.derive_seed(seed, "field", M, d))
    return nld.FeatureField(rng.normals((M, d)))


def make_balanced_kernel(seed, M, d=3):
    """Symmetric doubly stochastic kernel on a random feature field."""
    return nld.symmetric_stochastic_kernel(make_field(seed, M, d))
