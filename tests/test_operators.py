"""The three operators of nld.dynamics.

The diffusion operator K Z - Z (apply_diffusion), the original block's
operator rownorm(omega(Z)) Z (the update OriginalStepper.step adds to Z)
and the Markov map Z -> K Z (MarkovStepper).
"""

import math

import numpy as np
import pytest

import nld
from nld import (
    AffinityKernelSpec,
    FeatureField,
    KernelMatrix,
    MarkovStepper,
    apply_diffusion,
)

from conftest import make_balanced_kernel, make_field, step_original


def test_diffusion_annihilates_constants():
    K = make_balanced_kernel(2, 6)
    Z = FeatureField(np.full((6, 2), 3.25))
    out = apply_diffusion(K, Z)
    assert np.max(np.abs(out.values)) <= 1e-12


def test_diffusion_hand_value():
    K = KernelMatrix.from_entries(np.full((2, 2), 0.5))
    Z = FeatureField(np.array([[1.0], [-1.0]]))
    out = apply_diffusion(K, Z)
    assert np.allclose(out.values, [[-1.0], [1.0]], rtol=0, atol=1e-15)


def test_diffusion_identity_kernel_gives_zero():
    K = KernelMatrix.from_entries(np.eye(4))
    Z = make_field(3, 4, 3)
    assert np.array_equal(apply_diffusion(K, Z).values, np.zeros((4, 3)))


def test_diffusion_requires_stochastic_kernel():
    K = KernelMatrix.from_entries(np.array([[2.0, 1.0], [1.0, 3.0]]))
    Z = FeatureField(np.array([[1.0], [2.0]]))
    with pytest.raises(ValueError):
        apply_diffusion(K, Z)


def test_diffusion_dimension_mismatch():
    K = KernelMatrix.from_entries(np.eye(3))
    Z = FeatureField(np.array([[1.0], [2.0]]))
    with pytest.raises(ValueError):
        apply_diffusion(K, Z)


def test_diffusion_matrix_examples():
    # Applied to the identity field, the operator gives its matrix K - I.
    I = KernelMatrix.from_entries(np.eye(3))
    assert np.array_equal(apply_diffusion(I, FeatureField(np.eye(3))).values, np.zeros((3, 3)))
    U = KernelMatrix.from_entries(np.full((2, 2), 0.5))
    L = apply_diffusion(U, FeatureField(np.eye(2))).values
    assert np.array_equal(L, np.array([[-0.5, 0.5], [0.5, -0.5]]))
    assert np.max(np.abs(L.sum(axis=1))) <= 1e-12


def test_diffusion_matrix_spectrum_in_band():
    K = make_balanced_kernel(5, 8)
    vals, _ = nld.eig_symmetric(K.entries - np.eye(K.size))
    assert np.all(vals <= 1e-12)
    assert np.all(vals >= -2.0 - 1e-12)


def test_mean_zero_for_symmetric_doubly_stochastic():
    for seed in range(5):
        K = make_balanced_kernel(seed, 7)
        Z = make_field(seed + 100, 7, 3)
        out = apply_diffusion(K, Z)
        assert np.max(np.abs(out.values.sum(axis=0))) <= 1e-10


def test_negative_semidefiniteness_and_energy_identity():
    for seed in range(5):
        K = make_balanced_kernel(seed + 20, 6)
        Z = make_field(seed + 200, 6, 2)
        LZ = apply_diffusion(K, Z).values
        quad = float(np.sum(Z.values * LZ))
        assert quad <= 1e-12
        diff = Z.values[None, :, :] - Z.values[:, None, :]
        rhs = -0.5 * float(np.sum(K.entries * np.sum(diff * diff, axis=2)))
        assert quad == pytest.approx(rhs, abs=1e-10)


def test_markov_stage_equivalence_identity():
    for seed in range(5):
        K = make_balanced_kernel(seed + 40, 9)
        Z = make_field(seed + 300, 9, 2)
        direct = K.entries @ Z.values - Z.values
        assert np.max(np.abs(direct - apply_diffusion(K, Z).values)) <= 1e-14


# The original operator is the update OriginalStepper.step adds to Z at
# unit weight: Z + 1 * rownorm(omega(Z)) Z.


def test_apply_original_single_position():
    # One position: rownorm(omega) = [[1]], so the operator returns Z itself.
    Z = np.array([[2.0, -3.0]])
    out = step_original(Z, AffinityKernelSpec("gaussian"), 1.0)
    assert np.array_equal(out, 2.0 * Z)


def test_apply_original_dirac():
    Z = make_field(7, 5, 2).values
    out = step_original(Z, AffinityKernelSpec("dirac_delta"), 1.0)
    assert np.max(np.abs(out - 2.0 * Z)) <= 1e-15


def test_apply_original_rbf_two_positions_brute_force():
    Z = np.array([[0.0], [2.0]])
    spec = AffinityKernelSpec("rbf", bandwidth=1.0)
    out = step_original(Z, spec, 1.0)
    a = math.exp(-2.0)
    # row-normalized kernel [[1, a], [a, 1]] / (1 + a) applied to Z
    average = np.array([[2.0 * a], [2.0]]) / (1.0 + a)
    assert np.max(np.abs(out - (Z + average))) <= 1e-15


def test_apply_original_decreases_sup_norm_one_sign():
    Z = np.array([[0.5], [1.0], [2.0]])
    spec = AffinityKernelSpec("rbf", bandwidth=1.0)
    # Eq-style update with full negative unit weight: Z' = Z - avg(Z)
    out = step_original(Z, spec, -1.0)
    assert np.max(np.abs(out)) < np.max(np.abs(Z))


def test_markov_matrix_accepts_and_applies():
    K = KernelMatrix.from_entries(np.array([[0.9, 0.1], [0.1, 0.9]]))
    Z = FeatureField(np.array([[1.0], [-1.0]]))
    out = MarkovStepper(K).step(Z.values, 0, 1, np.empty_like(Z.values))
    assert np.allclose(out, [[0.8], [-0.8]], rtol=0, atol=1e-15)


def test_markov_matrix_identity():
    I = KernelMatrix.from_entries(np.eye(3))
    Z = make_field(8, 3, 2)
    assert np.array_equal(MarkovStepper(I).step(Z.values, 0, 1, np.empty_like(Z.values)), Z.values)


def test_markov_matrix_rejects_negative_entries():
    # Row stochastic, so the sign is what is rejected.
    K = KernelMatrix.from_entries([[1.5, -0.5], [-0.5, 1.5]])
    with pytest.raises(ValueError, match="nonnegative"):
        MarkovStepper(K)


def test_markov_matrix_requires_row_stochastic():
    K = KernelMatrix.from_entries(np.array([[2.0, 1.0], [1.0, 3.0]]))
    with pytest.raises(ValueError, match="row stochastic"):
        MarkovStepper(K)
