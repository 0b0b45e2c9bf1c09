import math
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import nld
from nld import (
    AffinityKernelSpec,
    BandwidthError,
    ConvergenceError,
    DegenerateRowError,
    FeatureField,
    KernelMatrix,
    NonFiniteError,
    RowSumOverflowError,
    build_kernel_matrix,
    median_bandwidth,
    normalize_rows,
    sinkhorn_normalize,
    symmetric_stochastic_kernel,
)

from nld.net import NetworkConfig, StageConfig, _stage_fwd, _Workspace

from conftest import eval_affinity, make_field


# ---------------------------------------------------------------------------
# eval_affinity
# ---------------------------------------------------------------------------


def test_gaussian_zero_vectors():
    f = FeatureField(np.zeros((2, 3)))
    assert eval_affinity(AffinityKernelSpec("gaussian"), 0, 1, f) == 1.0


def test_gaussian_hand_value():
    f = FeatureField(np.array([[1.0, 1.0], [1.0, 1.0]]))
    v = eval_affinity(AffinityKernelSpec("gaussian"), 0, 1, f)
    assert v == pytest.approx(math.exp(2.0), rel=1e-12)
    assert v == pytest.approx(7.3890560989, rel=1e-9)


def test_dirac_delta_on_indices():
    f = FeatureField(np.array([[5.0], [5.0], [5.0], [1.0]]))
    spec = AffinityKernelSpec("dirac_delta")
    assert eval_affinity(spec, 2, 2, f) == 1.0
    assert eval_affinity(spec, 2, 3, f) == 0.0
    # equal feature values at distinct indices still give 0
    assert eval_affinity(spec, 0, 1, f) == 0.0


def test_rbf_identical_rows_give_one():
    f = FeatureField(np.array([[2.0, 2.0], [2.0, 2.0]]))
    assert eval_affinity(AffinityKernelSpec("rbf", bandwidth=0.7), 0, 1, f) == 1.0


def test_rbf_hand_value():
    f = FeatureField(np.array([[0.0], [2.0]]))
    v = eval_affinity(AffinityKernelSpec("rbf", bandwidth=1.0), 0, 1, f)
    assert v == pytest.approx(math.exp(-2.0), rel=1e-12)


def test_embedded_applies_projection():
    theta = np.array([[1.0, 0.0]])
    f = FeatureField(np.array([[1.0, 5.0], [1.0, -5.0]]))
    spec = AffinityKernelSpec("embedded", theta=theta, inner=AffinityKernelSpec("gaussian"))
    # projected features are both (1.0); gaussian gives exp(1)
    assert eval_affinity(spec, 0, 1, f) == pytest.approx(math.exp(1.0), rel=1e-12)


def test_index_out_of_range():
    f = FeatureField(np.zeros((2, 1)))
    with pytest.raises(IndexError):
        eval_affinity(AffinityKernelSpec("gaussian"), 0, 5, f)


def test_overflow_is_reported():
    f = FeatureField(np.array([[1e200, 0.0], [1e200, 0.0]]))
    with pytest.raises(NonFiniteError):
        eval_affinity(AffinityKernelSpec("gaussian"), 0, 1, f)


def test_symmetry_property_randomized():
    f = make_field(23, 7, 3)
    for spec in (
        AffinityKernelSpec("gaussian"),
        AffinityKernelSpec("rbf", bandwidth=1.3),
    ):
        for i in range(7):
            for j in range(7):
                assert eval_affinity(spec, i, j, f) == eval_affinity(spec, j, i, f)


# ---------------------------------------------------------------------------
# spec validation
# ---------------------------------------------------------------------------


def test_rbf_requires_positive_bandwidth():
    # 2 (1e-154)^2 is subnormal and 2 (1e154)^2 overflows.
    for h in (0.0, -1.0, math.nan, math.inf, 1e-154, 1e154):
        with pytest.raises(BandwidthError, match="is not a usable rbf bandwidth"):
            AffinityKernelSpec("rbf", bandwidth=h)
    for h in (1.1e-154, 9e153):
        assert AffinityKernelSpec("rbf", bandwidth=h).bandwidth == h


def test_embedded_rejects_nested_embedded():
    theta = np.eye(2)
    inner = AffinityKernelSpec("embedded", theta=theta, inner=AffinityKernelSpec("gaussian"))
    with pytest.raises(ValueError):
        AffinityKernelSpec("embedded", theta=theta, inner=inner)


def test_embedded_rejects_theta_without_rows():
    # A projection to zero channels leaves nothing to compare.
    with pytest.raises(ValueError, match="at least one row"):
        AffinityKernelSpec("embedded", theta=np.zeros((0, 2)), inner=AffinityKernelSpec("gaussian"))


def test_unknown_variant_rejected():
    with pytest.raises(ValueError):
        AffinityKernelSpec("concatenation")


# ---------------------------------------------------------------------------
# build_kernel_matrix
# ---------------------------------------------------------------------------


def test_dirac_builds_identity_with_all_flags():
    f = make_field(1, 5, 2)
    K = build_kernel_matrix(f, AffinityKernelSpec("dirac_delta"))
    assert np.array_equal(K.entries, np.eye(5))
    assert K.flags() == {
        "symmetric": True,
        "nonnegative": True,
        "row_stochastic": True,
        "doubly_stochastic": True,
    }


def test_gaussian_constant_rows():
    x = np.array([1.0, -2.0])
    f = FeatureField(np.tile(x, (4, 1)))
    K = build_kernel_matrix(f, AffinityKernelSpec("gaussian"))
    expected = math.exp(float(x @ x))
    assert np.allclose(K.entries, expected, rtol=0, atol=0)
    assert K.symmetric


def test_build_overflow_names_the_pair():
    f = FeatureField(np.array([[1e200], [1e200], [0.0]]))
    with pytest.raises(NonFiniteError) as err:
        build_kernel_matrix(f, AffinityKernelSpec("gaussian"))
    assert "(0, 0)" in str(err.value)


def test_embedded_equals_prebuilt_projection():
    theta = np.array([[0.4, -0.7, 0.1], [0.2, 0.9, -0.3]])
    f = make_field(29, 6, 3)
    spec = AffinityKernelSpec("embedded", theta=theta, inner=AffinityKernelSpec("gaussian"))
    direct = build_kernel_matrix(f, spec)
    projected = FeatureField(f.values @ theta.T)
    via = build_kernel_matrix(projected, AffinityKernelSpec("gaussian"))
    assert np.max(np.abs(direct.entries - via.entries)) <= 1e-14


def test_rbf_median_bandwidth_is_default():
    f = make_field(31, 6, 2)
    K_default = build_kernel_matrix(f, AffinityKernelSpec("rbf"))
    h = median_bandwidth(f)
    K_explicit = build_kernel_matrix(f, AffinityKernelSpec("rbf", bandwidth=h))
    assert np.array_equal(K_default.entries, K_explicit.entries)
    assert h > 0


@pytest.mark.parametrize("scale", [0.0, 1e-155])
def test_median_bandwidth_rejects_a_collapsed_field(scale):
    f = FeatureField(scale * make_field(32, 5, 2).values)
    with pytest.raises(BandwidthError, match=r"^median pairwise distance .* is not a usable rbf bandwidth h: h > 0 and 2 h\^2 = .* must be normal$"):
        median_bandwidth(f)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(BandwidthError):
            build_kernel_matrix(f, AffinityKernelSpec("rbf"))


# ---------------------------------------------------------------------------
# build_kernel_matrix against the scalar oracle
# ---------------------------------------------------------------------------

THETA = np.array([[0.4, -0.7, 0.1], [0.2, 0.9, -0.3]])

ORACLE_SPECS = {
    "gaussian": AffinityKernelSpec("gaussian"),
    "dirac_delta": AffinityKernelSpec("dirac_delta"),
    "rbf_fixed": AffinityKernelSpec("rbf", bandwidth=1.3),
    "rbf_median": AffinityKernelSpec("rbf"),
    "embedded_gaussian": AffinityKernelSpec("embedded", theta=THETA, inner=AffinityKernelSpec("gaussian")),
    "embedded_rbf": AffinityKernelSpec("embedded", theta=THETA, inner=AffinityKernelSpec("rbf")),
}


def oracle_entries(field, spec):
    M = field.num_positions
    return np.array([[eval_affinity(spec, i, j, field) for j in range(M)] for i in range(M)])


def assert_matches_oracle(field, spec):
    """Entries within 1e-14 * max(1, |entry|) of the scalar loop, or the same error."""
    try:
        want = oracle_entries(field, spec)
    except ValueError:
        # e.g. no median bandwidth: a single position or coincident points
        with pytest.raises(ValueError):
            build_kernel_matrix(field, spec)
        return
    K = build_kernel_matrix(field, spec).entries
    assert np.all(np.abs(K - want) <= 1e-14 * np.maximum(1.0, np.abs(want)))
    assert np.array_equal(K, K.T)
    # The row normalizations rest on this: no row sum of a built kernel
    # falls below 1.
    assert np.all(K.sum(axis=1) >= 1.0)
    inner = spec.inner if spec.variant == nld.kernels.EMBEDDED else spec
    if inner.variant == nld.kernels.RBF:
        assert np.all(np.diag(K) == 1.0)
        assert np.all((K >= 0.0) & (K <= 1.0))


@pytest.mark.parametrize("M", [1, 2, 7, 33])
@pytest.mark.parametrize("name", sorted(ORACLE_SPECS))
def test_build_matches_scalar_oracle(name, M):
    assert_matches_oracle(make_field(47, M, 3), ORACLE_SPECS[name])


# Values stay in [-2, 2] so |x . y| <= 16 at d <= 4: exp amplifies a
# one-ulp difference between the oracle's dot and the core's matmul by
# |x . y|, and the 1e-14 relative bound must leave room for that.
drawn_fields = st.integers(1, 12).flatmap(
    lambda M: st.integers(1, 4).flatmap(
        lambda d: arrays(np.float64, (M, d), elements=st.floats(-2.0, 2.0))
    )
)


@given(values=drawn_fields)
def test_build_matches_scalar_oracle_on_drawn_fields(values):
    field = FeatureField(values)
    theta = np.linspace(-1.0, 1.0, 2 * field.num_channels).reshape(2, -1)
    for spec in (
        AffinityKernelSpec("gaussian"),
        AffinityKernelSpec("dirac_delta"),
        AffinityKernelSpec("rbf", bandwidth=0.8),
        AffinityKernelSpec("rbf"),
        AffinityKernelSpec("embedded", theta=theta, inner=AffinityKernelSpec("gaussian")),
        AffinityKernelSpec("embedded", theta=theta, inner=AffinityKernelSpec("rbf", bandwidth=0.8)),
    ):
        assert_matches_oracle(field, spec)


@pytest.mark.parametrize(
    "spec",
    [
        AffinityKernelSpec("gaussian"),
        AffinityKernelSpec("rbf", bandwidth=0.8),
        AffinityKernelSpec("dirac_delta"),
        AffinityKernelSpec("embedded", theta=THETA, inner=AffinityKernelSpec("gaussian")),
        AffinityKernelSpec("embedded", theta=THETA, inner=AffinityKernelSpec("rbf", bandwidth=0.8)),
    ],
    ids=["gaussian", "rbf", "dirac_delta", "embedded_gaussian", "embedded_rbf"],
)
def test_batched_kernel_rows_sum_to_at_least_one(spec):
    # A network-sized batch, 32 fields of 10 positions and 3 channels, at
    # scales from 1e-3 to 30: the larger gaussian rows overflow to inf.
    scales = np.repeat([1e-3, 0.1, 1.0, 3.0, 10.0, 30.0], 6)[:32]
    V = scales[:, None, None] * np.stack([make_field(60 + b, 10, 3).values for b in range(32)])
    width = len(spec.theta) if spec.variant == nld.kernels.EMBEDDED else 3
    omega = np.empty((32, 10, 10))
    with np.errstate(over="ignore"):
        nld.kernels._kernel_fwd(spec, V, omega, np.empty((32, width, 10)))
        C = omega.sum(axis=2)
    finite = np.isfinite(C)
    assert finite.any()
    assert np.all(C[finite] >= 1.0)


def test_build_overflow_names_first_upper_pair():
    f = FeatureField(np.array([[0.0], [1e200], [1e200]]))
    with pytest.raises(NonFiniteError) as err:
        build_kernel_matrix(f, AffinityKernelSpec("gaussian"))
    assert "pair (1, 1)" in str(err.value)


def test_net_stage_uses_the_same_affinity():
    f = make_field(53, 9, 3)
    spec = AffinityKernelSpec("gaussian")
    stage = StageConfig("proposed", sub_blocks=1, kernel=spec, placement=0)
    ws = _Workspace(NetworkConfig(9, 3, 2, 1, 1, stage=stage), 1)
    _, cache = _stage_fwd(stage, [0.1 * np.eye(3)], f.values[None], ws)
    omega = cache[0][0]
    # build_kernel_matrix keeps the core's upper triangle and mirrors it.
    assert np.array_equal(np.triu(omega), np.triu(build_kernel_matrix(f, spec).entries))


# ---------------------------------------------------------------------------
# KernelMatrix flags
# ---------------------------------------------------------------------------


def test_flags_are_verified_not_declared():
    K = KernelMatrix.from_entries(np.array([[0.5, 0.5], [0.7, 0.3]]))
    assert K.row_stochastic
    assert not K.symmetric
    assert not K.doubly_stochastic
    assert K.nonnegative and not KernelMatrix.from_entries(np.array([[1.5, -0.5], [-0.5, 1.5]])).nonnegative
    U = KernelMatrix.from_entries(np.full((4, 4), 0.25))
    assert U.symmetric and U.row_stochastic and U.doubly_stochastic


def test_kernel_matrix_requires_square_finite():
    with pytest.raises(ValueError):
        KernelMatrix.from_entries(np.zeros((2, 3)))
    with pytest.raises(NonFiniteError):
        KernelMatrix.from_entries(np.array([[1.0, np.inf], [0.0, 1.0]]))


# ---------------------------------------------------------------------------
# normalize_rows
# ---------------------------------------------------------------------------


def test_normalize_rows_uniform():
    K = KernelMatrix.from_entries(np.ones((2, 2)))
    P = normalize_rows(K)
    assert np.array_equal(P.entries, np.full((2, 2), 0.5))


def test_normalize_rows_identity_unchanged():
    K = KernelMatrix.from_entries(np.eye(3))
    assert np.array_equal(normalize_rows(K).entries, np.eye(3))


def test_normalize_rows_hand_value_breaks_symmetry():
    K = KernelMatrix.from_entries(np.array([[2.0, 1.0], [1.0, 3.0]]))
    P = normalize_rows(K)
    assert np.array_equal(P.entries, np.array([[2.0 / 3.0, 1.0 / 3.0], [0.25, 0.75]]))
    assert P.row_stochastic
    assert not P.symmetric


def test_normalize_rows_rejects_zero_and_negative_sums():
    with pytest.raises(DegenerateRowError):
        normalize_rows(KernelMatrix.from_entries(np.array([[1.0, 1.0], [0.0, 0.0]])))
    # nonpositive row sums are rejected, not clamped
    with pytest.raises(DegenerateRowError) as err:
        normalize_rows(KernelMatrix.from_entries(np.array([[1.0, -3.0], [-3.0, 1.0]])))
    assert err.value.row == 0


def test_first_degenerate_row_is_reported():
    K = KernelMatrix.from_entries(np.diag([1.0, -2.0, 0.0, -5.0]))
    with pytest.raises(DegenerateRowError) as err:
        normalize_rows(K)
    assert (err.value.row, err.value.row_sum) == (1, -2.0)
    S = KernelMatrix.from_entries(np.diag([1.0, 1e-301, 0.0, 1e-302]))
    with pytest.raises(DegenerateRowError) as err:
        sinkhorn_normalize(S)
    assert (err.value.row, err.value.row_sum) == (1, 1e-301)


def overflowing_row_sums_field():
    """Three positions at z^2 = 709 and one at 0: every gaussian affinity
    is finite (exp(709) < the float64 maximum), but rows 0-2 sum three of
    the largest to inf."""
    z = math.sqrt(709.0)
    return FeatureField(np.array([[z], [z], [z], [0.0]]))


def test_normalize_rows_rejects_an_overflowed_row_sum():
    K = build_kernel_matrix(overflowing_row_sums_field(), AffinityKernelSpec("gaussian"))
    assert np.isfinite(K.entries).all()
    # Divided by inf, rows 0-2 would come out as zeros; the overflow is
    # reported by the error, not by a warning.
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(RowSumOverflowError, match="row 0 has degenerate sum inf") as err:
            normalize_rows(K)
    assert (err.value.row, err.value.row_sum) == (0, math.inf)
    # Both a degenerate row and a non-finite value.
    assert isinstance(err.value, DegenerateRowError) and isinstance(err.value, NonFiniteError)


def test_sinkhorn_rejects_an_overflowed_row_sum():
    # Unchecked, the first scaling zeroes rows 0-2 and the iteration runs
    # out its budget on a residual of 1.
    K = build_kernel_matrix(overflowing_row_sums_field(), AffinityKernelSpec("gaussian"))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(RowSumOverflowError, match="row 0 has degenerate sum inf"):
            sinkhorn_normalize(K)


# ---------------------------------------------------------------------------
# sinkhorn_normalize
# ---------------------------------------------------------------------------


def test_sinkhorn_already_balanced_unchanged():
    U = KernelMatrix.from_entries(np.full((2, 2), 0.5))
    assert np.array_equal(sinkhorn_normalize(U).entries, U.entries)
    I = KernelMatrix.from_entries(np.eye(3))
    assert np.array_equal(sinkhorn_normalize(I).entries, np.eye(3))


def test_sinkhorn_balances_hand_example():
    K = KernelMatrix.from_entries(np.array([[2.0, 1.0], [1.0, 3.0]]))
    S = sinkhorn_normalize(K)
    assert np.max(np.abs(S.entries.sum(axis=0) - 1.0)) <= 1e-10
    assert np.max(np.abs(S.entries.sum(axis=1) - 1.0)) <= 1e-10
    assert np.array_equal(S.entries, S.entries.T)


def test_sinkhorn_preserves_symmetry_exactly():
    f = make_field(37, 8, 3)
    K = build_kernel_matrix(f, AffinityKernelSpec("rbf"))
    S = sinkhorn_normalize(K)
    assert np.array_equal(S.entries, S.entries.T)
    assert S.doubly_stochastic


def test_sinkhorn_rejects_asymmetric():
    K = KernelMatrix.from_entries(np.array([[0.5, 0.5], [0.7, 0.3]]))
    with pytest.raises(ValueError):
        sinkhorn_normalize(K)


def test_sinkhorn_rejects_negative_entries():
    K = KernelMatrix.from_entries(np.array([[1.0, -0.5], [-0.5, 1.0]]))
    with pytest.raises(ValueError):
        sinkhorn_normalize(K)


def test_sinkhorn_degenerate_zero_row():
    K = KernelMatrix.from_entries(np.array([[1.0, 0.0], [0.0, 0.0]]))
    with pytest.raises((DegenerateRowError, ConvergenceError)):
        sinkhorn_normalize(K)


def test_symmetric_stochastic_kernel_is_flagged():
    K = symmetric_stochastic_kernel(make_field(41, 9, 2))
    assert K.symmetric and K.nonnegative and K.row_stochastic and K.doubly_stochastic
