import hashlib
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

import nld
from nld import (
    AffinityKernelSpec,
    BandwidthError,
    BlowUpError,
    FeatureField,
    InsufficientDataError,
    KernelMatrix,
    MarkovStepper,
    NonFiniteError,
    OriginalStepper,
    ProposedStepper,
    RowSumOverflowError,
    SplitMix64,
    StageWeights,
    apply_diffusion,
    build_kernel_matrix,
    cfl_verdict,
    derive_seed,
    eig_symmetric,
    estimate_decay_rate,
    evolve,
    normalize_rows,
    poincare_constant,
    sinkhorn_normalize,
    variance_dissipation,
    verify_mean_preservation,
    verify_variance_decay,
)
from nld import dynamics

from conftest import (
    l2_ratios,
    make_balanced_kernel,
    make_field,
    step_original,
    step_proposed,
    step_states,
    sup_norms,
)

UNIFORM2 = KernelMatrix.from_entries(np.full((2, 2), 0.5))


# single steps


def test_step_proposed_zero_weight_is_identity():
    Z = make_field(1, 4, 2).values
    assert np.array_equal(step_proposed(Z, make_balanced_kernel(1, 4), 0.0), Z)


def test_step_proposed_hand_value():
    out = step_proposed(np.array([[1.0], [-1.0]]), UNIFORM2, 0.5)
    assert np.array_equal(out, np.array([[0.5], [-0.5]]))


def test_step_proposed_fixes_constants():
    Z = np.full((2, 3), 2.5)
    assert np.array_equal(step_proposed(Z, UNIFORM2, 0.7), Z)


def test_step_proposed_is_linear():
    K = make_balanced_kernel(2, 6)
    Z1 = make_field(3, 6, 2).values
    Z2 = make_field(4, 6, 2).values
    a, b = 1.7, -0.4
    lhs = step_proposed(a * Z1 + b * Z2, K, 0.7)
    rhs = a * step_proposed(Z1, K, 0.7) + b * step_proposed(Z2, K, 0.7)
    assert np.max(np.abs(lhs - rhs)) <= 1e-12


def test_step_original_zero_weight_is_identity():
    Z = make_field(5, 4, 2).values
    assert np.array_equal(step_original(Z, AffinityKernelSpec("rbf", bandwidth=1.0), 0.0), Z)


def test_step_original_dirac_full_damping():
    Z = make_field(6, 5, 3).values
    out = step_original(Z, AffinityKernelSpec("dirac_delta"), -1.0)
    assert np.array_equal(out, np.zeros((5, 3)))


def test_step_original_single_position_halves():
    out = step_original(np.array([[2.0]]), AffinityKernelSpec("gaussian"), -0.5)
    assert np.array_equal(out, np.array([[1.0]]))


def test_step_proposed_bitwise_arithmetic():
    K = make_balanced_kernel(23, 6)
    Z = make_field(24, 6, 3).values
    update = K.entries @ Z - Z
    assert np.array_equal(step_proposed(Z, K, 0.7), Z + 0.7 * update)


@pytest.mark.parametrize(
    "spec",
    [
        AffinityKernelSpec("gaussian"),
        AffinityKernelSpec("rbf"),
        AffinityKernelSpec("rbf", bandwidth=0.7),
        AffinityKernelSpec(
            "embedded", theta=np.array([[0.4, -0.7], [0.2, 0.9], [1.1, 0.3]]), inner=AffinityKernelSpec("rbf")
        ),
    ],
    ids=["gaussian", "rbf_median", "rbf_bandwidth", "embedded"],
)
def test_step_original_bitwise_arithmetic(spec):
    Z = make_field(26, 7, 2)
    omega = build_kernel_matrix(Z, spec).entries
    P = omega / np.sum(omega, axis=1)[:, None]
    assert np.array_equal(normalize_rows(build_kernel_matrix(Z, spec)).entries, P)
    out = step_original(Z.values, spec, -0.5)
    assert np.array_equal(out, Z.values + -0.5 * (P @ Z.values))


def protocol_kernel(M):
    return KernelMatrix.from_entries(np.ones((1, 1))) if M == 1 else make_balanced_kernel(M + 50, M)


@pytest.mark.parametrize("M", [1, 2, 7, 256])
@pytest.mark.parametrize("d", [1, 2, 4])
def test_step_writes_the_update_expression_into_out(M, d):
    # Each step writes, bitwise, the expression it stands for into the
    # caller's out, every entry of which it overwrites; a weight list is
    # read at the step's own index.
    K = protocol_kernel(M)
    Z = make_field(M + 51, M, d).values
    weights = [0.3, -0.2, 0.7]
    gaussian = AffinityKernelSpec("gaussian")
    P = normalize_rows(build_kernel_matrix(FeatureField(Z), gaussian)).entries
    cases = [
        (ProposedStepper(K, weights), lambda w: Z + w * (K.entries @ Z - Z)),
        (MarkovStepper(K), lambda w: K.entries @ Z),
        (OriginalStepper(gaussian, weights), lambda w: Z + w * (P @ Z)),
    ]
    for stepper, expression in cases:
        for n, w in enumerate(weights):
            out = np.full_like(Z, np.nan)
            assert stepper.step(Z, n, len(weights), out) is out
            assert np.array_equal(out, expression(w)), (stepper.name, n)


@pytest.mark.parametrize(
    "make_stepper",
    [
        lambda K: ProposedStepper(K, 0.5),
        lambda K: OriginalStepper(AffinityKernelSpec("gaussian"), -0.5),
        MarkovStepper,
    ],
    ids=["proposed", "original", "markov"],
)
def test_evolve_builds_one_field_per_step(monkeypatch, make_stepper):
    stepper = make_stepper(make_balanced_kernel(28, 5))
    Z0 = make_field(29, 5, 2)
    built = []
    post_init = FeatureField.__post_init__

    def counting(self):
        built.append(1)
        post_init(self)

    monkeypatch.setattr(FeatureField, "__post_init__", counting)
    evolve(Z0, stepper, 7)
    assert built == []  # the states are stepped as bare arrays


def test_step_original_is_not_linear():
    spec = AffinityKernelSpec("rbf", bandwidth=1.0)
    Z1 = make_field(7, 5, 2)
    Z2 = make_field(8, 5, 2)
    lhs = step_original(Z1.values + Z2.values, spec, -0.5)
    rhs = step_original(Z1.values, spec, -0.5) + step_original(Z2.values, spec, -0.5)
    assert np.max(np.abs(lhs - rhs)) > 1e-6


# stage weights


def test_weights_broadcast_and_per_step():
    w = StageWeights.coerce(0.5)
    assert w.at(0, 10) == 0.5 and w.at(9, 10) == 0.5
    seq = StageWeights.coerce([0.1, 0.2, 0.3])
    assert seq.at(2, 3) == 0.3
    with pytest.raises(ValueError):
        seq.at(0, 4)
    with pytest.raises(ValueError):
        StageWeights(())


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_weights_reject_non_finite_scalar(two_state_kernel, two_state_field, bad):
    with pytest.raises(ValueError, match="scalar weight must be finite"):
        StageWeights.coerce([0.5, bad])
    with pytest.raises(ValueError, match="scalar weight must be finite"):
        evolve(two_state_field, ProposedStepper(two_state_kernel, bad), 3)
    # An array is not a weight, whatever it holds.
    with pytest.raises(ValueError, match="a weight must be a number, got ndarray"):
        StageWeights.coerce([0.5, np.full((1, 1), bad)])


def test_weights_per_step_sequence_is_honored():
    K = KernelMatrix.from_entries(np.array([[0.9, 0.1], [0.1, 0.9]]))
    Z0 = FeatureField(np.array([[1.0], [-1.0]]))
    states = step_states(ProposedStepper(K, [0.0, 1.0]), Z0, 2)
    assert np.array_equal(states[1], Z0.values)
    assert np.allclose(states[2], [[0.8], [-0.8]], rtol=0, atol=1e-15)


# evolve


def test_evolve_zero_steps_records_initial_only():
    Z0 = make_field(9, 3, 2)
    traj = evolve(Z0, MarkovStepper(make_balanced_kernel(9, 3)), 0)
    assert traj.steps == 0 and traj.mean.shape == (1, 2)
    assert l2_ratios(traj) == []


def test_evolve_markov_two_state_states(two_state_kernel, two_state_field):
    stepper = MarkovStepper(two_state_kernel)
    traj = evolve(two_state_field, stepper, 3)
    states = step_states(stepper, two_state_field, 3)
    expect = [0.8, 0.64, 0.512]
    for n, top in enumerate(expect, start=1):
        assert np.allclose(states[n], [[top], [-top]], rtol=0, atol=1e-12)
    assert traj.l2_norm[1] == pytest.approx(0.8 * math.sqrt(2.0), abs=1e-12)
    assert traj.variance[3] == pytest.approx(0.512**2, abs=1e-12)


def test_evolve_rejects_negative_step_count(two_state_kernel, two_state_field):
    with pytest.raises(ValueError):
        evolve(two_state_field, MarkovStepper(two_state_kernel), -1)


def test_evolve_blow_up_detection(exchange_kernel, two_state_field):
    with pytest.raises(BlowUpError) as err:
        evolve(two_state_field, ProposedStepper(exchange_kernel, 1.5), 100)
    # amplification is exactly 2 per step, so 2^40 is the first norm past 1e12
    assert err.value.step == 40
    assert err.value.max_abs == pytest.approx(2.0**40, rel=1e-12)
    partial = err.value.record
    assert partial.steps == 39
    for g in l2_ratios(partial):
        assert g == pytest.approx(2.0, abs=1e-9)


def test_markov_stepper_validates_kernel():
    with pytest.raises(ValueError):
        MarkovStepper(KernelMatrix.from_entries(np.array([[2.0, 1.0], [1.0, 3.0]])))


def test_markov_matches_proposed_at_unit_weight():
    K = make_balanced_kernel(10, 8)
    Z0 = make_field(11, 8, 2)
    a = step_states(MarkovStepper(K), Z0, 50)
    b = step_states(ProposedStepper(K, 1.0), Z0, 50)
    worst = max(float(np.max(np.abs(x - y))) for x, y in zip(a, b))
    assert worst <= 1e-14


# stability verdict


def test_cfl_zero_weight_always_stable(two_state_kernel):
    v = cfl_verdict(two_state_kernel, 0.0)
    assert v.spectral_radius == pytest.approx(1.0, abs=1e-12) and v.stable


def test_cfl_exchange_kernel_boundary(exchange_kernel):
    v = cfl_verdict(exchange_kernel, 1.0)
    assert v.spectral_radius == pytest.approx(1.0, abs=1e-12)
    assert v.stable
    assert v.critical_weight == pytest.approx(1.0, abs=1e-12)


def test_cfl_exchange_kernel_unstable(exchange_kernel):
    v = cfl_verdict(exchange_kernel, 1.5)
    assert v.spectral_radius == pytest.approx(2.0, abs=1e-9)
    assert not v.stable


def test_cfl_two_state_critical_weight(two_state_kernel):
    v = cfl_verdict(two_state_kernel, 0.5)
    assert v.stable
    assert v.critical_weight == pytest.approx(10.0, abs=1e-9)


def test_cfl_rejects_nonsymmetric():
    K = KernelMatrix.from_entries(np.array([[0.5, 0.5], [0.7, 0.3]]))
    with pytest.raises(ValueError):
        cfl_verdict(K, 0.5)


# backward diffusion: the proposed step with a negative weight


def test_reverse_two_state_growth(two_state_kernel, two_state_field):
    stepper = ProposedStepper(two_state_kernel, -1.0)
    states = step_states(stepper, two_state_field, 2)
    assert np.allclose(states[1], [[1.2], [-1.2]], rtol=0, atol=1e-12)
    assert np.allclose(states[2], [[1.44], [-1.44]], rtol=0, atol=1e-12)
    for g in l2_ratios(evolve(two_state_field, stepper, 2)):
        assert g == pytest.approx(1.2, abs=1e-12)


def test_reverse_growth_bounded(two_state_kernel):
    # Growth per step is at most 1 + 2w for symmetric doubly stochastic K.
    w = 0.8
    Z0 = make_field(12, 2, 1)
    traj = evolve(Z0, ProposedStepper(two_state_kernel, -w), 20)
    for g in l2_ratios(traj):
        assert g <= 1.0 + 2.0 * w + 1e-12


def test_forward_then_reverse_composition_error():
    K = make_balanced_kernel(13, 6)
    Z0 = make_field(14, 6, 2).values
    w = 0.3
    back = step_proposed(step_proposed(Z0, K, w), K, -w)
    L = K.entries - np.eye(6)
    predicted = -(w * w) * (L @ (L @ Z0))
    assert np.max(np.abs((back - Z0) - predicted)) <= 1e-12
    # and the round trip genuinely misses Z0
    assert np.max(np.abs(back - Z0)) > 1e-6


# theorem checks


def test_mean_preserved_constant_field(two_state_kernel):
    Z0 = FeatureField(np.full((2, 2), 1.5))
    traj = evolve(Z0, MarkovStepper(two_state_kernel), 10)
    report = verify_mean_preservation(traj)
    assert report.passed and report.max_deviation == 0.0
    assert not report.assumption_violated


def test_mean_preserved_long_run():
    K = make_balanced_kernel(15, 16)
    Z0 = make_field(16, 16, 3)
    traj = evolve(Z0, ProposedStepper(K, 0.5), 200)
    report = verify_mean_preservation(traj)
    assert report.passed and report.max_deviation <= 1e-10


def test_mean_preservation_gate_on_nonsymmetric_kernel():
    K = KernelMatrix.from_entries(np.array([[0.5, 0.5], [0.7, 0.3]]))
    Z0 = FeatureField(np.array([[1.0], [-1.0]]))
    report = verify_mean_preservation(evolve(Z0, MarkovStepper(K), 5))
    assert report.assumption_violated and report.passed is None


def test_variance_decay_two_state(two_state_kernel, two_state_field):
    traj = evolve(two_state_field, MarkovStepper(two_state_kernel), 6)
    for n, v in enumerate(traj.variance):
        assert v == pytest.approx(0.64**n, rel=1e-12)
    report = verify_variance_decay(traj)
    assert report.passed and report.max_increase == 0.0
    assert report.first_violation_step is None


def test_variance_decay_fails_for_unstable_weight(exchange_kernel, two_state_field):
    traj = evolve(two_state_field, ProposedStepper(exchange_kernel, 1.5), 5)
    report = verify_variance_decay(traj)
    assert report.passed is False
    assert report.first_violation_step == 0
    assert report.max_increase > 1.0


def test_variance_decay_constant_field(two_state_kernel):
    Z0 = FeatureField(np.full((2, 1), 3.0))
    traj = evolve(Z0, MarkovStepper(two_state_kernel), 5)
    assert np.all(traj.variance == 0.0)
    assert verify_variance_decay(traj).passed


def test_energy_identity_single_markov_step():
    for seed in range(5):
        K = make_balanced_kernel(seed + 60, 7)
        Z0 = make_field(seed + 400, 7, 2)
        traj = evolve(Z0, MarkovStepper(K), 1)
        drop = traj.variance[0] - traj.variance[1]
        assert drop == pytest.approx(variance_dissipation(K, Z0), abs=1e-10)


@st.composite
def balanced_kernel_and_field(draw):
    M = draw(st.integers(2, 12))
    d = draw(st.integers(1, 3))
    seed = draw(st.integers(0, 2**31))
    bandwidth = draw(st.sampled_from([None, 0.5, 1.0, 3.0]))
    rng = nld.SplitMix64(nld.derive_seed(seed, "identities"))
    K = nld.symmetric_stochastic_kernel(FeatureField(rng.normals((M, 2))), bandwidth=bandwidth)
    Z = FeatureField(draw(st.sampled_from([0.1, 1.0, 10.0])) * rng.normals((M, d)))
    return K, Z


@given(balanced_kernel_and_field())
def test_diffusion_identities_on_drawn_kernels(case):
    # verify-theory's constant_annihilation, mean_zero and energy_identity
    # checks, with their tolerances, on drawn balanced kernels.
    K, Z = case
    const = FeatureField(np.full(Z.values.shape, 0.7))
    assert np.max(np.abs(apply_diffusion(K, const).values)) <= 1e-12
    assert np.max(np.abs(apply_diffusion(K, Z).values.sum(axis=0))) <= 1e-10
    traj = evolve(Z, MarkovStepper(K), 1)
    drop = traj.variance[0] - traj.variance[1]
    assert abs(drop - variance_dissipation(K, Z)) <= 1e-10


def test_variance_dissipation_requires_balanced_kernel():
    K = KernelMatrix.from_entries(np.array([[0.5, 0.5], [0.7, 0.3]]))
    with pytest.raises(ValueError):
        variance_dissipation(K, FeatureField(np.array([[1.0], [0.0]])))


def test_decay_rate_two_state(two_state_kernel, two_state_field):
    traj = evolve(two_state_field, MarkovStepper(two_state_kernel), 200)
    fit = estimate_decay_rate(traj)
    assert fit.lambda_hat == pytest.approx(-math.log(0.8), rel=1e-6)
    assert fit.r_squared >= 0.9999


def test_decay_rate_needs_data(two_state_kernel):
    Z0 = FeatureField(np.full((2, 1), 2.0))
    traj = evolve(Z0, MarkovStepper(two_state_kernel), 10)
    with pytest.raises(InsufficientDataError):
        estimate_decay_rate(traj)


def test_decay_rate_against_spectral_gap():
    K = make_balanced_kernel(17, 8)
    vals, vecs = eig_symmetric(K.entries)
    lam2 = float(vals[1])
    Z0 = make_field(18, 8, 1)
    fit = estimate_decay_rate(evolve(Z0, MarkovStepper(K), 60))
    assert fit.lambda_hat >= (1.0 - lam2) - 1e-6
    eigstart = FeatureField(vecs[:, 1][:, None])
    fit2 = estimate_decay_rate(evolve(eigstart, MarkovStepper(K), 60))
    assert fit2.lambda_hat == pytest.approx(-math.log(lam2), rel=1e-6)


def test_decay_rate_stable_weighted_proposed():
    K = make_balanced_kernel(19, 8)
    vals, vecs = eig_symmetric(K.entries)
    lam2 = float(vals[1])
    w = 0.5
    eigstart = FeatureField(vecs[:, 1][:, None])
    fit = estimate_decay_rate(evolve(eigstart, ProposedStepper(K, w), 60))
    assert fit.lambda_hat == pytest.approx(-math.log(1.0 - w * (1.0 - lam2)), rel=1e-6)


def test_spectral_checks_reuse_the_kernel_spectrum(monkeypatch):
    K = make_balanced_kernel(21, 9)
    vals, vecs = K.spectrum()
    assert K.spectrum()[0] is vals and K.spectrum()[1] is vecs
    with pytest.raises(ValueError):
        vals[0] = 0.0
    with pytest.raises(ValueError):
        vecs[0, 0] = 0.0

    def no_decomposition(*args, **kwargs):
        raise AssertionError("the kernel was decomposed again")

    monkeypatch.setattr(nld.spectrum, "eig_symmetric", no_decomposition)
    assert cfl_verdict(K, 0.5).spectral_radius == np.max(np.abs(1.0 + 0.5 * (vals - 1.0)))
    assert poincare_constant(K) == 1.0 - vals[1]


# Poincare constant


def test_poincare_examples(two_state_kernel):
    assert poincare_constant(two_state_kernel) == pytest.approx(0.2, abs=1e-12)
    uniform = KernelMatrix.from_entries(np.full((4, 4), 0.25))
    assert poincare_constant(uniform) == pytest.approx(1.0, abs=1e-12)
    assert poincare_constant(KernelMatrix.from_entries(np.eye(3))) == 0.0


def test_poincare_rejects_unbalanced():
    K = KernelMatrix.from_entries(np.array([[0.5, 0.5], [0.7, 0.3]]))
    with pytest.raises(ValueError):
        poincare_constant(K)


def test_poincare_inequality_on_mean_zero_fields():
    for seed in range(5):
        K = make_balanced_kernel(seed + 80, 9)
        m = poincare_constant(K)
        raw = make_field(seed + 500, 9, 1).values
        z = raw - raw.mean(axis=0)
        diff = z[None, :, 0] - z[:, None, 0]
        lhs = float(np.sum(K.entries * diff * diff))
        assert lhs >= 2.0 * m * float(np.sum(z * z)) - 1e-10


# steady state of the original block: with a damping weight it drives the
# field to Z = 0.


def test_steady_state_zero_field_fixed_point():
    Z0 = FeatureField(np.zeros((3, 2)))
    curve = sup_norms(OriginalStepper(AffinityKernelSpec("rbf", bandwidth=1.0), -0.5), Z0, 10)
    assert curve[-1] == 0.0 and curve[-1] <= 1e-12


def test_steady_state_single_position_geometric():
    Z0 = FeatureField(np.array([[2.0]]))
    curve = sup_norms(OriginalStepper(AffinityKernelSpec("gaussian"), -0.5), Z0, 20)
    assert curve[-1] == 2.0 * 0.5**20 and curve[-1] <= 2e-6
    assert curve[0] == 2.0 and len(curve) == 21


def test_steady_state_wrong_sign_blows_up():
    Z0 = FeatureField(np.array([[2.0]]))
    with pytest.raises(BlowUpError) as err:
        evolve(Z0, OriginalStepper(AffinityKernelSpec("gaussian"), 0.5), 200)
    assert math.isinf(err.value.max_abs)
    assert l2_ratios(err.value.record)[0] == pytest.approx(1.5, abs=1e-12)


def test_steady_state_not_converged():
    Z0 = FeatureField(np.array([[2.0]]))
    curve = sup_norms(OriginalStepper(AffinityKernelSpec("gaussian"), -0.5), Z0, 3)
    assert curve[-1] == 0.25 and curve[-1] > 1e-10


# trajectory record plumbing


def test_trajectory_csv_layout(two_state_kernel, two_state_field):
    traj = evolve(two_state_field, MarkovStepper(two_state_kernel), 2)
    lines = traj.to_csv().splitlines()
    assert lines[0] == "step,mean_0,variance,l2,dist_to_mean"
    assert len(lines) == 4
    assert lines[1].startswith("0,")
    first = lines[1].split(",")
    assert float(first[1]) == 0.0
    assert float(first[2]) == pytest.approx(1.0, abs=1e-15)


def csv_digest(traj):
    return hashlib.sha256(traj.to_csv().encode()).hexdigest()


def test_trajectory_csv_bytes_are_pinned_for_a_two_channel_run():
    traj = evolve(make_field(44, 6, 2), ProposedStepper(make_balanced_kernel(43, 6), 0.5), 70)
    lines = traj.to_csv().splitlines()
    assert lines[:2] == [
        "step,mean_0,mean_1,variance,l2,dist_to_mean",
        "0,-0.7965579564611439,-0.10300324071541038,1.6104670960160616,3.6787889379105394,3.108504877927067",
    ]
    assert len(lines) == 72
    assert csv_digest(traj) == "c70830ba81947f203aae9de8a7a54f18f3bc388e68f907cf87a5a2cf2b904ebb"


def test_trajectory_csv_bytes_are_pinned_for_a_blow_up_partial_record(exchange_kernel):
    # Channel 0 grows by |1 - 2 * 1.2| = 1.4 per step and passes 1e12 at step
    # 83; channel 1's mean 0.375 is carried along.
    Z0 = FeatureField(np.array([[1.0, 0.25], [-1.0, 0.5]]))
    with pytest.raises(BlowUpError) as err:
        evolve(Z0, ProposedStepper(exchange_kernel, 1.2), 200)
    assert err.value.step == 83
    lines = err.value.record.to_csv().splitlines()
    assert lines[1] == "0,0.0,0.375,1.015625,1.5206906325745548,1.4252192813739224"
    assert lines[-1] == "82,0.0,0.375,9.369819697649753e+23,1368928025693.809,1368928025693.8093"
    assert len(lines) == 84
    assert csv_digest(err.value.record) == "988184cf25641f39a1bc48d844814ed853c1c4a198a44ca6da2d53a74db40e3a"


def test_trajectory_csv_tells_rows_apart_by_their_bits():
    # Rows 0, 2 and 4 are one row, formatted once; rows 1 and 5 differ from
    # it only in the sign of a zero.
    mean = np.array([[0.0, 1.0], [-0.0, 1.0], [0.0, 1.0], [1.5, 0.1], [0.0, 1.0], [-0.0, 1.0]])
    rest = np.array([0.25, 0.25, 0.25, 1e-300, 0.25, 0.25])
    traj = dynamics.TrajectoryRecord(mean, rest, rest.copy(), rest.copy(), "test")
    assert traj.to_csv().splitlines() == [
        "step,mean_0,mean_1,variance,l2,dist_to_mean",
        "0,0.0,1.0,0.25,0.25,0.25",
        "1,-0.0,1.0,0.25,0.25,0.25",
        "2,0.0,1.0,0.25,0.25,0.25",
        "3,1.5,0.1,1e-300,1e-300,1e-300",
        "4,0.0,1.0,0.25,0.25,0.25",
        "5,-0.0,1.0,0.25,0.25,0.25",
    ]


def test_trajectory_columns_are_read_only(exchange_kernel, two_state_field):
    traj = evolve(make_field(45, 4, 3), ProposedStepper(make_balanced_kernel(46, 4), 0.5), 5)
    with pytest.raises(BlowUpError) as err:
        evolve(two_state_field, ProposedStepper(exchange_kernel, 1.5), 100)
    for record in (traj, err.value.record):
        for column in columns(record):
            assert column.dtype == np.float64 and not column.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                column[0] = 1.0
    assert traj.mean.shape == (6, 3) and traj.variance.shape == (6,)
    assert err.value.record.mean.shape == (40, 1) and err.value.record.dist_to_mean.shape == (40,)


def test_trajectory_stats_are_nonnegative():
    K = make_balanced_kernel(21, 6)
    traj = evolve(make_field(22, 6, 2), ProposedStepper(K, 0.5), 30)
    assert traj.steps == 30 and len(traj.mean) == len(traj.l2_norm) == len(traj.dist_to_mean) == 31
    for column in (traj.variance, traj.l2_norm, traj.dist_to_mean):
        assert np.all(column >= 0.0)


# evolve on bare arrays: block statistics and the blow-up check


def stats_oracle(states):
    """The per-state statistics formula the columns are held to, bit for bit:
    (mean, variance, l2_norm, dist_to_mean), one row per state."""
    rows = []
    for values in states:
        mean = values.mean(axis=0)
        dist = float(np.linalg.norm(values - mean))
        rows.append((mean, dist * dist / values.shape[0], float(np.linalg.norm(values)), dist))
    return tuple(np.array(column) for column in zip(*rows))


def columns(traj):
    return traj.mean, traj.variance, traj.l2_norm, traj.dist_to_mean


def bits(stats):
    """Every float of the four columns, column by column, with each column's
    shape, as hex: equal means bitwise equal."""
    return [(c.shape, [float.hex(x) for x in c.ravel().tolist()]) for c in stats]


@given(
    k=st.integers(1, 64),
    M=st.integers(1, 512),
    d=st.integers(1, 6),
    scale=st.floats(-8.0, 8.0),
    seed=st.integers(0, 2**32),
)
@example(k=64, M=512, d=1, scale=0.0, seed=0)
@example(k=3, M=512, d=4, scale=3.0, seed=1)
@example(k=1, M=7, d=2, scale=-5.0, seed=2)
@example(k=2048, M=16, d=2, scale=1.0, seed=3)  # a full block of small states
def test_block_stats_are_bitwise_the_per_state_formula(k, M, d, scale, seed):
    rng = SplitMix64(seed)
    S = rng.normals((k, M, d)) * np.exp(scale * rng.normals((k, M, d)))
    S[0, 0] += 10.0**scale  # an off-center state: the mean is not near 0
    assert bits(dynamics._block_stats(S)) == bits(stats_oracle(S))


def stats_blocks_of(monkeypatch, states, Z0, spare=0):
    """Have evolve compute stats in blocks of ``states`` states of Z0's size."""
    monkeypatch.setattr(dynamics, "STATS_BLOCK_BYTES", states * Z0.values.nbytes + spare)


@pytest.mark.parametrize("num_steps", [0, 1, 63, 64, 65, 129])
@pytest.mark.parametrize("M, d", [(2, 1), (9, 3), (40, 2)])
def test_evolve_stats_match_per_state_formula_across_blocks(monkeypatch, num_steps, M, d):
    K = make_balanced_kernel(M + 30, M)
    Z0 = make_field(M + 31, M, d)
    for stepper in (ProposedStepper(K, 0.5), MarkovStepper(K)):
        plain = evolve(Z0, stepper, num_steps)
        with monkeypatch.context() as m:
            stats_blocks_of(m, 64, Z0, spare=Z0.values.nbytes - 1)
            blocked = evolve(Z0, stepper, num_steps)
        oracle = stats_oracle(step_states(stepper, Z0, num_steps))
        assert bits(columns(blocked)) == bits(oracle)
        assert bits(columns(plain)) == bits(columns(blocked))


@pytest.mark.parametrize("states", [0, 1, 3])
def test_evolve_stats_blocks_respect_the_byte_cap(monkeypatch, states):
    # A cap below two states still computes the stats two states at a time.
    Z0 = make_field(32, 6, 2)
    K = make_balanced_kernel(33, 6)
    stats_blocks_of(monkeypatch, states, Z0)
    stepper = ProposedStepper(K, 0.5)
    traj = evolve(Z0, stepper, 10)
    assert bits(columns(traj)) == bits(stats_oracle(step_states(stepper, Z0, 10)))


def test_evolve_blow_up_inside_the_second_block(monkeypatch, exchange_kernel, two_state_field):
    # |1 + 1.2 (-1 - 1)| = 1.4 per step: 1.4^n first passes 1e12 at n = 83,
    # past the first block of 64 states.
    stats_blocks_of(monkeypatch, 64, two_state_field)
    stepper = ProposedStepper(exchange_kernel, 1.2)
    with pytest.raises(BlowUpError) as err:
        evolve(two_state_field, stepper, 200)
    assert err.value.step == 83
    assert err.value.max_abs == pytest.approx(1.4**83, rel=1e-12)
    partial = err.value.record
    assert partial.steps == 82 and len(partial.mean) == 83
    states = step_states(stepper, two_state_field, 82)
    assert bits(columns(partial)) == bits(stats_oracle(states))
    assert float(np.max(np.abs(states[-1]))) <= dynamics.BLOWUP_LIMIT


def test_block_check_reports_a_blow_up_before_a_later_step_error():
    # The 1e13 weight of step 3 takes the state past the guard at step 4,
    # inside the first block; the step after it overflows its gaussian
    # affinity.  The earlier blow-up is what evolve reports.
    Z0 = FeatureField(np.array([[0.5], [0.25]]))
    stepper = OriginalStepper(AffinityKernelSpec("gaussian"), [0.5, 0.5, 0.5, 1e13] + [0.5] * 6)
    states = step_states(stepper, Z0, 4)
    with pytest.raises(NonFiniteError, match="affinity overflowed"):
        stepper.step(states[4], 4, 10, np.empty_like(Z0.values))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(BlowUpError) as err:
            evolve(Z0, stepper, 10)
    assert (err.value.step, err.value.max_abs, err.value.cause) == (4, 13086775371296.834, None)
    partial = err.value.record
    assert partial.steps == 3
    assert bits(columns(partial)) == bits(stats_oracle(states[:4]))
    assert csv_digest(partial) == "98033126ac05155526a67cf1f0fb6d1d469a175cf22f0e487946b22ed4fb72f1"


class NonFiniteAt:
    """A stepper that halves the state and plants ``value`` at step ``at``."""

    name = "non_finite_at"
    kernel = None
    autonomous = False

    def __init__(self, at, value):
        self.at = at
        self.value = value

    def step(self, Z, n, total, out):
        np.multiply(0.5, Z, out=out)
        if n == self.at:
            out[-1, -1] = self.value
        return out


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("at", [0, 4, 70])
def test_non_finite_step_is_an_inf_blow_up_with_the_partial_record(monkeypatch, value, at):
    Z0 = make_field(34, 5, 2)
    stats_blocks_of(monkeypatch, 64, Z0)
    with pytest.raises(BlowUpError) as err:
        evolve(Z0, NonFiniteAt(at, value), 100)
    assert err.value.step == at + 1
    assert err.value.max_abs == math.inf
    partial = err.value.record
    assert partial.steps == at and partial.stepper == "non_finite_at"
    assert partial.kernel_flags is None
    expect = [Z0.values * 0.5**n for n in range(at + 1)]
    assert bits(columns(partial)) == bits(stats_oracle(expect))


@pytest.mark.parametrize(
    "stepper, Z0",
    [
        # The weight overflows the update to inf.
        (ProposedStepper(KernelMatrix.from_entries(np.full((2, 2), 0.5)), 1e300),
         np.array([[1e10], [-1e10]])),
        # Jumps past the guard at once.
        (MarkovStepper(KernelMatrix.from_entries(np.full((2, 2), 0.5))),
         np.array([[1e300], [1e300]])),
        # The weight overflows the update to inf.
        (OriginalStepper(AffinityKernelSpec("rbf", bandwidth=1.0), 1e300),
         np.array([[1e10], [-1e10]])),
        # The gaussian affinity overflows.
        (OriginalStepper(AffinityKernelSpec("gaussian"), 2.0), np.array([[1.0], [0.5]])),
    ],
    ids=["proposed", "markov", "original_update", "original_affinity"],
)
def test_blow_up_runs_emit_no_runtime_warning(stepper, Z0):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(BlowUpError) as err:
            evolve(FeatureField(Z0), stepper, 20)
    assert err.value.max_abs > dynamics.BLOWUP_LIMIT


def test_original_array_step_names_the_overflowing_pair():
    Z = np.array([[1.0], [30.0], [0.5]])
    stepper = OriginalStepper(AffinityKernelSpec("gaussian"), -0.5)
    with pytest.raises(NonFiniteError, match=r"affinity overflowed at pair \(1, 1\)"):
        stepper.step(Z, 0, 1, np.empty_like(Z))
    with pytest.raises(NonFiniteError, match=r"affinity overflowed at pair \(1, 1\)"):
        build_kernel_matrix(FeatureField(Z), AffinityKernelSpec("gaussian"))


def test_original_stepper_stops_at_an_overflowed_row_sum():
    # exp(709) is finite, but rows 0-2 sum three of them to inf: the
    # stepper must name the row, not step on with those rows of P zeroed,
    # and evolve must end there as it does when an affinity overflows.
    z = math.sqrt(709.0)
    Z = np.array([[z], [z], [z], [0.0]])
    stepper = OriginalStepper(AffinityKernelSpec("gaussian"), 0.5)
    # A step leaves overflow warnings to its caller, as evolve does.
    with np.errstate(over="ignore"), pytest.raises(RowSumOverflowError, match="row 0 has degenerate sum inf"):
        stepper.step(Z, 0, 1, np.empty_like(Z))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(BlowUpError) as err:
            evolve(FeatureField(Z), stepper, 3)
    assert (err.value.step, err.value.max_abs) == (1, math.inf)
    assert err.value.record.steps == 0


class DegenerateAt(NonFiniteAt):
    """A stepper that halves the state and finds a row sum overflowed at ``at``."""

    name = "degenerate_at"

    def step(self, Z, n, total, out):
        if n == self.at:
            raise RowSumOverflowError(2, self.value)
        return np.multiply(0.5, Z, out=out)


@pytest.mark.parametrize("at", [0, 4, 70])
def test_degenerate_row_ends_evolve_with_the_partial_record(monkeypatch, at):
    Z0 = make_field(35, 5, 2)
    stats_blocks_of(monkeypatch, 64, Z0)
    with pytest.raises(BlowUpError, match=r"step \d+ \(max abs inf\): row 2 has degenerate sum inf;") as err:
        evolve(Z0, DegenerateAt(at, math.inf), 100)
    assert (err.value.step, err.value.max_abs) == (at + 1, math.inf)
    assert (err.value.cause.row, err.value.cause.row_sum) == (2, math.inf)
    partial = err.value.record
    assert partial.steps == at and partial.stepper == "degenerate_at"
    expect = [Z0.values * 0.5**n for n in range(at + 1)]
    assert bits(columns(partial)) == bits(stats_oracle(expect))


def test_original_stepper_affinity_overflow_is_the_blow_up_cause():
    # Z <- Z + 2 P Z triples the state each step; by step 5 exp(x . x)
    # overflows while the state is still far below the blow-up guard.
    Z0 = FeatureField(np.array([[1.0], [0.5]]))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(BlowUpError, match=r"step 5 \(max abs inf\): affinity overflowed at pair \(0, 0\)$") as err:
            evolve(Z0, OriginalStepper(AffinityKernelSpec("gaussian"), 2.0), 50)
    assert (err.value.step, err.value.max_abs) == (5, math.inf)
    assert type(err.value.cause) is NonFiniteError
    assert err.value.record.steps == 4 and err.value.record.mean.shape == (5, 1)


def test_original_stepper_collapsed_median_bandwidth_is_the_blow_up_cause():
    # Coincident positions have a median pairwise distance of 0.
    Z0 = FeatureField(np.full((3, 2), 0.25))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(BlowUpError, match=r"step 1 \(max abs inf\): median pairwise distance 0.0") as err:
            evolve(Z0, OriginalStepper(AffinityKernelSpec("rbf"), -0.5), 5)
    assert (err.value.step, err.value.max_abs) == (1, math.inf)
    assert type(err.value.cause) is BandwidthError
    assert err.value.record.steps == 0 and err.value.record.mean.shape == (1, 2)


# evolve stops stepping at a repeated state


def first_repeat(states):
    """(q, p) for the first state q that is bit for bit state q - p, or None."""
    seen = {}
    for q, Z in enumerate(states):
        p = q - seen.setdefault(Z.tobytes(), q)
        if p:
            return q, p
    return None


def counting_steps(stepper):
    """The step indices of the stepper's ``step`` calls from now on, in order."""
    calls = []
    step = stepper.step

    def counted(Z, n, total, out):
        calls.append(n)
        return step(Z, n, total, out)

    stepper.step = counted
    return calls


def gaussian_kernel(Z0, normalize):
    return normalize(build_kernel_matrix(Z0, AffinityKernelSpec("gaussian")))


def state_field(seed, M, d):
    """The normal initial state ``nld evolve`` draws for ``seed``."""
    return FeatureField(SplitMix64(derive_seed(seed, "state")).normals((M, d)))


def markov_rbf(Z0):
    return MarkovStepper(normalize_rows(build_kernel_matrix(Z0, AffinityKernelSpec("rbf"))))


def scaled_field(seed, M, d, scale):
    return FeatureField(make_field(seed, M, d).values * scale)


# Each case: the initial state and the stepper, and the first repeated state
# q with its period p.
REPEATS = {
    "proposed_fixed_point_M5_d1": (
        lambda: (Z0 := make_field(101, 5, 1), ProposedStepper(gaussian_kernel(Z0, sinkhorn_normalize), 0.5)),
        (65, 1),
    ),
    "proposed_fixed_point_M6_d4": (
        lambda: (make_field(37, 6, 4), ProposedStepper(make_balanced_kernel(36, 6), 0.5)),
        (86, 1),
    ),
    "proposed_fixed_point_M3_d2": (
        lambda: (make_field(35, 3, 2), ProposedStepper(make_balanced_kernel(34, 3), 0.9)),
        (35, 1),
    ),
    "markov_fixed_point_M7_d2": (
        lambda: (Z0 := make_field(100, 7, 2), MarkovStepper(gaussian_kernel(Z0, normalize_rows))),
        (75, 1),
    ),
    "markov_exchange_M2_d2": (
        lambda: (
            FeatureField(np.array([[1.0, 0.25], [-1.0, 0.5]])),
            MarkovStepper(KernelMatrix.from_entries(np.array([[0.0, 1.0], [1.0, 0.0]]))),
        ),
        (2, 2),
    ),
    "markov_period_2_M4_d1": (
        lambda: (Z0 := make_field(102, 4, 1), MarkovStepper(gaussian_kernel(Z0, sinkhorn_normalize))),
        (22, 2),
    ),
    "markov_period_3_M34_d2": (lambda: (Z0 := state_field(2, 34, 2), markov_rbf(Z0)), (46, 3)),
    "markov_period_6_M33_d4": (lambda: (Z0 := state_field(1, 33, 4), markov_rbf(Z0)), (36, 6)),
    # The markov row op of the evolve benchmark, seed 0, pass 0.
    "markov_period_3_M256_d4": (lambda: (Z0 := state_field(579362556, 256, 4), markov_rbf(Z0)), (56, 3)),
    "original_fixed_point_M5_d2": (
        lambda: (scaled_field(319, 5, 2, 10.0), OriginalStepper(AffinityKernelSpec("rbf", bandwidth=1.0), -1.0)),
        (2, 1),
    ),
    "original_period_2_M5_d1": (
        lambda: (scaled_field(312, 5, 1, 0.1), OriginalStepper(AffinityKernelSpec("rbf"), -2.0)),
        (85, 2),
    ),
    "original_period_2_M4_d2": (
        lambda: (scaled_field(318, 4, 2, 10.0), OriginalStepper(AffinityKernelSpec("gaussian"), -1.5)),
        (62, 2),
    ),
    "original_period_4_M3_d4": (
        lambda: (scaled_field(331, 3, 4, 10.0), OriginalStepper(AffinityKernelSpec("rbf"), -2.0)),
        (103, 4),
    ),
}


@pytest.mark.parametrize("make, repeat", REPEATS.values(), ids=REPEATS.keys())
def test_evolve_stops_at_a_repeat_with_the_stats_of_full_stepping(monkeypatch, make, repeat):
    Z0, stepper = make()
    states = step_states(stepper, Z0, 400)
    assert first_repeat(states) == repeat
    stats_blocks_of(monkeypatch, 16, Z0)
    calls = counting_steps(stepper)
    traj = evolve(Z0, stepper, 400)
    assert bits(columns(traj)) == bits(stats_oracle(states))
    # The first block whose last state is q or later shows the repeat, and
    # its states are the last ones stepped.
    q = repeat[0]
    assert calls == list(range(16 * (q // 16 + 1) - 1))


@pytest.mark.parametrize(
    "stepper, Z0, num_steps",
    [
        # A fixed point at step 65 with the one weight 0.5.
        (ProposedStepper(gaussian_kernel(make_field(101, 5, 1), sinkhorn_normalize), [0.5] * 400),
         make_field(101, 5, 1), 400),
        # Period 4 from step 99 with the one weight -2.0.
        (OriginalStepper(AffinityKernelSpec("rbf"), [-2.0] * 400), scaled_field(331, 3, 4, 10.0), 400),
        # Halving reaches 0.0 near step 1080; this stepper is not autonomous.
        (NonFiniteAt(-1, 0.0), make_field(36, 3, 2), 1500),
    ],
    ids=["proposed_weight_list", "original_weight_list", "undeclared"],
)
def test_a_stepper_that_may_depend_on_n_is_stepped_every_time(monkeypatch, stepper, Z0, num_steps):
    states = step_states(stepper, Z0, num_steps)
    assert first_repeat(states) is not None
    stats_blocks_of(monkeypatch, 16, Z0)
    calls = counting_steps(stepper)
    traj = evolve(Z0, stepper, num_steps)
    assert calls == list(range(num_steps))
    assert bits(columns(traj)) == bits(stats_oracle(states))


class SignOfZero:
    """(z, x) <- (-z, x copysign(1, z)) on a (1, 2) state: a step that reads
    only the state's bits.  From (0, 5) the states run (-0, 5), (0, -5),
    (-0, -5), (0, 5): period 4, though each state equals the one before it
    as floats every other step."""

    name = "sign_of_zero"
    kernel = None
    autonomous = True

    def step(self, Z, n, total, out):
        np.negative(Z[:, :1], out=out[:, :1])
        np.multiply(Z[:, 1:], np.copysign(1.0, Z[:, :1]), out=out[:, 1:])
        return out


def test_states_that_differ_only_in_the_sign_of_a_zero_are_not_a_repeat(monkeypatch):
    plus, minus = np.array([[0.0, 1.0]]), np.array([[-0.0, 1.0]])
    assert dynamics._repeat_period(np.stack([plus, minus])) == 0
    assert dynamics._repeat_period(np.stack([minus, plus, minus])) == 2
    Z0 = FeatureField(np.array([[0.0, 5.0]]))
    stats_blocks_of(monkeypatch, 16, Z0)
    traj = evolve(Z0, SignOfZero(), 40)
    assert traj.mean[:, 1].tolist() == [5.0, 5.0, -5.0, -5.0] * 10 + [5.0]
    assert bits(columns(traj)) == bits(stats_oracle(step_states(SignOfZero(), Z0, 40)))


def test_evolve_steps_at_most_one_block_past_a_blow_up(exchange_kernel):
    # 1.4^n passes 1e12 at step 83.  By bytes alone a block would hold
    # 16384 states of this size; it holds MAX_BLOCK_STATES.
    Z0 = FeatureField(np.array([[1.0, 0.25], [-1.0, 0.5]]))
    assert dynamics.STATS_BLOCK_BYTES // Z0.values.nbytes == 16384
    stepper = ProposedStepper(exchange_kernel, 1.2)
    calls = counting_steps(stepper)
    with pytest.raises(BlowUpError) as err:
        evolve(Z0, stepper, 20000)
    assert err.value.step == 83 and err.value.record.steps == 82
    assert len(calls) == dynamics.MAX_BLOCK_STATES - 1
