"""Whole-battery acceptance checks.

Each test pins explicit numeric tolerances and a wall-clock budget, so the
module doubles as a regression gate for both numerics and performance.
Random instances are frozen through the seed-derivation scheme; nothing
here depends on global RNG state.
"""

import json
import math
import time

import numpy as np
import pytest

from nld import (
    AffinityKernelSpec,
    BlowUpError,
    FeatureField,
    Hyper,
    MarkovStepper,
    NetworkConfig,
    ProposedStepper,
    SplitMix64,
    StageConfig,
    apply_diffusion,
    cfl_verdict,
    derive_seed,
    eig_symmetric,
    estimate_decay_rate,
    evolve,
    extract_stage_spectra,
    generate_task,
    init_params,
    poincare_constant,
    symmetric_stochastic_kernel,
    symmetrize,
    train,
    verify_mean_preservation,
)
from nld.cli import main
from nld.dynamics import BLOWUP_LIMIT, OriginalStepper

from conftest import l2_ratios, net_gradients, net_loss, randint, save_matrix_csv, step_states, sup_norms


def test_operator_identity_battery():
    """Constant annihilation, mean conservation, and the energy identity
    across 100 random balanced kernels (M up to 32, d up to 4)."""
    start = time.monotonic()
    worst_const = worst_mean = worst_energy = 0.0
    worst_quad = -math.inf
    for i in range(100):
        rng = SplitMix64(derive_seed(1, "instance", i))
        M = 2 + int(randint(rng, 31))
        d = 1 + int(randint(rng, 4))
        K = symmetric_stochastic_kernel(FeatureField(rng.normals((M, d))))
        Z = rng.normals((M, d))
        const = FeatureField(np.full((M, d), 0.7))
        worst_const = max(
            worst_const, float(np.max(np.abs(apply_diffusion(K, const).values)))
        )
        LZ = apply_diffusion(K, FeatureField(Z)).values
        worst_mean = max(worst_mean, float(np.max(np.abs(LZ.sum(axis=0)))))
        quad = float(np.sum(Z * LZ))
        worst_quad = max(worst_quad, quad)
        diff = Z[:, None, :] - Z[None, :, :]
        energy = -0.5 * float(np.sum(K.entries * np.sum(diff * diff, axis=2)))
        worst_energy = max(worst_energy, abs(quad - energy))
    assert worst_const <= 1e-12
    assert worst_mean <= 1e-10
    assert worst_quad <= 1e-12
    assert worst_energy <= 1e-10
    assert time.monotonic() - start < 5.0


def test_markov_residual_equivalence_battery():
    """The plain stochastic update and the unit-weight residual update agree
    to 1e-14 state-by-state over 100 steps, on 20 random instances."""
    start = time.monotonic()
    worst = 0.0
    for i in range(20):
        rng = SplitMix64(derive_seed(2, "instance", i))
        M = 2 + int(randint(rng, 15))
        d = 1 + int(randint(rng, 3))
        K = symmetric_stochastic_kernel(FeatureField(rng.normals((M, d))))
        Z0 = FeatureField(rng.normals((M, d)))
        markov = step_states(MarkovStepper(K), Z0, 100)
        residual = step_states(ProposedStepper(K, 1.0), Z0, 100)
        for a, b in zip(markov, residual):
            worst = max(worst, float(np.max(np.abs(a - b))))
    assert worst <= 1e-14
    assert time.monotonic() - start < 2.0


def test_two_state_theorem_suite(two_state_kernel, two_state_field):
    """Closed-form checks on the 2x2 kernel [[0.9,0.1],[0.1,0.9]]: exact mean
    conservation, per-step variance ratio 0.64, fitted rate -ln 0.8, and
    spectral-gap constant 0.2."""
    start = time.monotonic()
    traj = evolve(two_state_field, MarkovStepper(two_state_kernel), 200)

    assert verify_mean_preservation(traj).max_deviation <= 1e-12

    variances = traj.variance
    ratio_err = max(abs(variances[n + 1] / variances[n] - 0.64) for n in range(200))
    assert ratio_err <= 1e-10

    fit = estimate_decay_rate(traj)
    expected_rate = -math.log(0.8)
    assert abs(fit.lambda_hat - expected_rate) / expected_rate <= 1e-6

    assert abs(poincare_constant(two_state_kernel) - 0.2) <= 1e-10
    assert time.monotonic() - start < 1.0


def test_random_kernel_decay_rate_bounds():
    """On 20 random balanced kernels (M=16) the fitted decay rate is at least
    the spectral-gap prediction, with equality when the run starts on the
    second eigenvector."""
    start = time.monotonic()
    for i in range(20):
        rng = SplitMix64(derive_seed(4, "instance", i))
        K = symmetric_stochastic_kernel(FeatureField(rng.normals((16, 3))))
        Z0 = FeatureField(rng.normals((16, 2)))
        vals, vecs = eig_symmetric(K.entries)
        prediction = -math.log(float(vals[1]))

        fit = estimate_decay_rate(evolve(Z0, MarkovStepper(K), 60))
        assert fit.lambda_hat >= prediction - 1e-6

        Zv = FeatureField(np.tile(vecs[:, 1][:, None], (1, 2)))
        eig_fit = estimate_decay_rate(evolve(Zv, MarkovStepper(K), 60))
        assert abs(eig_fit.lambda_hat - prediction) <= 1e-6
    assert time.monotonic() - start < 5.0


def test_exchange_kernel_stability_dichotomy(exchange_kernel, two_state_field):
    """Weight 1.0 sits exactly on the stability boundary of the exchange
    kernel; weight 1.5 doubles the state each step and trips the blow-up
    guard well before step 50."""
    start = time.monotonic()
    stable = cfl_verdict(exchange_kernel, 1.0)
    assert abs(stable.spectral_radius - 1.0) <= 1e-12
    assert stable.stable

    unstable = cfl_verdict(exchange_kernel, 1.5)
    assert abs(unstable.spectral_radius - 2.0) <= 1e-9
    assert not unstable.stable

    with pytest.raises(BlowUpError) as info:
        evolve(two_state_field, ProposedStepper(exchange_kernel, 1.5), 50)
    assert info.value.step < 50
    growth = l2_ratios(info.value.record)
    assert max(abs(g - 2.0) for g in growth) <= 1e-9
    assert time.monotonic() - start < 1.0


def test_original_block_damping():
    """A single position halves exactly each step under weight -0.5; a
    multi-position rbf field is driven below 1e-6 sup norm within 500
    steps."""
    start = time.monotonic()
    gaussian = OriginalStepper(AffinityKernelSpec("gaussian"), -0.5)
    curve = sup_norms(gaussian, FeatureField([[2.0]]), 20)
    assert len(curve) == 21
    assert curve[-1] == 2.0 * 0.5**20 and curve[-1] <= 2e-6
    assert all(curve[n] == 2.0 * 0.5**n for n in range(21))

    Z0 = FeatureField(SplitMix64(derive_seed(6, "steady")).normals((6, 2)))
    rbf = OriginalStepper(AffinityKernelSpec("rbf", bandwidth=None), -0.5)
    curve = sup_norms(rbf, Z0, 500)
    assert all(c <= BLOWUP_LIMIT for c in curve)  # no blow-up on the way
    assert curve[-1] <= 1e-6
    assert time.monotonic() - start < 2.0


def test_eigensolver_battery():
    """Reconstruction, trace, and symmetrized quadratic-form identities over
    50 random symmetric matrices up to 64x64."""
    start = time.monotonic()
    for i in range(50):
        rng = SplitMix64(derive_seed(7, "instance", i))
        n = 2 + int(randint(rng, 63))
        A = symmetrize(rng.normals((n, n)))
        vals, vecs = eig_symmetric(A)
        fnorm = float(np.linalg.norm(A))
        recon = float(np.linalg.norm(vecs @ np.diag(vals) @ vecs.T - A))
        assert recon <= 1e-9 * fnorm
        assert abs(float(np.sum(vals)) - float(np.trace(A))) <= 1e-9 * fnorm

        W = rng.normals((n, n))
        z = rng.normals((n,))
        assert abs(float(z @ W @ z) - float(z @ symmetrize(W) @ z)) <= 1e-10
    assert time.monotonic() - start < 10.0


def test_gradient_check_battery():
    """Central finite differences confirm every analytic gradient element in
    all 24 formulation x depth x kernel configurations."""
    start = time.monotonic()
    kernel_specs = [
        AffinityKernelSpec("gaussian"),
        AffinityKernelSpec("rbf", bandwidth=1.0),
        AffinityKernelSpec("dirac_delta"),
        AffinityKernelSpec(
            "embedded", theta=np.array([[0.3, -0.2], [0.1, 0.4]]), inner=AffinityKernelSpec("gaussian")
        ),
    ]
    # A batch of one sample.
    X = SplitMix64(derive_seed(0, "fdfield")).normals((5, 2))[None]
    label = np.array([1])
    eps = 1e-5
    worst = 0.0
    for formulation in ("proposed", "original"):
        for sub_blocks in (1, 2, 4):
            for spec in kernel_specs:
                stage = StageConfig(formulation, sub_blocks, spec, placement=1)
                config = NetworkConfig(5, 2, 3, 2, 3, stage=stage)
                params = init_params(config, 0)
                _, grads = net_gradients(config, params, X, label)
                for name, grad in grads.items():
                    for flat in range(grad.size):
                        idx = np.unravel_index(flat, grad.shape)
                        pert = {k: v.copy() for k, v in params.items()}
                        pert[name][idx] += eps
                        hi = net_loss(config, pert, X, label)
                        pert[name][idx] -= 2.0 * eps
                        lo = net_loss(config, pert, X, label)
                        fd = (hi - lo) / (2.0 * eps)
                        analytic = float(grad[idx])
                        err = abs(analytic - fd) / max(abs(analytic), abs(fd), 1e-8)
                        worst = max(worst, err)
    assert worst <= 1e-5
    assert time.monotonic() - start < 60.0


def test_training_direction_and_convergence():
    """On the seed-0 synthetic task the kernel-frozen formulation trains at
    every depth while the per-step-kernel formulation fails at depth 4,
    and the learned stage spectra lean positive."""
    start = time.monotonic()
    task = generate_task(10, 5, 2, 512, 0)
    hyper = Hyper()

    def build(formulation, sub_blocks):
        stage = StageConfig(formulation, sub_blocks, AffinityKernelSpec("gaussian"), 1)
        return NetworkConfig(10, 5, 2, 3, 32, stage=stage)

    proposed = {}
    for n in (1, 2, 4, 8):
        history = train(build("proposed", n), task, hyper, seed=0)
        assert not history.diverged, f"depth {n} run diverged"
        assert history.per_epoch[-1].train_acc >= 0.9
        proposed[n] = history

    original = train(build("original", 4), task, hyper, seed=0)
    p_loss = proposed[4].per_epoch[-1].train_loss
    if original.diverged:
        o_loss = math.inf
    else:
        o_loss = original.per_epoch[-1].train_loss
    assert p_loss < o_loss
    assert original.diverged or o_loss >= 2.0 * p_loss

    reports = extract_stage_spectra(proposed[4])
    pos = sum(r.num_positive for r in reports)
    neg = sum(r.num_negative for r in reports)
    assert pos > neg
    assert time.monotonic() - start < 600.0


def _run_twice(tmp_path, command, config, tag):
    out_dirs = []
    for suffix in ("a", "b"):
        cfg_path = tmp_path / f"{tag}-{suffix}.json"
        cfg_path.write_text(json.dumps(config))
        out = tmp_path / f"{tag}-{suffix}"
        assert main([command, "--config", str(cfg_path), "--out", str(out)]) == 0
        out_dirs.append(out)
    return out_dirs


def _assert_identical_runs(out_a, out_b):
    rep_a = json.loads((out_a / "report.json").read_text())
    rep_b = json.loads((out_b / "report.json").read_text())
    for rep in (rep_a, rep_b):
        rep.pop("wall_time_seconds")
        rep["config"].pop("out_dir")
    assert rep_a == rep_b
    for name in rep_a["artifacts"]:
        if name != "report.json":
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_artifact_determinism(tmp_path):
    """Re-running every command with the same seed reproduces each artifact
    byte for byte, timing fields aside; retraining in-process reproduces the
    parameters bitwise."""
    matrix = tmp_path / "matrix.csv"
    matrix.write_text(save_matrix_csv(symmetrize(SplitMix64(10).normals((6, 6)))))
    tiny_task = {"num_positions": 5, "num_channels": 2, "num_classes": 2, "num_samples": 24}
    tiny_net = {
        "trunk_blocks": 2,
        "hidden_channels": 3,
        "stage": {
            "formulation": "proposed",
            "sub_blocks": 2,
            "placement": 1,
            "kernel": {"variant": "gaussian"},
        },
    }
    tiny_hyper = {"epochs": 3, "batch_size": 8}
    runs = [
        ("verify-theory", {"num_positions": 8, "steps": 40}),
        (
            "evolve",
            {
                "stepper": "markov",
                "num_positions": 2,
                "num_channels": 1,
                "steps": 20,
                "kernel": {"variant": "rbf", "bandwidth": math.sqrt(2.0 / math.log(9.0))},
                "normalization": "row",
                "initial": {"kind": "explicit", "values": [[1.0], [-1.0]]},
            },
        ),
        ("spectrum", {"input_path": str(matrix)}),
        ("train", {"task": tiny_task, "net": tiny_net, "hyper": tiny_hyper}),
        (
            "compare",
            {
                "task": tiny_task,
                "net": {"trunk_blocks": 2, "hidden_channels": 3},
                "variants": [
                    {"formulation": "proposed", "sub_blocks": 1},
                    {"formulation": "proposed", "sub_blocks": 2},
                ],
                "hyper": tiny_hyper,
            },
        ),
    ]
    for command, config in runs:
        out_a, out_b = _run_twice(tmp_path, command, config, command)
        _assert_identical_runs(out_a, out_b)

    task = generate_task(5, 2, 2, 24, 0)
    stage = StageConfig("proposed", 2, AffinityKernelSpec("gaussian"), 1)
    config = NetworkConfig(5, 2, 2, 2, 3, stage=stage)
    hyper = Hyper(epochs=3, batch_size=8)
    first = train(config, task, hyper, seed=0)
    second = train(config, task, hyper, seed=0)
    assert all(
        np.array_equal(first.final_params[k], second.final_params[k])
        for k in first.final_params
    )
