import math
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from nld import (
    ConvergenceError,
    NonFiniteError,
    SpectrumReport,
    SplitMix64,
    derive_seed,
    eig_symmetric,
    spectrum_report,
    symmetrize,
)
from nld import cli, kernels, spectrum
from nld.spectrum import _pair_entries, _round_robin_gather, _round_robin_shift

from conftest import classify_spectrum, eig_symmetric_two_halves


def random_symmetric(seed, n):
    rng = SplitMix64(derive_seed(seed, "sym", n))
    A = rng.normals((n, n))
    return 0.5 * (A + A.T)


def cofactor_det(A):
    n = A.shape[0]
    if n == 1:
        return float(A[0, 0])
    total = 0.0
    for j in range(n):
        minor = np.delete(np.delete(A, 0, axis=0), j, axis=1)
        total += ((-1.0) ** j) * float(A[0, j]) * cofactor_det(minor)
    return total


# symmetrize


def test_symmetrize_fixes_nothing_on_symmetric_input():
    A = random_symmetric(1, 5)
    assert np.array_equal(symmetrize(A), A)


def test_symmetrize_hand_example():
    out = symmetrize(np.array([[1.0, 2.0], [0.0, 1.0]]))
    assert np.array_equal(out, np.array([[1.0, 1.0], [1.0, 1.0]]))


def test_symmetrize_kills_antisymmetric_part():
    A = np.array([[0.0, 3.0], [-3.0, 0.0]])
    assert np.array_equal(symmetrize(A), np.zeros((2, 2)))


def test_symmetrize_keeps_finite_entries_near_the_float_limit_finite():
    W = np.array([[1.7e308, 1.6e308], [1.5e308, -1.7e308]])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        S = symmetrize(W)
    assert np.array_equal(S, [[1.7e308, 1.55e308], [1.55e308, -1.7e308]])


def test_symmetrize_rejects_nonsquare_and_nonfinite():
    with pytest.raises(ValueError):
        symmetrize(np.zeros((2, 3)))
    with pytest.raises(NonFiniteError):
        symmetrize(np.array([[1.0, np.inf], [0.0, 1.0]]))


# eig_symmetric


def test_eig_diagonal_sorted_descending():
    vals, vecs = eig_symmetric(np.diag([3.0, 1.0, 2.0]))
    assert np.array_equal(vals, [3.0, 2.0, 1.0])
    assert np.array_equal(np.abs(vecs), np.eye(3)[:, [0, 2, 1]])


def test_eig_exchange_matrix():
    vals, vecs = eig_symmetric(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert vals == pytest.approx([1.0, -1.0], abs=1e-14)
    r = 1.0 / math.sqrt(2.0)
    for k, target in enumerate((np.array([r, r]), np.array([r, -r]))):
        v = vecs[:, k]
        assert min(np.max(np.abs(v - target)), np.max(np.abs(v + target))) <= 1e-12


def test_eig_tied_eigenvalues_keep_input_order():
    vals, vecs = eig_symmetric(np.diag([2.0, 2.0, 1.0]))
    assert np.array_equal(vals, [2.0, 2.0, 1.0])
    assert np.array_equal(vecs, np.eye(3))


def test_eig_reconstruction_oracle():
    A = random_symmetric(11, 8)
    vals, vecs = eig_symmetric(A)
    assert np.max(np.abs(vecs @ np.diag(vals) @ vecs.T - A)) <= 1e-9


def test_eig_orthonormal_vectors_and_pairs():
    A = random_symmetric(12, 10)
    fnorm = float(np.linalg.norm(A))
    vals, vecs = eig_symmetric(A)
    assert np.max(np.abs(vecs.T @ vecs - np.eye(10))) <= 1e-10
    for k in range(10):
        assert np.max(np.abs(A @ vecs[:, k] - vals[k] * vecs[:, k])) <= 1e-8 * fnorm
    assert np.all(np.diff(vals) <= 0.0)


def test_eig_sum_matches_trace():
    for seed, n in ((20, 3), (21, 6), (22, 16)):
        A = random_symmetric(seed, n)
        vals, _ = eig_symmetric(A)
        assert abs(float(np.sum(vals)) - float(np.trace(A))) <= 1e-9 * np.linalg.norm(A)


def test_eig_product_matches_determinant_small():
    for seed, n in ((30, 2), (31, 3), (32, 4)):
        A = random_symmetric(seed, n)
        vals, _ = eig_symmetric(A)
        det = cofactor_det(A)
        assert float(np.prod(vals)) == pytest.approx(det, rel=1e-9, abs=1e-12)


def test_eig_rejects_asymmetric_and_nonfinite():
    for vectors in (True, False):
        with pytest.raises(ValueError, match="not symmetric"):
            eig_symmetric(np.array([[1.0, 2.0], [0.0, 1.0]]), vectors=vectors)
        with pytest.raises(NonFiniteError):
            eig_symmetric(np.array([[np.nan, 0.0], [0.0, 1.0]]), vectors=vectors)
        with pytest.raises(ValueError):
            eig_symmetric(np.zeros((2, 3)), vectors=vectors)


def test_eig_one_by_one_and_zero_matrix():
    vals, vecs = eig_symmetric(np.array([[7.0]]))
    assert np.array_equal(vals, [7.0]) and np.array_equal(vecs, [[1.0]])
    vals, vecs = eig_symmetric(np.zeros((3, 3)))
    assert np.array_equal(vals, np.zeros(3)) and np.array_equal(vecs, np.eye(3))
    for A in (np.array([[7.0]]), np.zeros((3, 3))):
        assert_bitwise_the_oracle(A)


def test_eig_raises_convergence_error_when_sweeps_run_out(monkeypatch):
    monkeypatch.setattr(spectrum, "JACOBI_MAX_SWEEPS", 1)
    for vectors in (True, False):
        with pytest.raises(ConvergenceError) as err:
            eig_symmetric(random_symmetric(5, 6), vectors=vectors)
        assert err.value.iterations == 1 and err.value.residual > 0.0


def test_round_robin_sweep_meets_every_pair_once():
    for m in range(2, 21, 2):
        shift = _round_robin_shift(m)
        slots = np.arange(m)  # slots[j] = index sitting at slot j
        met = []
        for _round in range(m - 1):
            met += [frozenset((slots[k], slots[k + m // 2])) for k in range(m // 2)]
            slots = slots[shift]
        assert len(met) == len(set(met)) == m * (m - 1) // 2
        assert np.array_equal(slots, np.arange(m))


def test_round_robin_gather_is_the_shift_on_rows_and_columns_of_a():
    # Four column quarters hold [a | V^T]; two hold a alone.
    for quarters in (4, 2):
        for m in range(2, 21, 2):
            h = m // 2
            w = quarters * h  # columns of the working matrix
            index = _round_robin_gather(m, quarters)
            shift = _round_robin_shift(m)
            # Row slot p, column slot q of the working matrix holds the label p * w + q.
            labels = np.arange(m)[:, None] * w + np.arange(w)
            B = labels.reshape(2, h, quarters, h).transpose(0, 2, 1, 3).copy()
            slots = np.arange(m)  # slots[j] = index sitting at slot j
            for _round in range(m - 1):
                columns = np.concatenate((slots, np.arange(m, w)))
                held = B.transpose(0, 2, 1, 3).reshape(m, w)
                assert np.array_equal(held, slots[:, None] * w + columns)
                app, apq, aqp, aqq = _pair_entries(B)
                k, kh = slots[:h], slots[h:]
                assert np.array_equal(apq, k * w + kh) and np.array_equal(aqp, kh * w + k)
                assert np.array_equal(app, k * (w + 1)) and np.array_equal(aqq, kh * (w + 1))
                B = B.reshape(-1).take(index).reshape(B.shape)
                slots = slots[shift]
            assert np.array_equal(B.transpose(0, 2, 1, 3).reshape(m, w), labels)


@st.composite
def symmetric_matrices(draw):
    """Symmetric matrices up to 40x40, odd sizes included, with some ties.

    general      entries drawn from a seeded generator, at a drawn scale
    diagonal     a diagonal with repeated values
    conjugated   a diagonal with repeated values in a random orthonormal basis
    blocks       block-diagonal copies of one symmetric block
    """
    kind = draw(st.sampled_from(["general", "diagonal", "conjugated", "blocks"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "blocks":
        b = draw(st.integers(1, 6))
        B = rng.standard_normal((b, b))
        return np.kron(np.eye(draw(st.integers(1, 40 // b))), B + B.T)
    n = draw(st.integers(1, 40))
    if kind == "general":
        X = rng.standard_normal((n, n)) * 10.0 ** draw(st.integers(-3, 3))
        return 0.5 * (X + X.T)
    values = draw(st.lists(st.sampled_from([-2.0, -0.5, 0.0, 1.0, 3.0]), min_size=n, max_size=n))
    if kind == "diagonal":
        return np.diag(values)
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    A = Q @ np.diag(values) @ Q.T
    return 0.5 * (A + A.T)


@given(symmetric_matrices())
def test_eig_agrees_with_lapack_on_drawn_matrices(A):
    """numpy's LAPACK eigh is the oracle here, on the test side only."""
    n = A.shape[0]
    fnorm = float(np.linalg.norm(A))
    vals, vecs = eig_symmetric(A)
    assert np.max(np.abs(vals - np.linalg.eigh(A)[0][::-1])) <= 1e-12 * max(1.0, fnorm)
    assert float(np.linalg.norm(vecs @ np.diag(vals) @ vecs.T - A)) <= 1e-9 * fnorm
    assert np.max(np.abs(vecs.T @ vecs - np.eye(n))) <= 1e-10
    assert np.all(np.diff(vals) <= 0.0)


def assert_values_only_bitwise(A):
    """The two-quarter layout gives bitwise the eigenvalues of the four."""
    vals, vecs = eig_symmetric(A, vectors=False)
    assert vecs is None
    assert np.array_equal(vals, eig_symmetric(A)[0])
    return vals


def assert_bitwise_the_oracle(A):
    vals, vecs = eig_symmetric(A)
    ref_vals, ref_vecs = eig_symmetric_two_halves(A)
    assert np.array_equal(vals, ref_vals) and np.array_equal(vecs, ref_vecs)
    # Downstream products see the same operand layout.
    assert vecs.strides == ref_vecs.strides
    assert np.array_equal(assert_values_only_bitwise(A), ref_vals)


@given(symmetric_matrices())
def test_eig_is_bitwise_the_two_halves_oracle_on_drawn_matrices(A):
    assert_bitwise_the_oracle(A)


@pytest.mark.parametrize("M", [7, 17, 32, 33, 64])
def test_eig_is_bitwise_the_two_halves_oracle_on_verify_theory_kernels(M):
    for seed in (0, 1):
        config = cli.resolve_config("verify-theory", {"seed": seed, "num_positions": M})
        X = cli._seeded_field(seed, "features", M, config["num_channels"])
        K = kernels.symmetric_stochastic_kernel(X, bandwidth=config["bandwidth"], tol=config["sinkhorn_tol"])
        assert_bitwise_the_oracle(K.entries)


def scaled_symmetric(scale):
    X = np.random.default_rng(11).standard_normal((9, 9))
    return 0.5 * (X * scale) + 0.5 * (X * scale).T


@pytest.mark.parametrize(
    "A",
    [
        *(scaled_symmetric(s) for s in (1e-200, 1e-170, 1e-150, 1e150, 1e200, 1e-305, 1e305)),
        np.array([[0.0, 1e200], [1e200, 0.0]]),
        np.diag([1e-170, 2e-170]) + 1e-171,
    ],
    ids=["1e-200", "1e-170", "1e-150", "1e150", "1e200", "1e-305", "1e305", "exchange_1e200", "diag_1e-170"],
)
def test_eig_agrees_with_lapack_at_extreme_scales(A):
    """The norm neither over- nor underflows, and no warning escapes."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        vals, vecs = eig_symmetric(A)
    expected = np.linalg.eigvalsh(A)[::-1]
    size = float(np.max(np.abs(expected)))
    assert np.max(np.abs(vals - expected)) <= 1e-12 * size
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert_values_only_bitwise(A)
    assert np.max(np.abs(vecs @ np.diag(vals / size) @ vecs.T - A / size)) <= 1e-12
    assert np.max(np.abs(vecs.T @ vecs - np.eye(len(A)))) <= 1e-10


def test_eig_names_an_eigenvalue_beyond_the_float_range():
    # Eigenvalues +-sqrt(1.7^2 + 1.6^2) 1e308 overflow float64.
    for vectors in (True, False):
        with pytest.raises(NonFiniteError, match="beyond the float64 range"):
            eig_symmetric(np.array([[1.7e308, 1.6e308], [1.6e308, -1.7e308]]), vectors=vectors)


# classification rule


def test_classify_all_negative():
    assert classify_spectrum([-1.0, -1.0, -1.0, -1.0]) == "damping_dominant"


def test_classify_single_large_positive_among_negatives():
    assert classify_spectrum([2.0, -0.1, -0.1, -0.1]) == "mixed"


def test_classify_small_positive_tail():
    assert classify_spectrum([0.01, -1.0, -5.0]) == "damping_dominant"


def test_classify_unstable_majority():
    assert classify_spectrum([1.0, 0.5, -0.2]) == "unstable"
    assert classify_spectrum([0.1, 0.2]) == "unstable"


def test_classify_tiny_positives_are_not_large():
    # Below the large-positive threshold nothing trips the unstable rule.
    assert classify_spectrum([5e-4, 2e-4]) == "mixed"


# spectrum_report


def test_report_negative_identity():
    report = spectrum_report(-np.eye(4), top_k=4)
    assert report.eigenvalues == (-1.0, -1.0, -1.0, -1.0)
    assert report.classification == "damping_dominant"
    assert report.num_positive == 0 and report.num_negative == 4
    assert report.max_abs == 1.0 and report.top_k == 4


def test_report_rule_walk_examples():
    assert spectrum_report(np.diag([2.0, -0.1, -0.1, -0.1])).classification == "mixed"
    assert spectrum_report(np.diag([-5.0, -1.0, 0.01])).classification == "damping_dominant"


def test_report_truncates_and_clamps_top_k():
    W = np.diag([5.0, 4.0, 3.0, 2.0, 1.0])
    assert spectrum_report(W, top_k=2).eigenvalues == (5.0, 4.0)
    full = spectrum_report(W, top_k=99)
    assert full.top_k == 5 and full.eigenvalues == (5.0, 4.0, 3.0, 2.0, 1.0)
    with pytest.raises(ValueError):
        spectrum_report(W, top_k=0)


def test_report_counts_add_up():
    report = spectrum_report(np.diag([1.0, 0.0, -1.0]))
    doc = report.to_json_dict()
    assert doc["counts"] == {"positive": 1, "negative": 1, "zero": 1}
    assert doc["classification"] == report.classification
    assert doc["eigenvalues"] == list(report.eigenvalues)


def test_report_symmetrizes_first():
    W = np.array([[0.0, 2.0], [0.0, 0.0]])
    report = spectrum_report(W)
    assert report.eigenvalues == pytest.approx((1.0, -1.0), abs=1e-14)


def test_quadratic_form_only_sees_symmetric_part():
    rng = SplitMix64(derive_seed(40, "quadform"))
    for _ in range(10):
        W = rng.normals((6, 6))
        z = rng.normals(6)
        lhs = float(z @ W @ z)
        rhs = float(z @ symmetrize(W) @ z)
        assert lhs == pytest.approx(rhs, abs=1e-10)


def test_report_invariant_under_orthogonal_conjugation():
    rng = SplitMix64(derive_seed(41, "conj"))
    W = rng.normals((8, 8))
    Q, _ = np.linalg.qr(rng.normals((8, 8)))
    base = spectrum_report(W, top_k=8).eigenvalues
    conj = spectrum_report(Q.T @ W @ Q, top_k=8).eigenvalues
    assert np.max(np.abs(np.array(base) - np.array(conj))) <= 1e-8


def test_report_csv_layout():
    csv = spectrum_report(-np.eye(2)).to_csv()
    lines = csv.splitlines()
    assert lines[0] == "index,value"
    assert lines[1] == "0,-1.0" and lines[2] == "1,-1.0"
    assert csv.endswith("\n")


def test_report_decomposes_once_without_vectors(monkeypatch):
    calls = []
    eig_symmetric = spectrum.eig_symmetric

    def spy(A, *args, **kwargs):
        calls.append((len(A), args, kwargs))
        return eig_symmetric(A, *args, **kwargs)

    monkeypatch.setattr(spectrum, "eig_symmetric", spy)
    report = spectrum_report(random_symmetric(51, 7), top_k=3)
    assert calls == [(7, (), {"vectors": False})]
    assert report.eigenvalues == tuple(eig_symmetric(random_symmetric(51, 7))[0][:3])


def test_report_is_frozen():
    report = spectrum_report(-np.eye(2))
    with pytest.raises(Exception):
        report.classification = "other"
    assert isinstance(report, SpectrumReport)
