import numpy as np
import pytest

from nld import FeatureField, NonFiniteError, load_matrix_csv

from conftest import save_matrix_csv


def test_dimensions_and_accessors():
    f = FeatureField(np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]))
    assert f.num_positions == 3
    assert f.num_channels == 2


def test_values_are_immutable():
    f = FeatureField(np.array([[1.0], [2.0]]))
    with pytest.raises((ValueError, RuntimeError)):
        f.values[0, 0] = 9.0


def test_construction_copies_input():
    src = np.array([[1.0], [2.0]])
    f = FeatureField(src)
    src[0, 0] = 77.0
    assert f.values[0, 0] == 1.0


def test_rejects_bad_shapes():
    with pytest.raises(ValueError):
        FeatureField(np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        FeatureField(np.zeros((0, 2)))
    with pytest.raises(ValueError):
        FeatureField(np.zeros((2, 0)))


def test_rejects_non_finite():
    with pytest.raises(NonFiniteError):
        FeatureField(np.array([[1.0], [np.nan]]))
    with pytest.raises(NonFiniteError):
        FeatureField(np.array([[np.inf], [0.0]]))


def test_minimum_size_single_cell():
    f = FeatureField(np.array([[2.5]]))
    assert f.num_positions == 1 and f.num_channels == 1


def test_matrix_csv_round_trip():
    rng = np.random.default_rng(5)
    A = rng.standard_normal((4, 6))
    B = load_matrix_csv(save_matrix_csv(A))
    assert np.array_equal(A, B)


def test_matrix_csv_accepts_field_header():
    A = load_matrix_csv("x0,x1\n1.5,-2.5\n0.25,8.0\n")
    assert np.array_equal(A, [[1.5, -2.5], [0.25, 8.0]])


def test_matrix_csv_rejects_ragged_and_empty():
    with pytest.raises(ValueError):
        load_matrix_csv("")
    with pytest.raises(ValueError):
        load_matrix_csv("1.0,2.0\n3.0\n")
