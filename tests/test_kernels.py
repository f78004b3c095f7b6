"""Gaussian units and feature matrices."""

import numpy as np
import pytest

from rbon.kernels import RbfLayer, feature_matrix, gaussian_rbf, real_view

EXP_HALF = 0.6065306597126334  # exp(-1/2) to full double precision


def test_gaussian_rbf_hand_value():
    # ||(3,4) - 0|| = 5 with spread 5: exp(-25 / 50) = exp(-1/2)
    assert gaussian_rbf([3.0, 4.0], [0.0, 0.0], 5.0) == pytest.approx(EXP_HALF, abs=1e-15)


def test_gaussian_rbf_is_one_at_center():
    rng = np.random.default_rng(0)
    for _ in range(10):
        c = rng.normal(size=4)
        assert gaussian_rbf(c, c, float(rng.uniform(0.1, 3.0))) == 1.0


def test_gaussian_rbf_monotone_decreasing_in_distance():
    rng = np.random.default_rng(1)
    direction = rng.normal(size=3)
    direction /= np.linalg.norm(direction)
    values = [gaussian_rbf(r * direction, np.zeros(3), 1.3) for r in np.linspace(0, 5, 40)]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_gaussian_rbf_complex_uses_modulus_distance():
    # complex data is read as its interleaved (re, im) view: |1 + i|^2 = 2
    expected = np.exp(-2.0 / (2.0 * 1.5**2))
    value = gaussian_rbf(np.array([1.0 + 1.0j]), np.array([0.0, 0.0]), 1.5)
    assert isinstance(value, float)
    assert value == pytest.approx(expected, abs=1e-15)
    rng = np.random.default_rng(3)
    Z = rng.normal(size=(6, 3)) + 1j * rng.normal(size=(6, 3))
    centers = rng.normal(size=(4, 3)) + 1j * rng.normal(size=(4, 3))
    layer = RbfLayer(centers=real_view(centers), spreads=rng.uniform(0.5, 2.0, 4))
    np.testing.assert_array_equal(feature_matrix(layer, Z), feature_matrix(layer, real_view(Z)))
    modulus = (np.abs(Z[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
    np.testing.assert_allclose(
        feature_matrix(layer, Z), np.exp(-modulus / (2.0 * layer.spreads**2)), rtol=1e-13
    )


def test_real_view_interleaves_and_keeps_real_input():
    Z = np.array([[1 + 2j, 3 - 4j]], dtype=np.complex64)
    np.testing.assert_array_equal(real_view(Z), [[1.0, 2.0, 3.0, -4.0]])
    assert real_view(Z).dtype == np.float64
    X = np.arange(6.0).reshape(2, 3)
    assert real_view(X) is X


def test_gaussian_rbf_rejects_nonpositive_spread():
    with pytest.raises(ValueError):
        gaussian_rbf([1.0], [0.0], 0.0)
    with pytest.raises(ValueError):
        gaussian_rbf([1.0], [0.0], -2.0)


def test_gaussian_rbf_rejects_dimension_mismatch():
    with pytest.raises(ValueError):
        gaussian_rbf([1.0, 2.0], [0.0], 1.0)


def test_layer_validation():
    with pytest.raises(ValueError):
        RbfLayer(centers=np.zeros((3, 2)), spreads=np.ones(2))
    with pytest.raises(ValueError):
        RbfLayer(centers=np.zeros((2, 2)), spreads=np.array([1.0, 0.0]))


def test_layer_properties():
    layer = RbfLayer(centers=np.zeros((4, 3)), spreads=np.ones(4))
    assert layer.n_units == 4
    assert layer.input_dim == 3
    with pytest.raises(ValueError, match="real_view"):
        RbfLayer(centers=np.zeros((2, 3), dtype=complex), spreads=np.ones(2))


def test_feature_matrix_matches_scalar_kernel():
    rng = np.random.default_rng(2)
    centers = rng.normal(size=(5, 3))
    spreads = rng.uniform(0.5, 2.0, size=5)
    layer = RbfLayer(centers=centers, spreads=spreads)
    X = rng.normal(size=(7, 3))
    F = feature_matrix(layer, X)
    assert F.shape == (7, 5)
    for i in range(7):
        for k in range(5):
            assert F[i, k] == pytest.approx(
                gaussian_rbf(X[i], centers[k], spreads[k]), abs=1e-14
            )


def test_feature_matrix_rejects_mismatches():
    layer = RbfLayer(centers=np.zeros((2, 3)), spreads=np.ones(2))
    with pytest.raises(ValueError):
        feature_matrix(layer, np.zeros((1, 4)))
    # a complex input reads as twice its width
    with pytest.raises(ValueError):
        feature_matrix(layer, np.zeros((1, 3), dtype=complex))
    with pytest.raises(ValueError):
        RbfLayer(centers=np.zeros((2, 3), dtype=complex), spreads=np.ones(2))
