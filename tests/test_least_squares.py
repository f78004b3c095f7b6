"""The minimum-norm Kronecker solve and output calibration."""

import numpy as np
import pytest
from scipy.linalg import null_space

from rbon.least_squares import fit_calibration, kronecker_lstsq


def test_identity_system():
    Y = np.array([[3.0, -1.0], [2.0, 0.5], [-4.0, 1.0]])
    np.testing.assert_allclose(kronecker_lstsq(np.eye(3), np.eye(2), Y), Y.ravel(), atol=1e-12)


def test_rank_one_hand_case():
    # B w = y with B = [[1, 1], [1, 1]], y = (2, 2): every solution has
    # w1 + w2 = 2 and the shortest one is (1, 1)
    B = np.array([[1.0, 1.0], [1.0, 1.0]])
    w = kronecker_lstsq(B, np.ones((1, 1)), np.array([[2.0], [2.0]]))
    np.testing.assert_allclose(w, [1.0, 1.0], atol=1e-12)


def test_overdetermined_matches_normal_equations():
    rng = np.random.default_rng(20)
    for _ in range(10):
        B = rng.normal(size=(6, 3))  # tall factors: full column rank a.s.
        T = rng.normal(size=(5, 2))
        Y = rng.normal(size=(6, 5))
        K = np.kron(B, T)
        oracle = np.linalg.solve(K.T @ K, K.T @ Y.ravel())
        np.testing.assert_allclose(kronecker_lstsq(B, T, Y), oracle, atol=1e-10)


def test_minimum_norm_among_solutions():
    rng = np.random.default_rng(21)
    for _ in range(10):
        B = rng.normal(size=(2, 4))  # wide factors: kron(B, T) is 6 x 12
        T = rng.normal(size=(3, 3))
        Y = rng.normal(size=(2, 3))
        w = kronecker_lstsq(B, T, Y)
        null = null_space(np.kron(B, T))  # directions that leave the residual unchanged
        assert null.shape[1] >= 6
        # orthogonal to every null direction, so no shorter solution exists
        np.testing.assert_allclose(null.T @ w, 0.0, atol=1e-9)
        for j in range(null.shape[1]):
            assert np.linalg.norm(w + 0.5 * null[:, j]) > np.linalg.norm(w)


def test_residual_orthogonal_to_design_columns():
    rng = np.random.default_rng(22)
    for trial in range(10):
        rows, cols = (8, 5) if trial % 2 else (5, 8)
        B = rng.normal(size=(rows, cols))
        T = rng.normal(size=(3, 2))
        Y = rng.normal(size=(rows, 3))
        K = np.kron(B, T)
        residual = K @ kronecker_lstsq(B, T, Y) - Y.ravel()
        scale = max(np.linalg.norm(K), 1.0) * max(np.linalg.norm(Y), 1.0)
        np.testing.assert_allclose(K.T @ residual / scale, 0.0, atol=1e-9)


def test_kronecker_lstsq_validation():
    with pytest.raises(ValueError):
        kronecker_lstsq(np.ones(3), np.ones((2, 2)), np.ones((3, 2)))
    with pytest.raises(ValueError):
        kronecker_lstsq(np.ones((3, 2)), np.ones((2, 2)), np.ones((3, 3)))
    with pytest.raises(ValueError):
        kronecker_lstsq(np.array([[np.inf, 1.0]]), np.ones((1, 1)), np.ones((1, 1)))


def test_calibration_recovers_exact_affine_map():
    rng = np.random.default_rng(25)
    raw = rng.normal(size=50)
    cal = fit_calibration(raw, 2.0 * raw + 3.0)
    assert cal.scale == pytest.approx(2.0, abs=1e-12)
    assert cal.offset == pytest.approx(3.0, abs=1e-12)
    cal = fit_calibration(raw, raw)
    assert cal.scale == pytest.approx(1.0, abs=1e-12)
    assert cal.offset == pytest.approx(0.0, abs=1e-12)


def test_calibration_matches_regression_formula():
    rng = np.random.default_rng(26)
    raw = rng.normal(size=80)
    targets = 0.7 * raw - 1.2 + 0.1 * rng.normal(size=80)
    cal = fit_calibration(raw, targets)
    slope = np.cov(raw, targets, ddof=1)[0, 1] / np.var(raw, ddof=1)
    assert cal.scale == pytest.approx(slope, abs=1e-10)
    assert cal.offset == pytest.approx(targets.mean() - slope * raw.mean(), abs=1e-10)
    # fitted residuals of a simple regression always sum to zero
    residuals = targets - cal.apply(raw)
    assert residuals.sum() == pytest.approx(0.0, abs=1e-10)


def test_calibration_constant_raw_keeps_unit_scale():
    raw = np.full(10, 2.0)
    targets = np.full(10, 5.0)
    cal = fit_calibration(raw, targets)
    assert cal.scale == 1.0
    assert cal.offset == pytest.approx(3.0, abs=1e-12)
    np.testing.assert_allclose(cal.apply(raw), targets, atol=1e-12)


def test_calibration_validation():
    with pytest.raises(ValueError):
        fit_calibration(np.ones(3), np.ones(4))
    with pytest.raises(ValueError):
        fit_calibration(np.ones(1), np.ones(1))
