"""K-means center selection: optimality, monotonicity, spreads, determinism."""

import itertools

import numpy as np
import pytest

from rbon.clustering import SPREAD_FLOOR, ClusterConfig, compute_spreads, kmeans


def _wcss_of(points, centers):
    d2 = ((points[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
    return float(d2.min(axis=1).sum())


def _exhaustive_best_wcss(points, k):
    """Globally optimal WCSS by trying every assignment (tiny n only)."""
    best = np.inf
    for assign in itertools.product(range(k), repeat=len(points)):
        assign = np.asarray(assign)
        wcss = 0.0
        for j in range(k):
            cluster = points[assign == j]
            if len(cluster):
                wcss += ((cluster - cluster.mean(axis=0)) ** 2).sum()
        best = min(best, wcss)
    return best


def test_two_well_separated_pairs():
    points = np.array([[0.0], [1.0], [10.0], [11.0]])
    result = kmeans(points, ClusterConfig(k=2, seed=0))
    centers = np.sort(result.centers.ravel())
    np.testing.assert_allclose(centers, [0.5, 10.5], atol=1e-12)
    assert result.wcss == pytest.approx(1.0, abs=1e-12)
    # and 1.0 really is the global optimum for this dataset
    assert _exhaustive_best_wcss(points, 2) == pytest.approx(1.0, abs=1e-12)


def test_matches_exhaustive_optimum_on_tiny_data():
    rng = np.random.default_rng(7)
    for _ in range(5):
        points = rng.normal(size=(6, 2))
        result = kmeans(points, ClusterConfig(k=2, restarts=20, seed=1))
        best = _exhaustive_best_wcss(points, 2)
        assert result.wcss <= best * (1 + 1e-9) + 1e-12


def test_k_one_returns_mean():
    rng = np.random.default_rng(8)
    points = rng.normal(size=(15, 3))
    result = kmeans(points, ClusterConfig(k=1, seed=0))
    np.testing.assert_allclose(result.centers[0], points.mean(axis=0), atol=1e-12)


def test_wcss_history_never_increases():
    rng = np.random.default_rng(9)
    for trial in range(20):
        points = rng.normal(size=(40, 2)) + rng.integers(0, 4, size=(40, 1)) * 3.0
        result = kmeans(points, ClusterConfig(k=4, restarts=1, seed=trial))
        history = result.wcss_history
        assert len(history) >= 1
        for earlier, later in zip(history, history[1:]):
            assert later <= earlier * (1 + 1e-12) + 1e-12


def test_restarts_never_hurt():
    # restart 0 of a 10-restart run uses the same child seed as a 1-restart
    # run, so the best-of-10 WCSS can only be <= the single-run WCSS
    rng = np.random.default_rng(10)
    for seed in range(8):
        points = np.vstack(
            [rng.normal(loc=c, scale=0.3, size=(12, 2)) for c in ((0, 0), (4, 0), (0, 4))]
        )
        single = kmeans(points, ClusterConfig(k=3, restarts=1, seed=seed))
        multi = kmeans(points, ClusterConfig(k=3, restarts=10, seed=seed))
        assert multi.wcss <= single.wcss * (1 + 1e-12) + 1e-12


def test_deterministic_for_fixed_seed():
    rng = np.random.default_rng(11)
    points = rng.normal(size=(30, 4))
    a = kmeans(points, ClusterConfig(k=5, seed=3))
    b = kmeans(points, ClusterConfig(k=5, seed=3))
    np.testing.assert_array_equal(a.centers, b.centers)
    np.testing.assert_array_equal(a.assignments, b.assignments)
    assert a.wcss == b.wcss


def test_result_is_internally_consistent():
    # centers finite, at most k of them, wcss matches a recomputation
    rng = np.random.default_rng(12)
    for trial in range(30):
        points = rng.normal(size=(20, 2))
        k = int(rng.integers(2, 9))
        result = kmeans(points, ClusterConfig(k=k, restarts=3, seed=trial))
        assert result.centers.shape[0] <= k
        assert np.all(np.isfinite(result.centers))
        assert result.wcss == pytest.approx(_wcss_of(points, result.centers), rel=1e-9)


def test_duplicate_points_collapse_centers():
    # only two distinct values, k=3: coincident centers get consolidated
    points = np.array([[0.0], [0.0], [1.0], [1.0]])
    result = kmeans(points, ClusterConfig(k=3, seed=0))
    assert result.centers.shape[0] <= 2
    assert result.wcss == pytest.approx(0.0, abs=1e-12)


def test_fewer_points_than_required():
    with pytest.raises(ValueError):
        kmeans(np.array([[1.0]]), ClusterConfig(k=1))


def test_config_validation():
    with pytest.raises(ValueError):
        ClusterConfig(k=0)
    with pytest.raises(ValueError):
        ClusterConfig(k=2, restarts=0)


def test_kmeans_rejects_complex_points():
    # a cast to float would drop the imaginary parts; spectra go through real_view
    rng = np.random.default_rng(14)
    Z = rng.normal(size=(12, 2)) + 1j * rng.normal(size=(12, 2))
    with pytest.raises(ValueError, match="real_view"):
        kmeans(Z, ClusterConfig(k=3, seed=5))


def test_spreads_two_centers():
    spreads = compute_spreads(np.array([[0.0], [3.0]]), overlap=1.0)
    np.testing.assert_allclose(spreads, [3.0, 3.0], atol=1e-12)


def test_spreads_nearest_distinct_neighbor():
    spreads = compute_spreads(np.array([[0.0], [1.0], [5.0]]), overlap=1.0)
    np.testing.assert_allclose(spreads, [1.0, 1.0, 4.0], atol=1e-12)


def test_spreads_overlap_scaling():
    base = compute_spreads(np.array([[0.0], [1.0], [5.0]]), overlap=1.0)
    scaled = compute_spreads(np.array([[0.0], [1.0], [5.0]]), overlap=2.5)
    np.testing.assert_allclose(scaled, 2.5 * base, atol=1e-12)


def test_spreads_single_center_uses_diameter():
    spreads = compute_spreads(np.array([[2.0]]), overlap=1.0, data_diameter=6.0)
    np.testing.assert_allclose(spreads, [3.0], atol=1e-12)


def test_spreads_floor_when_no_scale_available():
    spreads = compute_spreads(np.array([[2.0]]), overlap=1.0)
    np.testing.assert_allclose(spreads, [SPREAD_FLOOR])


def test_spreads_coincident_centers_fall_back():
    spreads = compute_spreads(np.array([[1.0], [1.0]]), overlap=1.0, data_diameter=4.0)
    np.testing.assert_allclose(spreads, [2.0, 2.0], atol=1e-12)


def test_spreads_reject_bad_overlap():
    with pytest.raises(ValueError):
        compute_spreads(np.array([[0.0], [1.0]]), overlap=0.0)
