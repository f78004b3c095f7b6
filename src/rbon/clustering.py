"""K-means center selection and RBF spread computation.

Lloyd's algorithm with k-means++ seeding, restarted several times; the restart
with the smallest within-cluster sum of squares wins. Points are real; every
distance comes from kernels.sq_dist.
"""

from dataclasses import dataclass, field

import numpy as np

from .kernels import real_view, sq_dist

SPREAD_FLOOR = 1e-8
# k-means keeps the best of this many seeded Lloyd runs.
RESTARTS = 10
# A Lloyd run stops after this many iterations, or once no center moves by
# CONVERGENCE_TOL or more.
MAX_ITERATIONS = 300
CONVERGENCE_TOL = 1e-9


@dataclass
class ClusterConfig:
    k: int
    restarts: int = RESTARTS
    seed: int = 0

    def __post_init__(self):
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        if self.restarts < 1:
            raise ValueError("restarts must be >= 1")


@dataclass
class ClusterResult:
    centers: np.ndarray
    assignments: np.ndarray
    wcss: float
    wcss_history: list = field(default_factory=list)


def _kmeanspp_init(points, k, rng):
    n = len(points)
    idx = [int(rng.integers(n))]
    d2 = sq_dist(points, points[idx[0]:idx[0] + 1])[:, 0]
    while len(idx) < k:
        total = d2.sum()
        if total <= 0:
            break  # every point duplicates a chosen center
        nxt = int(rng.choice(n, p=d2 / total))
        idx.append(nxt)
        d2 = np.minimum(d2, sq_dist(points, points[nxt:nxt + 1])[:, 0])
    return points[idx].copy()


def lloyd(points, k, rng):
    """One seeded Lloyd run. Returns (centers, assignments, wcss, wcss_history).

    wcss is recorded after each assignment step and must never increase; an
    increase would mean the update logic is wrong, so it raises.
    """
    centers = _kmeanspp_init(points, k, rng)
    history = []
    assignments = None
    for _ in range(MAX_ITERATIONS):
        d2 = sq_dist(points, centers)
        assignments = d2.argmin(axis=1)
        wcss = float(d2[np.arange(len(points)), assignments].sum())
        if history and wcss > history[-1] * (1 + 1e-12) + 1e-12:
            raise RuntimeError(
                f"wcss increased from {history[-1]} to {wcss}; Lloyd step is broken"
            )
        history.append(wcss)
        new_centers = centers.copy()
        for i in range(len(centers)):
            mask = assignments == i
            if mask.any():
                new_centers[i] = points[mask].mean(axis=0)
            else:
                # dead unit: restart it at the point currently worst served
                far = int(d2[np.arange(len(points)), assignments].argmax())
                new_centers[i] = points[far]
        shift = np.sqrt(((new_centers - centers) ** 2).sum(axis=1)).max()
        centers = new_centers
        if shift < CONVERGENCE_TOL:
            break
    d2 = sq_dist(points, centers)
    assignments = d2.argmin(axis=1)
    wcss = float(d2[np.arange(len(points)), assignments].sum())
    history.append(wcss)
    return centers, assignments, wcss, history


def kmeans(points, config):
    """Best-of-restarts k-means; deterministic given config.seed."""
    pts = np.atleast_2d(np.asarray(points))
    if np.iscomplexobj(pts):
        raise ValueError("k-means needs real points; pass complex data through real_view")
    pts = pts.astype(float, copy=False)
    if len(pts) < 2:
        raise ValueError("k-means requires at least two points")

    best = None
    for ss in np.random.SeedSequence(config.seed).spawn(config.restarts):
        centers_i, _, wcss_i, hist_i = lloyd(pts, config.k, np.random.default_rng(ss))
        if best is None or wcss_i < best[0]:
            best = (wcss_i, centers_i, hist_i)
    centers, history = best[1], best[2]
    # coincident centers are redundant units; keep one of each
    _, keep = np.unique(centers, axis=0, return_index=True)
    centers = centers[np.sort(keep)]

    d2 = sq_dist(pts, centers)
    assignments = d2.argmin(axis=1)
    wcss = float(d2[np.arange(len(pts)), assignments].sum())
    return ClusterResult(centers=centers, assignments=assignments, wcss=wcss,
                         wcss_history=history)


def compute_spreads(centers, overlap=1.0, data_diameter=None):
    """sigma_i = overlap * distance to the nearest distinct center.

    With a single center (or all centers coincident) there is no inter-center
    distance; fall back to half the data diameter when the caller provides it,
    else to the floor. Complex centers are read through kernels.real_view.
    """
    if overlap <= 0:
        raise ValueError("overlap must be positive")
    C = np.atleast_2d(real_view(np.asarray(centers)))
    n = len(C)
    fallback = (data_diameter / 2.0) if data_diameter is not None else 0.0
    if n == 1:
        return np.array([max(fallback * overlap, SPREAD_FLOOR)])
    d2 = sq_dist(C, C)
    np.fill_diagonal(d2, np.inf)
    d2[d2 == 0] = np.inf
    nearest = np.sqrt(d2.min(axis=1))
    spreads = np.where(np.isfinite(nearest), nearest * overlap, fallback * overlap)
    return np.maximum(spreads, SPREAD_FLOOR)
