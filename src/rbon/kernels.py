"""Gaussian radial basis units and the one squared-distance kernel.

Every layer is real. Complex data (the DFT of frbon's branch inputs) enters
through real_view, the interleaved (re, im) real vector, whose Euclidean
distances are exactly the modulus distances of the complex vector.
"""

from dataclasses import dataclass

import numpy as np


class DegenerateFeatureError(ValueError):
    """All RBF outputs vanished, so normalized features are undefined."""


@dataclass(frozen=True)
class RbfLayer:
    """One hidden layer: real centers (units x dim) and positive spreads (units,)."""

    centers: np.ndarray
    spreads: np.ndarray

    def __post_init__(self):
        centers = np.atleast_2d(np.asarray(self.centers))
        if np.iscomplexobj(centers):
            raise ValueError("centers must be real; pass complex data through real_view")
        spreads = np.asarray(self.spreads, dtype=float).ravel()
        if centers.shape[0] != spreads.shape[0]:
            raise ValueError(
                f"{centers.shape[0]} centers but {spreads.shape[0]} spreads"
            )
        if np.any(spreads <= 0):
            raise ValueError("spreads must be positive")
        object.__setattr__(self, "centers", centers)
        object.__setattr__(self, "spreads", spreads)

    @property
    def n_units(self):
        return self.centers.shape[0]

    @property
    def input_dim(self):
        return self.centers.shape[1]


def real_view(X):
    """Complex X as its interleaved (re, im) real view, last axis doubled; real X as is."""
    if np.iscomplexobj(X):
        # cast first: viewing complex64 as float would reinterpret its bits
        return np.ascontiguousarray(X, dtype=complex).view(float)
    return X


def sq_dist(points, centers):
    """Squared Euclidean distances, shape (len(points), len(centers))."""
    return ((points[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)


def gaussian_rbf(x, center, spread):
    """exp(-||x - c||^2 / (2 sigma^2)); complex arguments are read through real_view."""
    if spread <= 0:
        raise ValueError(f"spread must be positive, got {spread}")
    x = real_view(np.asarray(x)).ravel()
    center = real_view(np.asarray(center)).ravel()
    if x.shape != center.shape:
        raise ValueError(f"dimension mismatch: x has {x.shape[0]}, center has {center.shape[0]}")
    d2 = float(((x - center) ** 2).sum())
    return float(np.exp(-d2 / (2.0 * spread**2)))


def feature_matrix(layer, X):
    """Features of many points, shape (len(X), layer.n_units); complex X via real_view."""
    X = np.atleast_2d(real_view(np.asarray(X)))
    if X.shape[1] != layer.input_dim:
        raise ValueError(
            f"input dimension {X.shape[1]} does not match layer dimension {layer.input_dim}"
        )
    d2 = sq_dist(X, layer.centers)
    return np.exp(-d2 / (2.0 * layer.spreads**2))
