"""Gaussian radial basis units and branch/trunk feature assembly.

Branch layers may hold complex centers (frequency-domain inputs); the kernel
uses the Euclidean norm of component moduli, so feature values are always real.
"""

from dataclasses import dataclass

import numpy as np


class DegenerateFeatureError(ValueError):
    """All RBF outputs vanished, so normalized features are undefined."""


@dataclass(frozen=True)
class RbfLayer:
    """One hidden layer: centers (units x dim) and positive spreads (units,)."""

    centers: np.ndarray
    spreads: np.ndarray

    def __post_init__(self):
        centers = np.atleast_2d(np.asarray(self.centers))
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

    @property
    def is_complex(self):
        return np.iscomplexobj(self.centers)


def _squared_distances(X, centers):
    """Pairwise squared distances, modulus-wise for complex data."""
    X = np.atleast_2d(X)
    diff = X[:, None, :] - centers[None, :, :]
    if np.iscomplexobj(diff):
        return (np.abs(diff) ** 2).sum(axis=2)
    return (diff**2).sum(axis=2)


def gaussian_rbf(x, center, spread):
    """exp(-||x - c||^2 / (2 sigma^2)), real-valued even for complex inputs."""
    if spread <= 0:
        raise ValueError(f"spread must be positive, got {spread}")
    x = np.asarray(x).ravel()
    center = np.asarray(center).ravel()
    if x.shape != center.shape:
        raise ValueError(f"dimension mismatch: x has {x.shape[0]}, center has {center.shape[0]}")
    diff = x - center
    if np.iscomplexobj(diff):
        d2 = float((np.abs(diff) ** 2).sum())
    else:
        d2 = float((diff**2).sum())
    return float(np.exp(-d2 / (2.0 * spread**2)))


def feature_matrix(layer, X):
    """Feature vectors for many points at once, shape (len(X), layer.n_units)."""
    X = np.atleast_2d(X)
    if X.shape[1] != layer.input_dim:
        raise ValueError(
            f"input dimension {X.shape[1]} does not match layer dimension {layer.input_dim}"
        )
    if np.iscomplexobj(X) != layer.is_complex:
        raise ValueError("real/complex field mismatch between input and layer")
    d2 = _squared_distances(X, layer.centers)
    return np.exp(-d2 / (2.0 * layer.spreads**2))

