"""The minimum-norm Kronecker least-squares solve and output calibration."""

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Calibration:
    """Affine output map applied to the raw network sum: scale * raw + offset."""

    scale: float
    offset: float

    def __post_init__(self):
        if not (np.isfinite(self.scale) and np.isfinite(self.offset)):
            raise ValueError("calibration parameters must be finite")

    def apply(self, raw):
        return self.scale * raw + self.offset


def kronecker_lstsq(branch_feats, trunk_feats, targets):
    """Minimum-norm weights of the system over every (function, query) pair.

    With B = branch_feats (functions x branch units), T = trunk_feats
    (queries x trunk units) and Y = targets (functions x queries), returns
    the minimum-norm w minimizing ||kron(B, T) w - vec(Y)||_2, branch-major:
    weight (i, k) sits at i * T.shape[1] + k. The pseudoinverse of a
    Kronecker product is the Kronecker product of the pseudoinverses, so two
    small solves (numpy's default rcond each) give the exact answer without
    forming the stacked matrix.
    """
    B = np.asarray(branch_feats, dtype=float)
    T = np.asarray(trunk_feats, dtype=float)
    Y = np.asarray(targets, dtype=float)
    if B.ndim != 2 or T.ndim != 2:
        raise ValueError("branch and trunk features must be matrices")
    if Y.shape != (B.shape[0], T.shape[0]):
        raise ValueError(
            f"targets shape {Y.shape} does not match "
            f"({B.shape[0]} functions, {T.shape[0]} queries)"
        )
    if not (np.isfinite(B).all() and np.isfinite(T).all() and np.isfinite(Y).all()):
        raise ValueError("non-finite entries in least-squares system")
    coeff, *_ = np.linalg.lstsq(B, Y, rcond=None)
    weight_matrix, *_ = np.linalg.lstsq(T, coeff.T, rcond=None)
    return weight_matrix.T.ravel()


def fit_calibration(raw, targets):
    """Closed-form simple regression of targets on raw network outputs."""
    raw = np.asarray(raw, dtype=float).ravel()
    targets = np.asarray(targets, dtype=float).ravel()
    if raw.shape[0] != targets.shape[0]:
        raise ValueError("raw and target lengths differ")
    if raw.shape[0] < 2:
        raise ValueError("need at least two points to fit a calibration")
    rm = raw.mean()
    tm = targets.mean()
    dr = raw - rm
    if np.var(raw) < 1e-14:
        return Calibration(scale=1.0, offset=tm - rm)
    scale = float(dr @ (targets - tm) / (dr @ dr))
    return Calibration(scale=scale, offset=float(tm - scale * rm))
