"""Error metrics and uncertainty summaries for benchmark reports."""

from dataclasses import dataclass

import numpy as np
from scipy.stats import norm

# Confidence level of every margin of error.
CONFIDENCE = 0.95


@dataclass(frozen=True)
class ErrorSummary:
    mean_error: float
    margin_of_error: float
    n: int
    per_function_errors: tuple


def l2_relative_error(v_true, v_pred):
    """||v_true - v_pred||_2 / ||v_true||_2."""
    v_true = np.asarray(v_true, dtype=float).ravel()
    v_pred = np.asarray(v_pred, dtype=float).ravel()
    if v_true.shape != v_pred.shape:
        raise ValueError("length mismatch between truth and prediction")
    denom = np.linalg.norm(v_true)
    if denom == 0:
        raise ValueError("relative error undefined for a zero-norm truth vector")
    return float(np.linalg.norm(v_true - v_pred) / denom)


def mean_and_moe(errors):
    """Mean error with margin of error z * s / sqrt(n), sample std (n-1), at CONFIDENCE."""
    errors = [float(e) for e in errors]
    n = len(errors)
    if n < 2:
        raise ValueError("margin of error needs at least two values")
    arr = np.asarray(errors)
    z = norm.ppf((1 + CONFIDENCE) / 2)
    moe = float(z * arr.std(ddof=1) / np.sqrt(n))
    return ErrorSummary(
        mean_error=float(arr.mean()),
        margin_of_error=moe,
        n=n,
        per_function_errors=tuple(errors),
    )
