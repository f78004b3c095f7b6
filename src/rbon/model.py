"""Training and prediction for radial-basis operator networks.

A model maps a sampled input function u (values at m fixed sensors) and a
query location y to a scalar output. The branch layer places Gaussian units
at K-means centers of the input samples, the trunk layer at centers of the
query locations, and the output weights couple every branch unit to every
trunk unit through a Kronecker product of the two feature vectors. Weights
come from a direct least-squares solve; a final affine calibration absorbs
any scale or offset the radial features cannot.

Three variants share this structure:

* ``rbon``   plain weighted sum of feature products
* ``nrbon``  feature products normalized to unit sum (convex combination)
* ``frbon``  branch inputs pass through a forward DFT first; the branch
             layer clusters the spectrum's interleaved (re, im) real view,
             whose distances are the spectrum's modulus distances
"""

import hashlib
import json
from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import pdist

from .clustering import RESTARTS, ClusterConfig, compute_spreads, kmeans
from .container import CorruptFileError, load_container, save_container
from .kernels import DegenerateFeatureError, RbfLayer, feature_matrix, real_view
from .least_squares import Calibration, fit_calibration, kronecker_lstsq

VARIANTS = ("rbon", "nrbon", "frbon")

# Widest branch/trunk pair used in the PDE benchmark regime.
MAX_BENCHMARK_UNITS = 15
MAX_BENCHMARK_WEIGHTS = 225


@dataclass(frozen=True)
class TrainingSet:
    """Sampled input functions, shared query locations, and target values.

    inputs   (n_functions, n_sensors) real matrix, row j = function j at the
             common sensor locations
    queries  (n_queries, query_dim) real matrix of output locations
    targets  (n_functions, n_queries) real matrix, entry (j, l) = value of
             output function j at query l
    """

    inputs: np.ndarray
    queries: np.ndarray
    targets: np.ndarray

    def __post_init__(self):
        inputs = np.asarray(self.inputs, dtype=float)
        queries = np.asarray(self.queries, dtype=float)
        targets = np.asarray(self.targets, dtype=float)
        if inputs.ndim != 2 or inputs.shape[0] < 1 or inputs.shape[1] < 1:
            raise ValueError(
                "inputs must be (n_functions, n_sensors) with at least "
                f"1 function and 1 sensor, got shape {np.shape(self.inputs)}"
            )
        if queries.ndim != 2 or queries.shape[0] < 1:
            raise ValueError(
                f"queries must be a nonempty 2-d matrix, got shape {np.shape(self.queries)}"
            )
        if targets.shape != (inputs.shape[0], queries.shape[0]):
            raise ValueError(
                f"targets shape {np.shape(self.targets)} does not match "
                f"({inputs.shape[0]} functions, {queries.shape[0]} queries)"
            )
        if not np.all(np.isfinite(inputs)):
            raise ValueError("inputs contain non-finite values")
        if not np.all(np.isfinite(queries)):
            raise ValueError("queries contain non-finite values")
        if not np.all(np.isfinite(targets)):
            raise ValueError("targets contain non-finite values")
        object.__setattr__(self, "inputs", inputs)
        object.__setattr__(self, "queries", queries)
        object.__setattr__(self, "targets", targets)

    @property
    def n_functions(self) -> int:
        return self.inputs.shape[0]

    @property
    def n_sensors(self) -> int:
        return self.inputs.shape[1]

    @property
    def n_queries(self) -> int:
        return self.queries.shape[0]

    @property
    def query_dim(self) -> int:
        return self.queries.shape[1]


@dataclass(frozen=True)
class ModelConfig:
    """Architecture and training knobs.

    variant picks the output formula (see the module docstring); the units
    and overlaps size each layer and scale its spreads; seed drives
    k-means, which keeps the best of clustering.RESTARTS runs. The output
    weights always come from one minimum-norm least-squares solve over
    every (function, query) pair.

    Layers are capped at MAX_BENCHMARK_UNITS units each and
    MAX_BENCHMARK_WEIGHTS weights in total, the PDE benchmark regime.
    """

    variant: str = "rbon"
    branch_units: int = 10
    trunk_units: int = 10
    branch_overlap: float = 1.0
    trunk_overlap: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}, got {self.variant!r}")
        if self.branch_units < 1 or self.trunk_units < 1:
            raise ValueError("branch_units and trunk_units must be at least 1")
        if self.branch_units > MAX_BENCHMARK_UNITS or self.trunk_units > MAX_BENCHMARK_UNITS:
            raise ValueError(f"layer width exceeds {MAX_BENCHMARK_UNITS} units")
        if self.branch_units * self.trunk_units > MAX_BENCHMARK_WEIGHTS:
            raise ValueError(f"weight count exceeds {MAX_BENCHMARK_WEIGHTS}")
        if not (self.branch_overlap > 0 and self.trunk_overlap > 0):
            raise ValueError("overlap factors must be positive")

    def stable_hash(self) -> str:
        payload = {
            "variant": self.variant,
            "branch_units": self.branch_units,
            "trunk_units": self.trunk_units,
            "branch_overlap": self.branch_overlap,
            "trunk_overlap": self.trunk_overlap,
            "seed": self.seed,
            "restarts": RESTARTS,
        }
        text = json.dumps(payload, sort_keys=True)
        return hashlib.sha256(text.encode()).hexdigest()[:16]


@dataclass(frozen=True)
class TrainedModel:
    """Immutable result of train(); safe to share across threads."""

    variant: str
    branch_layer: RbfLayer
    trunk_layer: RbfLayer
    weights: np.ndarray
    calibration: Calibration
    sensor_count: int
    query_dim: int
    seed: int
    config_hash: str
    training_residual: float

    def __post_init__(self):
        expected = self.branch_layer.n_units * self.trunk_layer.n_units
        if self.weights.shape != (expected,):
            raise ValueError(
                f"weights shape {self.weights.shape} does not match "
                f"{self.branch_layer.n_units} x {self.trunk_layer.n_units} units"
            )

    @property
    def branch_units(self) -> int:
        return self.branch_layer.n_units

    @property
    def trunk_units(self) -> int:
        return self.trunk_layer.n_units


def to_frequency_domain(u: np.ndarray) -> np.ndarray:
    """Unnormalized forward DFT of the sensor samples.

    The inverse (numpy's ifft) recovers the input. An frbon branch layer
    holds centers in the interleaved (re, im) real view of this spectrum
    (kernels.real_view), and feature_matrix accepts the spectrum itself.
    """
    u = np.asarray(u)
    if u.ndim != 1 or u.size < 1:
        raise ValueError(f"expected a nonempty 1-d sample vector, got shape {u.shape}")
    return np.fft.fft(u)


def _data_diameter(points: np.ndarray) -> float:
    """Largest pairwise distance, used as a spread fallback scale."""
    return float(np.max(pdist(points)))


def _branch_inputs(variant: str, inputs: np.ndarray) -> np.ndarray:
    """What the branch layer sees: the samples, or for frbon their DFT's real view."""
    if variant == "frbon":
        return real_view(np.fft.fft(inputs, axis=1))
    return inputs


def _fit_layer(points, units, overlap, seed):
    result = kmeans(points, ClusterConfig(k=units, seed=seed))
    # kmeans keeps distinct centers only, so compute_spreads falls back to
    # the data diameter only when a single center is left
    diameter = _data_diameter(points) if len(result.centers) == 1 else None
    spreads = compute_spreads(result.centers, overlap=overlap, data_diameter=diameter)
    return RbfLayer(centers=result.centers, spreads=spreads)


def _normalize_rows(features: np.ndarray) -> np.ndarray:
    """Divide each feature row by its sum; degenerate rows are an error."""
    sums = features.sum(axis=1)
    bad = np.flatnonzero(np.abs(sums) < 1e-300)
    if bad.size:
        raise DegenerateFeatureError(
            f"feature sum underflowed for {bad.size} of {features.shape[0]} rows; "
            "inputs lie too far from every center"
        )
    return features / sums[:, None]


def _features(variant, branch_layer, trunk_layer, inputs, queries):
    """Branch and trunk feature matrices of the variant, row-normalized for nrbon."""
    branch_feats = feature_matrix(branch_layer, _branch_inputs(variant, inputs))
    trunk_feats = feature_matrix(trunk_layer, queries)
    if variant == "nrbon":
        branch_feats = _normalize_rows(branch_feats)
        trunk_feats = _normalize_rows(trunk_feats)
    return branch_feats, trunk_feats


def _check_live_features(features: np.ndarray, layer_name: str) -> None:
    if np.max(features) <= 0.0:
        raise DegenerateFeatureError(
            f"every {layer_name} feature underflowed to zero; "
            "spreads are too small for the data scale"
        )


def train(data: TrainingSet, config: ModelConfig) -> TrainedModel:
    """Fit branch/trunk layers by K-means and output weights by least squares.

    Deterministic for a fixed (data, config): layer seeds derive from
    config.seed and the least-squares path has no randomness.
    """
    if data.n_functions < 2:
        raise ValueError(f"train needs at least 2 functions, got {data.n_functions}")

    branch_seed, trunk_seed = (
        int(s) for s in np.random.SeedSequence(config.seed).generate_state(2, dtype=np.uint64)
    )
    branch_layer = _fit_layer(
        _branch_inputs(config.variant, data.inputs),
        config.branch_units,
        config.branch_overlap,
        branch_seed,
    )
    trunk_layer = _fit_layer(data.queries, config.trunk_units, config.trunk_overlap, trunk_seed)

    branch_feats, trunk_feats = _features(
        config.variant, branch_layer, trunk_layer, data.inputs, data.queries
    )
    _check_live_features(branch_feats, "branch")
    _check_live_features(trunk_feats, "trunk")

    weights = kronecker_lstsq(branch_feats, trunk_feats, data.targets)
    raw = _raw_outputs(branch_feats, trunk_feats, weights)
    calibration = fit_calibration(raw.ravel(), data.targets.ravel())

    calibrated = calibration.apply(raw)
    residual = float(np.max(np.abs(calibrated - data.targets)))

    return TrainedModel(
        variant=config.variant,
        branch_layer=branch_layer,
        trunk_layer=trunk_layer,
        weights=weights,
        calibration=calibration,
        sensor_count=data.n_sensors,
        query_dim=data.query_dim,
        seed=config.seed,
        config_hash=config.stable_hash(),
        training_residual=residual,
    )


def _raw_outputs(branch_feats, trunk_feats, weights):
    """Uncalibrated outputs b(u_j)^T W t(y_l) for every (function, query) pair."""
    weight_matrix = weights.reshape(branch_feats.shape[1], trunk_feats.shape[1])
    return branch_feats @ weight_matrix @ trunk_feats.T


def predict_field(model: TrainedModel, u: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """Evaluate one input function at many query locations."""
    u = np.asarray(u)
    if u.ndim != 1:
        raise ValueError(f"expected a 1-d sensor vector, got shape {u.shape}")
    return predict_matrix(model, u[None, :], queries)[0]


def predict(model: TrainedModel, u: np.ndarray, y: np.ndarray) -> float:
    """Evaluate one input function at a single query location."""
    y = np.atleast_1d(np.asarray(y, dtype=float))
    return float(predict_field(model, u, y[None, :])[0])


def predict_matrix(model: TrainedModel, inputs: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """Evaluate many input functions at shared query locations.

    Returns the (n_functions, n_queries) matrix of calibrated outputs
    scale * b(u_j)^T W t(y_l) + offset, with b and t each normalized to unit
    sum for nrbon. predict_field and predict evaluate through it.
    """
    inputs = np.asarray(inputs, dtype=float)
    if inputs.ndim != 2 or inputs.shape[1] != model.sensor_count:
        raise ValueError(
            f"expected inputs of shape (n, {model.sensor_count}), got {inputs.shape}"
        )
    queries = np.asarray(queries, dtype=float)
    if queries.ndim != 2 or queries.shape[1] != model.query_dim:
        raise ValueError(
            f"expected queries of shape (n, {model.query_dim}), got {queries.shape}"
        )
    branch_feats, trunk_feats = _features(
        model.variant, model.branch_layer, model.trunk_layer, inputs, queries
    )
    return model.calibration.apply(_raw_outputs(branch_feats, trunk_feats, model.weights))


def save_model(model: TrainedModel, destination) -> None:
    """Write the model so that load_model reproduces predictions exactly."""
    centers = model.branch_layer.centers
    # the file keeps branch centers as real and imaginary parts; frbon's
    # interleaved (re, im) columns are those parts
    complex_branch = model.variant == "frbon"
    arrays = {
        "branch_centers_real": centers[:, 0::2] if complex_branch else centers,
        "branch_centers_imag": centers[:, 1::2] if complex_branch else np.zeros_like(centers),
        "branch_spreads": model.branch_layer.spreads,
        "trunk_centers": model.trunk_layer.centers,
        "trunk_spreads": model.trunk_layer.spreads,
        "weights": model.weights,
    }
    meta = {
        "kind": "model",
        "variant": model.variant,
        "sensor_count": model.sensor_count,
        "query_dim": model.query_dim,
        "branch_units": model.branch_units,
        "trunk_units": model.trunk_units,
        "scale": model.calibration.scale,
        "offset": model.calibration.offset,
        "seed": model.seed,
        "config_hash": model.config_hash,
        "training_residual": model.training_residual,
        "complex_branch": complex_branch,
    }
    save_container(destination, arrays, meta)


def load_model(source) -> TrainedModel:
    """Read a model written by save_model."""
    arrays, meta = load_container(source, expected_kind="model")
    if meta["complex_branch"] != (meta["variant"] == "frbon"):
        raise CorruptFileError(
            f"{source}: complex_branch {meta['complex_branch']} does not fit "
            f"variant {meta['variant']!r}"
        )
    branch_units, trunk_units = meta["branch_units"], meta["trunk_units"]
    expected_shapes = {
        "branch_centers_real": (branch_units, meta["sensor_count"]),
        "branch_centers_imag": (branch_units, meta["sensor_count"]),
        "branch_spreads": (branch_units,),
        "trunk_centers": (trunk_units, meta["query_dim"]),
        "trunk_spreads": (trunk_units,),
        "weights": (branch_units * trunk_units,),
    }
    for name, shape in expected_shapes.items():
        if name not in arrays:
            raise CorruptFileError(f"{source}: missing member {name}")
        if arrays[name].shape != shape:
            raise CorruptFileError(
                f"{source}: member {name} has shape {arrays[name].shape}, expected {shape}"
            )
    centers = arrays["branch_centers_real"]
    if meta["complex_branch"]:
        # re-interleave the parts into the real view the layer was fitted in
        centers = np.stack([centers, arrays["branch_centers_imag"]], axis=2)
        centers = centers.reshape(len(centers), -1)
    branch_layer = RbfLayer(centers=centers, spreads=arrays["branch_spreads"])
    trunk_layer = RbfLayer(centers=arrays["trunk_centers"], spreads=arrays["trunk_spreads"])
    return TrainedModel(
        variant=meta["variant"],
        branch_layer=branch_layer,
        trunk_layer=trunk_layer,
        weights=arrays["weights"],
        calibration=Calibration(scale=meta["scale"], offset=meta["offset"]),
        sensor_count=meta["sensor_count"],
        query_dim=meta["query_dim"],
        seed=meta["seed"],
        config_hash=meta["config_hash"],
        training_residual=meta["training_residual"],
    )
