"""Generated checks of the prediction formula, the Kronecker weight solve,
model files and training determinism."""

import dataclasses
import io

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from rbon.kernels import RbfLayer, feature_matrix, gaussian_rbf, real_view
from rbon.least_squares import Calibration, kronecker_lstsq
from rbon.model import (
    ModelConfig,
    TrainedModel,
    TrainingSet,
    load_model,
    predict,
    predict_field,
    predict_matrix,
    save_model,
    train,
)

PROPERTY_SETTINGS = settings(max_examples=60, deadline=None, derandomize=True)

seeds = st.integers(min_value=0, max_value=2**32 - 1)
sizes = st.integers(min_value=1, max_value=5)


def _random_model(variant, branch_units, trunk_units, sensors, query_dim, seed):
    rng = np.random.default_rng(seed)
    centers = rng.normal(size=(branch_units, sensors))
    if variant == "frbon":
        # branch centers live where the DFT puts the inputs, in its real view
        centers = real_view(np.fft.fft(centers, axis=1))
        spreads = rng.uniform(0.5, 2.0, branch_units) * np.sqrt(sensors)
    else:
        spreads = rng.uniform(0.5, 2.0, branch_units)
    return TrainedModel(
        variant=variant,
        branch_layer=RbfLayer(centers=centers, spreads=spreads),
        trunk_layer=RbfLayer(
            centers=rng.normal(size=(trunk_units, query_dim)),
            spreads=rng.uniform(0.5, 2.0, trunk_units),
        ),
        weights=rng.normal(scale=10.0, size=branch_units * trunk_units),
        calibration=Calibration(scale=float(rng.uniform(-3.0, 3.0)),
                                offset=float(rng.normal())),
        sensor_count=sensors,
        query_dim=query_dim,
        seed=0,
        config_hash="probe",
        training_residual=0.0,
    )


def _branch_input(model, inputs):
    """The branch layer's view of sensor samples: frbon sees its DFT's real view."""
    return real_view(np.fft.fft(inputs, axis=-1)) if model.variant == "frbon" else inputs


def _term_magnitude(model, inputs, queries):
    """|scale| * sum_ik |w_ik| b_i t_k + |offset|: the size of the rounding error."""
    b = feature_matrix(model.branch_layer, _branch_input(model, inputs))
    t = feature_matrix(model.trunk_layer, queries)
    if model.variant == "nrbon":
        b = b / b.sum(axis=1, keepdims=True)
        t = t / t.sum(axis=1, keepdims=True)
    w = np.abs(model.weights).reshape(b.shape[1], t.shape[1])
    return abs(model.calibration.scale) * (b @ w @ t.T) + abs(model.calibration.offset)


def _double_loop(model, u, y):
    """The output formula one scalar kernel evaluation at a time."""
    branch, trunk = model.branch_layer, model.trunk_layer
    u = _branch_input(model, u)
    b = [gaussian_rbf(u, branch.centers[i], branch.spreads[i]) for i in range(branch.n_units)]
    t = [gaussian_rbf(y, trunk.centers[k], trunk.spreads[k]) for k in range(trunk.n_units)]
    total = 0.0
    mass = 0.0
    for i in range(branch.n_units):
        for k in range(trunk.n_units):
            total += model.weights[i * trunk.n_units + k] * b[i] * t[k]
            mass += b[i] * t[k]
    if model.variant == "nrbon":
        total /= mass
    return model.calibration.apply(total)


@PROPERTY_SETTINGS
@given(
    variant=st.sampled_from(("rbon", "nrbon", "frbon")),
    branch_units=sizes,
    trunk_units=sizes,
    sensors=st.integers(min_value=1, max_value=6),
    query_dim=st.integers(min_value=1, max_value=2),
    functions=st.integers(min_value=1, max_value=4),
    n_queries=st.integers(min_value=1, max_value=6),
    seed=seeds,
)
def test_field_prediction_is_a_matrix_row(
    variant, branch_units, trunk_units, sensors, query_dim, functions, n_queries, seed
):
    model = _random_model(variant, branch_units, trunk_units, sensors, query_dim, seed)
    rng = np.random.default_rng(seed + 1)
    inputs = rng.normal(size=(functions, sensors))
    queries = rng.normal(size=(n_queries, query_dim))
    batch = predict_matrix(model, inputs, queries)
    magnitude = _term_magnitude(model, inputs, queries)
    for j in range(functions):
        field = predict_field(model, inputs[j], queries)
        np.testing.assert_array_equal(field, predict_matrix(model, inputs[j][None], queries)[0])
        # a batched product may sum one row in another order
        assert np.all(np.abs(field - batch[j]) <= 1e-12 * magnitude[j])


@PROPERTY_SETTINGS
@given(
    variant=st.sampled_from(("rbon", "nrbon", "frbon")),
    branch_units=sizes,
    trunk_units=sizes,
    sensors=st.integers(min_value=1, max_value=6),
    query_dim=st.integers(min_value=1, max_value=2),
    seed=seeds,
)
def test_prediction_matches_scalar_double_loop(
    variant, branch_units, trunk_units, sensors, query_dim, seed
):
    model = _random_model(variant, branch_units, trunk_units, sensors, query_dim, seed)
    rng = np.random.default_rng(seed + 1)
    u = rng.normal(size=sensors)
    y = rng.normal(size=query_dim)
    magnitude = _term_magnitude(model, u[None], y[None])[0, 0]
    assert abs(predict(model, u, y) - _double_loop(model, u, y)) <= 1e-12 * magnitude


def _factor(rng, rows, cols, rank):
    """rows x cols matrix of the given rank with nonzero singular values in [0.5, 2]."""
    left = np.linalg.qr(rng.normal(size=(rows, rows)))[0][:, :rank]
    right = np.linalg.qr(rng.normal(size=(cols, cols)))[0][:, :rank]
    return left @ np.diag(rng.uniform(0.5, 2.0, rank)) @ right.T


@PROPERTY_SETTINGS
@given(
    functions=sizes,
    branch_units=sizes,
    n_queries=sizes,
    trunk_units=sizes,
    branch_deficit=st.integers(min_value=0, max_value=2),
    trunk_deficit=st.integers(min_value=0, max_value=2),
    seed=seeds,
)
def test_kronecker_solve_is_min_norm_solve_of_stacked_system(
    functions, branch_units, n_queries, trunk_units, branch_deficit, trunk_deficit, seed
):
    rng = np.random.default_rng(seed)
    B = _factor(rng, functions, branch_units,
                max(min(functions, branch_units) - branch_deficit, 1))
    T = _factor(rng, n_queries, trunk_units, max(min(n_queries, trunk_units) - trunk_deficit, 1))
    Y = rng.normal(size=(functions, n_queries))
    oracle, *_ = np.linalg.lstsq(np.kron(B, T), Y.ravel(), rcond=None)
    weights = kronecker_lstsq(B, T, Y)
    assert np.linalg.norm(weights - oracle) <= 1e-9 * max(np.linalg.norm(oracle), 1.0)


def _assert_same_model(a, b):
    assert (a.variant, a.sensor_count, a.query_dim, a.seed, a.config_hash) == (
        b.variant, b.sensor_count, b.query_dim, b.seed, b.config_hash
    )
    for layer_a, layer_b in ((a.branch_layer, b.branch_layer), (a.trunk_layer, b.trunk_layer)):
        np.testing.assert_array_equal(layer_a.centers, layer_b.centers)
        np.testing.assert_array_equal(layer_a.spreads, layer_b.spreads)
    np.testing.assert_array_equal(a.weights, b.weights)
    assert a.calibration == b.calibration
    assert a.training_residual == b.training_residual


def _saved_bytes(model):
    buffer = io.BytesIO()
    save_model(model, buffer)
    return buffer.getvalue()


@PROPERTY_SETTINGS
@given(
    variant=st.sampled_from(("rbon", "nrbon", "frbon")),
    branch_units=sizes,
    trunk_units=sizes,
    sensors=st.integers(min_value=1, max_value=6),
    query_dim=st.integers(min_value=1, max_value=2),
    seed=seeds,
)
def test_saved_model_loads_bit_identically(
    variant, branch_units, trunk_units, sensors, query_dim, seed
):
    model = _random_model(variant, branch_units, trunk_units, sensors, query_dim, seed)
    blob = _saved_bytes(model)
    loaded = load_model(io.BytesIO(blob))
    _assert_same_model(loaded, model)
    rng = np.random.default_rng(seed + 1)
    inputs = rng.normal(size=(3, sensors))
    queries = rng.normal(size=(4, query_dim))
    np.testing.assert_array_equal(
        predict_matrix(loaded, inputs, queries), predict_matrix(model, inputs, queries)
    )
    assert _saved_bytes(loaded) == blob


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    variant=st.sampled_from(("rbon", "nrbon", "frbon")),
    functions=st.integers(min_value=2, max_value=8),
    sensors=st.integers(min_value=1, max_value=5),
    n_queries=st.integers(min_value=2, max_value=6),
    branch_units=st.integers(min_value=1, max_value=4),
    trunk_units=st.integers(min_value=1, max_value=4),
    seed=seeds,
)
def test_training_is_deterministic_per_seed(
    variant, functions, sensors, n_queries, branch_units, trunk_units, seed
):
    rng = np.random.default_rng(seed)
    data = TrainingSet(
        inputs=rng.normal(size=(functions, sensors)),
        queries=rng.uniform(0.0, 1.0, size=(n_queries, 1)),
        targets=rng.normal(size=(functions, n_queries)),
    )
    config = ModelConfig(variant=variant, branch_units=branch_units,
                         trunk_units=trunk_units, branch_overlap=2.0,
                         trunk_overlap=2.0, seed=seed % 1000)
    _assert_same_model(train(data, config), train(data, config))


@PROPERTY_SETTINGS
@given(
    branch_units=sizes,
    trunk_units=sizes,
    sensors=st.integers(min_value=1, max_value=6),
    query_dim=st.integers(min_value=1, max_value=2),
    weight=st.floats(min_value=-1e3, max_value=1e3),
    seed=seeds,
)
def test_normalized_model_with_constant_weights_is_constant(
    branch_units, trunk_units, sensors, query_dim, weight, seed
):
    # normalized branch and trunk features each sum to one, so their products do too
    model = _random_model("nrbon", branch_units, trunk_units, sensors, query_dim, seed)
    model = dataclasses.replace(model, weights=np.full(branch_units * trunk_units, weight))
    rng = np.random.default_rng(seed + 1)
    inputs = rng.normal(scale=0.5, size=(3, sensors))
    queries = rng.normal(scale=0.5, size=(4, query_dim))
    expected = model.calibration.scale * weight + model.calibration.offset
    magnitude = abs(model.calibration.scale * weight) + abs(model.calibration.offset)
    predicted = predict_matrix(model, inputs, queries)
    assert np.all(np.abs(predicted - expected) <= 1e-13 * magnitude)
