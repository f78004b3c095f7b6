"""Training, prediction structure, frequency transform, serialization."""

import numpy as np
import pytest

from rbon.container import CorruptFileError, FormatVersionError, load_container, save_container
from rbon.kernels import DegenerateFeatureError, RbfLayer, feature_matrix, gaussian_rbf
from rbon.least_squares import Calibration
from rbon.model import (
    MAX_BENCHMARK_UNITS,
    ModelConfig,
    TrainedModel,
    TrainingSet,
    load_model,
    predict,
    predict_field,
    predict_matrix,
    save_model,
    to_frequency_domain,
    train,
)


# frequency transform --------------------------------------------------------


def _naive_dft(u):
    m = len(u)
    n = np.arange(m)
    return np.array([np.sum(u * np.exp(-2j * np.pi * k * n / m)) for k in range(m)])


def test_dft_matches_naive_double_loop():
    rng = np.random.default_rng(50)
    for m in (1, 2, 3, 5, 8, 16, 128):
        u = rng.normal(size=m)
        U = to_frequency_domain(u)
        oracle = _naive_dft(u)
        assert np.max(np.abs(U - oracle)) <= 1e-10 * max(np.max(np.abs(oracle)), 1.0)


def test_dft_roundtrip():
    rng = np.random.default_rng(51)
    for m in (2, 7, 64):
        u = rng.normal(size=m)
        back = np.fft.ifft(to_frequency_domain(u))
        assert np.max(np.abs(back - u)) <= 1e-10
        assert np.max(np.abs(back.imag)) <= 1e-10


def test_dft_energy_identity():
    # unnormalized transform: sum |U_k|^2 = m * sum |u_n|^2
    rng = np.random.default_rng(52)
    for m in (4, 9, 100):
        u = rng.normal(size=m)
        U = to_frequency_domain(u)
        lhs = np.sum(np.abs(U) ** 2)
        rhs = m * np.sum(u**2)
        assert abs(lhs - rhs) <= 1e-9 * rhs


def test_dft_constant_vector_concentrates_at_zero_frequency():
    U = to_frequency_domain(np.full(8, 2.5))
    assert U[0] == pytest.approx(20.0, abs=1e-12)
    assert np.max(np.abs(U[1:])) <= 1e-12


def test_dft_validation():
    with pytest.raises(ValueError):
        to_frequency_domain(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        to_frequency_domain(np.array([]))


# prediction structure -------------------------------------------------------


def _manual_model(variant, branch_units, trunk_units, sensors, seed):
    rng = np.random.default_rng(seed)
    branch = RbfLayer(
        centers=rng.normal(size=(branch_units, sensors)),
        spreads=rng.uniform(0.5, 2.0, branch_units),
    )
    trunk = RbfLayer(
        centers=rng.normal(size=(trunk_units, 2)),
        spreads=rng.uniform(0.5, 2.0, trunk_units),
    )
    return TrainedModel(
        variant=variant,
        branch_layer=branch,
        trunk_layer=trunk,
        weights=rng.normal(size=branch_units * trunk_units),
        calibration=Calibration(scale=1.0, offset=0.0),
        sensor_count=sensors,
        query_dim=2,
        seed=0,
        config_hash="manual",
        training_residual=0.0,
    )


def _double_loop(model, u, y):
    """Scalar reimplementation of the weighted feature-product sum."""
    branch, trunk = model.branch_layer, model.trunk_layer
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
    return total


def test_prediction_matches_double_loop():
    model = _manual_model("rbon", 4, 3, 5, seed=60)
    rng = np.random.default_rng(61)
    for _ in range(25):
        u = rng.normal(size=5)
        y = rng.normal(size=2)
        assert predict(model, u, y) == pytest.approx(_double_loop(model, u, y), abs=1e-12)


def test_normalized_prediction_matches_double_loop():
    model = _manual_model("nrbon", 4, 3, 5, seed=62)
    rng = np.random.default_rng(63)
    for _ in range(25):
        u = rng.normal(size=5)
        y = rng.normal(size=2)
        assert predict(model, u, y) == pytest.approx(_double_loop(model, u, y), abs=1e-12)


def test_normalized_prediction_stays_inside_weight_range():
    # convex combination of the weights, so the raw output is bounded by them
    model = _manual_model("nrbon", 5, 4, 3, seed=64)
    rng = np.random.default_rng(65)
    lo, hi = model.weights.min(), model.weights.max()
    for _ in range(50):
        u = rng.normal(size=3)
        y = rng.normal(size=2)
        value = predict(model, u, y)
        assert lo - 1e-12 <= value <= hi + 1e-12


def test_field_prediction_agrees_with_single_queries():
    model = _manual_model("rbon", 3, 4, 6, seed=66)
    rng = np.random.default_rng(67)
    u = rng.normal(size=6)
    queries = rng.normal(size=(9, 2))
    field = predict_field(model, u, queries)
    for l in range(9):
        assert field[l] == pytest.approx(predict(model, u, queries[l]), abs=1e-14)


def test_duplicate_queries_give_duplicate_values():
    model = _manual_model("rbon", 3, 3, 4, seed=68)
    rng = np.random.default_rng(69)
    u = rng.normal(size=4)
    y = rng.normal(size=2)
    field = predict_field(model, u, np.vstack([y, y, y]))
    assert field[0] == field[1] == field[2]


def test_matrix_prediction_agrees_with_field_prediction():
    rng = np.random.default_rng(70)
    data = _smooth_dataset(rng, functions=12, sensors=10, queries=8)
    for variant in ("rbon", "nrbon", "frbon"):
        model = train(data, ModelConfig(variant=variant, branch_units=4, trunk_units=4,
                                        branch_overlap=2.0, trunk_overlap=2.0))
        matrix = predict_matrix(model, data.inputs, data.queries)
        for j in range(data.n_functions):
            field = predict_field(model, data.inputs[j], data.queries)
            np.testing.assert_allclose(matrix[j], field, atol=1e-10)


def test_prediction_input_validation():
    model = _manual_model("rbon", 3, 3, 4, seed=71)
    with pytest.raises(ValueError):
        predict(model, np.zeros(5), np.zeros(2))
    with pytest.raises(ValueError):
        predict_field(model, np.zeros(4), np.zeros((3, 1)))
    with pytest.raises(ValueError):
        predict_matrix(model, np.zeros((2, 5)), np.zeros((3, 2)))


# training -------------------------------------------------------------------


def _smooth_dataset(rng, functions, sensors, queries):
    """Random smooth operator data: u drawn from sines, target a blurred copy."""
    xs = np.linspace(0.0, 1.0, sensors)
    ys = np.linspace(0.0, 1.0, queries)[:, None]
    amps = rng.uniform(0.5, 2.0, size=(functions, 1))
    phases = rng.uniform(0.0, 2.0 * np.pi, size=(functions, 1))
    inputs = amps * np.sin(2.0 * np.pi * xs[None, :] + phases)
    targets = amps * np.sin(2.0 * np.pi * ys.T + phases) * 0.5
    return TrainingSet(inputs=inputs, queries=ys, targets=targets)


def test_stacked_solve_matches_full_system():
    # the two-factor solve must equal the minimum-norm solution of the
    # stacked system over every (function, query) pair
    rng = np.random.default_rng(72)
    for functions, branch_units, trunk_units in ((8, 3, 4), (4, 6, 5)):
        data = _smooth_dataset(rng, functions=functions, sensors=7, queries=6)
        model = train(
            data,
            ModelConfig(variant="rbon", branch_units=branch_units, trunk_units=trunk_units,
                        branch_overlap=2.0, trunk_overlap=2.0),
        )
        B = feature_matrix(model.branch_layer, data.inputs)
        T = feature_matrix(model.trunk_layer, data.queries)
        big_design = np.kron(B, T)  # row (j, l), column (i, k), both row-major
        oracle, *_ = np.linalg.lstsq(big_design, data.targets.ravel(), rcond=None)
        scale = max(np.linalg.norm(oracle), 1.0)
        assert np.linalg.norm(model.weights - oracle) <= 1e-9 * scale


def test_stacked_solve_matches_full_system_when_rank_deficient():
    rng = np.random.default_rng(73)
    data = _smooth_dataset(rng, functions=6, sensors=7, queries=6)
    inputs = data.inputs.copy()
    targets = data.targets.copy()
    inputs[4] = inputs[1]  # duplicate function: branch features lose rank
    targets[4] = targets[1]
    data = TrainingSet(inputs=inputs, queries=data.queries, targets=targets)
    model = train(
        data,
        ModelConfig(variant="rbon", branch_units=6, trunk_units=5,
                    branch_overlap=2.0, trunk_overlap=2.0),
    )
    B = feature_matrix(model.branch_layer, data.inputs)
    T = feature_matrix(model.trunk_layer, data.queries)
    oracle, *_ = np.linalg.lstsq(np.kron(B, T), data.targets.ravel(), rcond=None)
    scale = max(np.linalg.norm(oracle), 1.0)
    assert np.linalg.norm(model.weights - oracle) <= 1e-9 * scale


def test_constant_functions_identity_operator():
    # constant inputs u = c, identity operator: held-out constants must come
    # back essentially exactly, and prediction extends to any location
    constants = np.linspace(1.0, 5.0, 10)
    sensors = 16
    queries = np.linspace(0.0, 1.0, 8)[:, None]
    data = TrainingSet(
        inputs=np.repeat(constants[:, None], sensors, axis=1),
        queries=queries,
        targets=np.repeat(constants[:, None], 8, axis=1),
    )
    config = ModelConfig(variant="rbon", branch_units=10, trunk_units=5,
                         branch_overlap=6.0, trunk_overlap=16.0)
    model = train(data, config)
    for c in np.linspace(1.3, 4.7, 7):
        field = predict_field(model, np.full(sensors, c), queries)
        truth = np.full(8, c)
        rel = np.linalg.norm(field - truth) / np.linalg.norm(truth)
        assert rel < 1e-6
    dense = np.linspace(0.0, 1.0, 101)[:, None]
    field = predict_field(model, np.full(sensors, 3.7), dense)
    assert np.max(np.abs(field - 3.7)) < 1e-5


def test_sine_scaling_operator():
    # u = a sin(pi x) mapped to 2 u, unseen amplitudes recovered to 1e-4
    amplitudes = np.linspace(0.5, 3.0, 40)
    xs = np.linspace(0.0, 1.0, 32)
    queries = np.linspace(0.0, 1.0, 16)[:, None]
    data = TrainingSet(
        inputs=amplitudes[:, None] * np.sin(np.pi * xs)[None, :],
        queries=queries,
        targets=2.0 * amplitudes[:, None] * np.sin(np.pi * queries.T),
    )
    config = ModelConfig(variant="rbon", branch_units=15, trunk_units=14,
                         branch_overlap=5.0, trunk_overlap=4.0, seed=1)
    model = train(data, config)
    for a in np.linspace(0.7, 2.8, 9):
        field = predict_field(model, a * np.sin(np.pi * xs), queries)
        truth = 2.0 * a * np.sin(np.pi * queries[:, 0])
        assert np.linalg.norm(field - truth) / np.linalg.norm(truth) < 1e-4


def test_training_pairs_within_reported_residual():
    rng = np.random.default_rng(75)
    data = _smooth_dataset(rng, functions=10, sensors=9, queries=7)
    model = train(data, ModelConfig(branch_units=5, trunk_units=5,
                                    branch_overlap=2.0, trunk_overlap=2.0))
    predicted = predict_matrix(model, data.inputs, data.queries)
    worst = np.max(np.abs(predicted - data.targets))
    assert worst <= model.training_residual + 1e-9


def test_training_is_deterministic():
    rng = np.random.default_rng(76)
    data = _smooth_dataset(rng, functions=10, sensors=8, queries=6)
    config = ModelConfig(variant="nrbon", branch_units=4, trunk_units=4,
                         branch_overlap=2.0, trunk_overlap=2.0, seed=9)
    a = train(data, config)
    b = train(data, config)
    np.testing.assert_array_equal(a.weights, b.weights)
    np.testing.assert_array_equal(a.branch_layer.centers, b.branch_layer.centers)
    np.testing.assert_array_equal(a.trunk_layer.spreads, b.trunk_layer.spreads)
    assert a.calibration == b.calibration
    assert a.training_residual == b.training_residual


def test_single_unit_normalized_model_is_constant():
    # one branch and one trunk unit: the convex combination has one term,
    # so the output is the calibrated weight everywhere
    rng = np.random.default_rng(77)
    data = _smooth_dataset(rng, functions=6, sensors=5, queries=4)
    model = train(data, ModelConfig(variant="nrbon", branch_units=1, trunk_units=1,
                                    branch_overlap=2.0, trunk_overlap=2.0))
    expected = model.calibration.apply(model.weights[0])
    for _ in range(5):
        u = rng.normal(size=5)
        y = rng.uniform(0.0, 1.0, size=1)
        assert predict(model, u, y) == pytest.approx(expected, abs=1e-12)


def test_frequency_variant_trains_with_complex_branch():
    rng = np.random.default_rng(78)
    data = _smooth_dataset(rng, functions=10, sensors=8, queries=6)
    model = train(data, ModelConfig(variant="frbon", branch_units=4, trunk_units=4,
                                    branch_overlap=2.0, trunk_overlap=2.0))
    # the branch fits the spectrum's interleaved (re, im) real view
    assert model.branch_layer.input_dim == 2 * data.n_sensors
    assert model.branch_layer.centers.dtype == np.float64
    assert model.trunk_layer.input_dim == data.query_dim
    field = predict_field(model, data.inputs[0], data.queries)
    assert np.all(np.isfinite(field))


def test_far_input_degenerates_normalized_features():
    rng = np.random.default_rng(79)
    data = _smooth_dataset(rng, functions=8, sensors=6, queries=5)
    model = train(data, ModelConfig(variant="nrbon", branch_units=3, trunk_units=3,
                                    branch_overlap=1.0, trunk_overlap=1.0))
    with pytest.raises(DegenerateFeatureError):
        predict_field(model, np.full(6, 1e8), data.queries)


# configuration and data validation ------------------------------------------


def test_training_set_validation():
    queries = np.zeros((3, 1))
    with pytest.raises(ValueError):
        TrainingSet(inputs=np.zeros((0, 4)), queries=queries, targets=np.zeros((0, 3)))
    with pytest.raises(ValueError):
        TrainingSet(inputs=np.zeros((2, 4)), queries=queries, targets=np.zeros((2, 2)))
    bad = np.zeros((2, 4))
    bad[0, 0] = np.nan
    with pytest.raises(ValueError):
        TrainingSet(inputs=bad, queries=queries, targets=np.zeros((2, 3)))


def test_train_needs_two_functions():
    # one function is a valid (test) split, but too few to train on
    single = TrainingSet(inputs=np.zeros((1, 4)), queries=np.zeros((3, 1)),
                         targets=np.zeros((1, 3)))
    assert single.n_functions == 1
    with pytest.raises(ValueError, match="at least 2 functions"):
        train(single, ModelConfig(branch_units=1, trunk_units=1))


def test_config_validation():
    with pytest.raises(ValueError):
        ModelConfig(variant="mystery")
    with pytest.raises(ValueError):
        ModelConfig(branch_units=0)
    with pytest.raises(ValueError):
        ModelConfig(branch_overlap=0.0)


def test_benchmark_cap():
    ModelConfig(branch_units=MAX_BENCHMARK_UNITS, trunk_units=MAX_BENCHMARK_UNITS)
    with pytest.raises(ValueError):
        ModelConfig(branch_units=MAX_BENCHMARK_UNITS + 1)
    with pytest.raises(ValueError):
        ModelConfig(trunk_units=MAX_BENCHMARK_UNITS + 1)
    with pytest.raises(ValueError):
        ModelConfig(branch_units=20, trunk_units=20)


def test_stable_hash_tracks_training_settings():
    base = ModelConfig()
    assert base.stable_hash() == ModelConfig().stable_hash()
    assert base.stable_hash() != ModelConfig(seed=1).stable_hash()
    assert base.stable_hash() != ModelConfig(variant="nrbon").stable_hash()


# serialization --------------------------------------------------------------


def test_save_load_preserves_predictions_exactly(tmp_path):
    rng = np.random.default_rng(80)
    data = _smooth_dataset(rng, functions=10, sensors=8, queries=6)
    probe_inputs = rng.normal(size=(4, 8))
    probe_queries = rng.uniform(0.0, 1.0, size=(11, 1))
    for variant in ("rbon", "nrbon", "frbon"):
        model = train(data, ModelConfig(variant=variant, branch_units=4, trunk_units=4,
                                        branch_overlap=2.0, trunk_overlap=2.0))
        path = tmp_path / f"{variant}.npz"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.variant == model.variant
        assert loaded.sensor_count == model.sensor_count
        assert loaded.config_hash == model.config_hash
        np.testing.assert_array_equal(loaded.weights, model.weights)
        np.testing.assert_array_equal(loaded.branch_layer.centers, model.branch_layer.centers)
        before = predict_matrix(model, probe_inputs, probe_queries)
        after = predict_matrix(loaded, probe_inputs, probe_queries)
        np.testing.assert_array_equal(before, after)


def test_frequency_model_round_trips_complex_centers(tmp_path):
    rng = np.random.default_rng(81)
    data = _smooth_dataset(rng, functions=8, sensors=6, queries=5)
    model = train(data, ModelConfig(variant="frbon", branch_units=3, trunk_units=3,
                                    branch_overlap=2.0, trunk_overlap=2.0))
    path = tmp_path / "freq.npz"
    save_model(model, path)
    loaded = load_model(path)
    assert loaded.branch_layer.centers.shape == (model.branch_units, 2 * data.n_sensors)
    assert loaded.branch_layer.centers.dtype == np.float64
    np.testing.assert_array_equal(loaded.branch_layer.centers, model.branch_layer.centers)


def test_complex_split_file_loads_to_interleaved_centers(tmp_path):
    from rbon.container import save_container

    path = tmp_path / "split.npz"
    arrays = {
        "branch_centers_real": np.array([[1.0, 2.0], [3.0, 4.0]]),
        "branch_centers_imag": np.array([[5.0, 6.0], [7.0, 8.0]]),
        "branch_spreads": np.ones(2),
        "trunk_centers": np.zeros((1, 1)),
        "trunk_spreads": np.ones(1),
        "weights": np.array([1.0, -1.0]),
    }
    meta = {
        "kind": "model", "variant": "frbon", "sensor_count": 2, "query_dim": 1,
        "branch_units": 2, "trunk_units": 1, "scale": 1.0, "offset": 0.0, "seed": 0,
        "config_hash": "hand", "training_residual": 0.0, "complex_branch": True,
    }
    save_container(path, arrays, meta)
    model = load_model(path)
    # row i is (re_i1, im_i1, re_i2, im_i2), the real view of the spectrum
    np.testing.assert_array_equal(
        model.branch_layer.centers, [[1.0, 5.0, 2.0, 6.0], [3.0, 7.0, 4.0, 8.0]]
    )
    resaved = tmp_path / "resaved.npz"
    save_model(model, resaved)
    assert resaved.read_bytes() == path.read_bytes()


def _hand_model_file(path, variant="rbon", sensor_count=2, **members):
    """A model file with two branch units and one trunk unit, members overridden."""
    arrays = {
        "branch_centers_real": np.zeros((2, 2)),
        "branch_centers_imag": np.zeros((2, 2)),
        "branch_spreads": np.ones(2),
        "trunk_centers": np.zeros((1, 1)),
        "trunk_spreads": np.ones(1),
        "weights": np.array([1.0, -1.0]),
        **members,
    }
    meta = {
        "kind": "model", "variant": variant, "sensor_count": sensor_count, "query_dim": 1,
        "branch_units": 2, "trunk_units": 1, "scale": 1.0, "offset": 0.0, "seed": 0,
        "config_hash": "hand", "training_residual": 0.0,
        "complex_branch": variant == "frbon",
    }
    save_container(path, arrays, meta)
    return path


@pytest.mark.parametrize(
    "variant, sensor_count, member, array",
    [
        # real and imaginary parts of different shapes
        ("frbon", 2, "branch_centers_imag", np.zeros((2, 3))),
        # branch width 4 is not 2 x sensor_count
        ("frbon", 3, "branch_centers_real", np.zeros((2, 2))),
        # branch width 4 is not sensor_count
        ("rbon", 3, "branch_centers_real", np.zeros((2, 4))),
        ("rbon", 2, "trunk_centers", np.zeros((1, 2))),
        ("rbon", 2, "branch_spreads", np.ones(3)),
        ("rbon", 2, "trunk_spreads", np.ones(2)),
        ("rbon", 2, "weights", np.ones(3)),
    ],
)
def test_load_model_rejects_inconsistent_shapes(tmp_path, variant, sensor_count, member, array):
    path = _hand_model_file(tmp_path / "bad.npz", variant, sensor_count, **{member: array})
    with pytest.raises(CorruptFileError, match=member):
        load_model(path)


def test_load_model_rejects_complex_flag_of_other_variant(tmp_path):
    path = _hand_model_file(tmp_path / "bad.npz", variant="frbon")
    arrays, meta = load_container(path)
    save_container(path, arrays, {**meta, "complex_branch": False})
    with pytest.raises(CorruptFileError, match="complex_branch"):
        load_model(path)


def test_load_model_rejects_missing_member(tmp_path):
    path = _hand_model_file(tmp_path / "bad.npz")
    assert load_model(path).weights.shape == (2,)  # the untouched file is consistent
    arrays, meta = load_container(path)
    del arrays["trunk_spreads"]
    save_container(path, arrays, meta)
    with pytest.raises(CorruptFileError, match="trunk_spreads"):
        load_model(path)


def test_load_model_rejects_damaged_files(tmp_path):
    rng = np.random.default_rng(82)
    data = _smooth_dataset(rng, functions=6, sensors=5, queries=4)
    model = train(data, ModelConfig(branch_units=3, trunk_units=3,
                                    branch_overlap=2.0, trunk_overlap=2.0))
    path = tmp_path / "model.npz"
    save_model(model, path)
    blob = path.read_bytes()
    path.write_bytes(blob[: len(blob) // 3])
    with pytest.raises(CorruptFileError):
        load_model(path)


def test_load_model_rejects_wrong_kind(tmp_path):
    from rbon.container import save_container

    path = tmp_path / "dataset.npz"
    save_container(path, {"inputs": np.zeros((2, 2))}, {"kind": "dataset"})
    with pytest.raises(CorruptFileError):
        load_model(path)


def test_load_model_rejects_future_version(tmp_path):
    from rbon.container import save_container

    path = tmp_path / "future.npz"
    save_container(path, {"weights": np.zeros(1)}, {"kind": "model", "format_version": 2})
    with pytest.raises(FormatVersionError):
        load_model(path)
