"""The benchmark's workloads: sweep, serve and forecast.

Each workload has a set-up (timed, repeated), a seeded, endless sequence
of operation specs, one call into rbon per operation, and a check of that
operation's output that runs outside the timed region. A single closed-loop
client issues the operations one after another in this process.

rbon is reached through module attributes (``model.train``, not a name
imported once), so the tracer in spans.py sees the benchmark's own calls.
"""

import hashlib
import io
import itertools
import json

import numpy as np

import rbon.benchmarks as benchmarks
import rbon.climate as climate
import rbon.harness as harness
import rbon.kernels as kernels
import rbon.metrics as metrics
import rbon.model as model
import rbon.reporting as reporting

VARIANTS = ("rbon", "nrbon", "frbon")


class CheckFailed(Exception):
    """An operation returned, but its output is wrong."""


def digest(*arrays) -> str:
    """Hash of the exact bytes, dtypes and shapes of the given arrays."""
    h = hashlib.blake2b(digest_size=16)
    for a in arrays:
        a = np.ascontiguousarray(np.asarray(a))
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(a.view(np.uint8).tobytes())
    return h.hexdigest()


def model_digest(m) -> str:
    """Every array and scalar that defines a trained model's predictions."""
    return digest(
        m.branch_layer.centers, m.branch_layer.spreads,
        m.trunk_layer.centers, m.trunk_layer.spreads, m.weights,
        np.array([m.calibration.scale, m.calibration.offset, m.training_residual]),
    ) + f"/{m.variant}/{m.sensor_count}/{m.query_dim}/{m.seed}/{m.config_hash}"


def _require(condition, message):
    if not condition:
        raise CheckFailed(message)


def _close(actual, expected, magnitude, what):
    """Agreement to 1e-12 of `magnitude`, elementwise."""
    excess = np.abs(np.asarray(actual) - expected) / magnitude
    worst = float(np.max(excess))
    _require(worst <= 1e-12, f"{what} differs by {worst:.3g} of its magnitude")


def term_magnitude(m, inputs, queries):
    """|scale| * sum_ik |w_ik| b_i t_k + |offset| for every (input, query) output.

    Rounding in any order of summing a prediction's terms is a small
    multiple of machine epsilon times this. Trained weights reach 1e8 and
    more while outputs stay near 10, so two correct evaluation orders can
    differ far beyond 1e-12 of the output, but not of this magnitude.
    """
    branch_inputs = np.fft.fft(inputs, axis=1) if m.variant == "frbon" else inputs
    b = kernels.feature_matrix(m.branch_layer, branch_inputs)
    t = kernels.feature_matrix(m.trunk_layer, queries)
    if m.variant == "nrbon":
        b = b / b.sum(axis=1, keepdims=True)
        t = t / t.sum(axis=1, keepdims=True)
    w = np.abs(m.weights).reshape(b.shape[1], t.shape[1])
    return abs(m.calibration.scale) * (b @ w @ t.T) + abs(m.calibration.offset)


class Accuracy:
    """Relative L2 errors by split; each (variant, item) counts once however often served."""

    def __init__(self):
        self.errors = {"id": {}, "ood": {}}

    def record(self, split, variant, item, error):
        self.errors[split][(variant, item)] = float(error)

    def summary(self):
        """Geometric mean over variants of each variant's mean error, per split."""
        out = {}
        for split, table in self.errors.items():
            by_variant = {}
            for (variant, _), error in table.items():
                by_variant.setdefault(variant, []).append(error)
            means = [np.mean(v) for v in by_variant.values()]
            out[split] = float(np.exp(np.mean(np.log(means)))) if means else 0.0
        return out


class Sweep:
    """`rbon benchmark` wave cells at desk scale, one per variant in table order.

    A round is the three cells rbon, nrbon, frbon at the workload seed; a
    run ends on a round boundary. Set-up is the wave reference solve,
    which all cells share.
    """

    name = "sweep"
    ops_per_round = len(VARIANTS)
    traced_ops = len(VARIANTS)
    setup_repeats = 5

    def __init__(self, seed, tiny=False):
        self.seed = seed
        if tiny:
            self.config = benchmarks.wave_config(id_step=0.1)
            self.size_grid = ((5, 5), (5, 10))
        else:
            self.config = harness.desk_config("wave")
            self.size_grid = harness.SIZE_GRID
        self.first_weights = {}
        self.accuracy = Accuracy()

    def setup(self):
        self.bundle = benchmarks.build_benchmark_bundle(self.config, self.seed)

    def after_setup(self):
        pass

    def specs(self):
        return itertools.cycle(VARIANTS)

    def op_class(self, variant):
        return variant

    def run(self, variant):
        return harness.run_cell(self.config, variant, self.seed, self.size_grid)

    def output_digest(self, cell):
        return digest(cell.model.weights, cell.id_errors, cell.ood_errors,
                      np.array([cell.validation_error])) + model_digest(cell.model)

    def check(self, variant, cell):
        sizes = (cell.branch_units, cell.trunk_units)
        _require(sizes in harness.SIZE_GRID, f"selected size {sizes} is not in SIZE_GRID")
        _require(cell.variant == variant and cell.seed == self.seed, "cell mislabelled")
        _require(len(cell.id_errors) == self.bundle.id_test.n_functions
                 and len(cell.ood_errors) == self.bundle.ood_test.n_functions,
                 "one error per scored function expected")
        for what, values in (("ID", cell.id_errors), ("OOD", cell.ood_errors),
                             ("validation", [cell.validation_error])):
            _require(np.all(np.isfinite(values)), f"non-finite {what} error")
        weights = self.first_weights.setdefault(variant, cell.model.weights.copy())
        _require(weights.dtype == cell.model.weights.dtype
                 and weights.tobytes() == cell.model.weights.tobytes(),
                 "weights differ from the first repetition's")
        self.accuracy.record("id", variant, "cell", cell.id_mean)
        self.accuracy.record("ood", variant, "cell", cell.ood_mean)

    def outputs(self, variant, cell):
        """(function, query) values predicted: validation per size, then ID and OOD."""
        b = self.bundle
        functions = len(self.size_grid) * b.validation.n_functions
        functions += b.id_test.n_functions + b.ood_test.n_functions
        return functions * b.train.n_queries


class Serve:
    """Prediction requests against beam models trained and reloaded in set-up.

    A batch request is predict_matrix of 1, 8 or 64 inputs on the 64x64
    query grid, each scored with l2_relative_error; a field request is
    predict_field of one input at FIELD_QUERIES random off-grid (t, x)
    points. Inputs come from the ID test split and the OOD set. Requests
    come in shuffled blocks holding each variant with each entry of
    REQUESTS its number of times, so every run serves the same mix.

    The mix keeps each reported percentile inside one cluster of latencies
    rather than on the edge between two: batches of 1 and 8 cost about the
    same (the 4096-point trunk features dominate) and hold the median, and
    field requests, the slowest, hold the 90th percentile.
    """

    name = "serve"
    ops_per_round = 1
    setup_repeats = 3
    REQUESTS = (("batch", 1, 7), ("batch", 8, 7), ("batch", 64, 2), ("field", 1, 4))
    FIELD_QUERIES = 256

    def __init__(self, seed, tiny=False):
        self.seed = seed
        self.config = benchmarks.beam_config()
        self.units = 5 if tiny else 15
        self.traced_ops = 30 if tiny else 400
        self.accuracy = Accuracy()

    def setup(self):
        bundle = benchmarks.build_benchmark_bundle(self.config, self.seed)
        overlaps = harness.FAMILY_OVERLAPS["beam"]
        self.trained, self.models = {}, {}
        for variant in VARIANTS:
            config = model.ModelConfig(
                variant=variant, branch_units=self.units, trunk_units=self.units,
                branch_overlap=overlaps[0], trunk_overlap=overlaps[1], seed=self.seed,
            )
            self.trained[variant] = model.train(bundle.train, config)
            buffer = io.BytesIO()
            model.save_model(self.trained[variant], buffer)
            buffer.seek(0)
            self.models[variant] = model.load_model(buffer)
        self.bundle = bundle

    def after_setup(self):
        """Check the round trip and compute reference outputs, outside the timing."""
        b = self.bundle
        for variant in VARIANTS:
            _require(model_digest(self.models[variant]) == model_digest(self.trained[variant]),
                     f"{variant} model changed in the save/load round trip")
        self.inputs = np.vstack([b.id_test.inputs, b.ood_test.inputs])
        self.targets = np.vstack([b.id_test.targets, b.ood_test.targets])
        self.split = ["id"] * b.id_test.n_functions + ["ood"] * b.ood_test.n_functions
        self.queries = b.id_test.queries
        self.reference = {
            v: model.predict_matrix(self.models[v], self.inputs, self.queries) for v in VARIANTS
        }
        self.magnitude = {
            v: term_magnitude(self.models[v], self.inputs, self.queries) for v in VARIANTS
        }
        grid = self.config.grid
        self.domain = np.array([grid.t_final, grid.length])

    def specs(self):
        rng = np.random.default_rng([self.seed, 1])
        n = self.inputs.shape[0]
        block = [(kind, size, variant) for kind, size, count in self.REQUESTS
                 for variant in VARIANTS for _ in range(count)]
        while True:
            for i in rng.permutation(len(block)):
                kind, size, variant = block[i]
                rows = rng.choice(n, size=size, replace=False)
                points = None
                if kind == "field":
                    points = rng.uniform(0.0, 1.0, size=(self.FIELD_QUERIES, 2)) * self.domain
                yield (kind, variant, rows, points)

    def op_class(self, spec):
        kind, variant, rows, _ = spec
        return kind, rows.size, variant

    def run(self, spec):
        kind, variant, rows, points = spec
        m = self.models[variant]
        if kind == "field":
            return model.predict_field(m, self.inputs[rows[0]], points), None
        predicted = model.predict_matrix(m, self.inputs[rows], self.queries)
        errors = np.array([
            metrics.l2_relative_error(self.targets[r], predicted[i]) for i, r in enumerate(rows)
        ])
        return predicted, errors

    def output_digest(self, output):
        predicted, errors = output
        return digest(predicted) + (digest(errors) if errors is not None else "")

    def check(self, spec, output):
        kind, variant, rows, points = spec
        predicted, errors = output
        _require(np.all(np.isfinite(predicted)), "non-finite prediction")
        m = self.models[variant]
        if kind == "field":
            u = self.inputs[rows]
            _close(predicted, model.predict_matrix(m, u, points)[0],
                   term_magnitude(m, u, points)[0],
                   "predict_field against the matching predict_matrix row")
            return
        _require(predicted.shape == (rows.size, self.queries.shape[0]), "wrong batch shape")
        _close(predicted, self.reference[variant][rows], self.magnitude[variant][rows],
               "batch against the full-pool prediction")
        truth = self.targets[rows]
        expected = np.linalg.norm(truth - predicted, axis=1) / np.linalg.norm(truth, axis=1)
        _close(errors, expected, np.maximum(expected, 1.0), "relative L2 errors")
        for r, error in zip(rows, errors):
            self.accuracy.record(self.split[r], variant, int(r), error)

    def outputs(self, spec, output):
        return int(output[0].size)


class Forecast:
    """run_forecast(target, holdout, seed) on the bundled fixtures.

    The model seeds are MODEL_SEEDS consecutive numbers starting at
    workload seed * MODEL_SEEDS, so each run spans several k-means
    initialisations: one seed's Lloyd iterations alone move a forecast's
    time by about 10 %. Each (target, holdout, model seed) triple recurs
    once per block of operations, and every recurrence must reproduce the
    first one's predictions. Set-up reads the fixture manifest and makes
    one warm-up forecast.
    """

    name = "forecast"
    ops_per_round = 1
    setup_repeats = 60
    TARGETS = ("global", "local")
    # A one-year holdout is rejected by TrainingSet (it needs two functions).
    HOLDOUTS = tuple(range(2, 11))
    MODEL_SEEDS = 4

    def __init__(self, seed, tiny=False):
        self.seed = seed
        self.model_seeds = range(seed * self.MODEL_SEEDS, (seed + 1) * self.MODEL_SEEDS)
        self.traced_ops = 10 if tiny else 100
        self.first_predictions = {}
        self.accuracy = Accuracy()

    def setup(self):
        with climate.fixture_path("MANIFEST.json").open("r") as handle:
            self.surrogate = bool(json.load(handle).get("surrogate", False))
        self.warmup = harness.run_forecast(self.TARGETS[0], self.HOLDOUTS[0],
                                           seed=self.model_seeds[0])

    def after_setup(self):
        _require(self.surrogate, "bundled fixtures are no longer marked as surrogate")
        self.check((self.TARGETS[0], self.HOLDOUTS[0], self.model_seeds[0]), self.warmup)

    def specs(self):
        """Every (target, holdout, model seed) once per block, in a seeded shuffled order."""
        rng = np.random.default_rng([self.seed, 2])
        block = list(itertools.product(self.TARGETS, self.HOLDOUTS, self.model_seeds))
        while True:
            for i in rng.permutation(len(block)):
                yield block[i]

    def op_class(self, spec):
        """(target, holdout): the model seed varies within a class, as rows do in serve."""
        return spec[:2]

    def run(self, spec):
        target, holdout, seed = spec
        return harness.run_forecast(target, holdout, seed=seed)

    def output_digest(self, result):
        return digest(result.predictions, result.train_predictions, result.per_year_errors)

    def check(self, spec, result):
        target, holdout, _ = spec
        _require(result.target == target and result.holdout_years == holdout, "result mislabelled")
        _require(result.predictions.shape == (holdout, 12)
                 and len(result.test_years) == holdout, "wrong holdout shape")
        _require(np.all(np.isfinite(result.predictions))
                 and np.all(np.isfinite(result.train_predictions)), "non-finite prediction")
        first = self.first_predictions.setdefault(spec, self.output_digest(result))
        _require(first == self.output_digest(result), f"{spec} forecast is not reproducible")
        report = reporting.forecast_report_csv([result], self.surrogate).splitlines()
        _require(report[1].endswith(",surrogate"), "surrogate marker lost in the report")
        fit = result.train_actuals - result.train_predictions
        in_sample = np.linalg.norm(fit, axis=1) / np.linalg.norm(result.train_actuals, axis=1)
        self.accuracy.record("id", "rbon", spec, np.mean(in_sample))
        self.accuracy.record("ood", "rbon", spec, result.mean_error)

    def outputs(self, spec, result):
        return int(result.predictions.size + result.train_predictions.size)


WORKLOADS = {w.name: w for w in (Sweep, Serve, Forecast)}
