"""In-memory span tracing of rbon's module boundaries, from outside the package.

Each patch replaces one function at the place where its caller looks it
up (``rbon.harness.train`` is what ``select_model`` calls, and
``rbon.model.kmeans`` is what ``train`` calls), so no file of the package
changes. A span records name, start, end and parent; self time is the
span's duration minus that of its children. Counts are taken at the same
boundaries from the arguments and results of the wrapped call.

A patch point the package no longer has is skipped with a warning, so a
later refactor leaves the end-to-end numbers valid and only zeroes the
per-layer metrics it moved.
"""

import functools
import hashlib
import importlib
import os
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _rows(array) -> int:
    return int(np.atleast_2d(np.asarray(array)).shape[0])


def _lloyd_counts(tracer, args, kwargs, result):
    # lloyd returns (centers, assignments, wcss, history); history has one
    # entry per assignment step, i.e. iterations + 1 distance evaluations.
    points, centers, history = args[0], result[0], result[3]
    evaluations = len(history)
    return {
        "iterations": evaluations - 1,
        "dist_evals": _rows(points) * _rows(centers) * evaluations,
    }


def _kmeans_counts(tracer, args, kwargs, result):
    points = np.ascontiguousarray(np.asarray(args[0]))
    config = args[1] if len(args) > 1 else kwargs["config"]
    key = (
        hashlib.blake2b(points.view(np.uint8), digest_size=16).hexdigest(),
        points.shape, points.dtype.str, config.k, config.seed, config.restarts,
    )
    queries = tracer.open_value("model.train")
    is_trunk = queries is not None and (
        args[0] is queries
        or (np.shape(args[0]) == queries.shape and np.array_equal(args[0], queries))
    )
    return {
        "key": key,
        "requested": int(config.k),
        "kept": _rows(result.centers),
        "layer": "trunk" if is_trunk else "branch",
    }


def _train_queries(args, kwargs):
    data = args[0] if args else kwargs["data"]
    return data.queries


def _feature_rows(tracer, args, kwargs, result):
    return {"rows": _rows(result)}


def _run_cell_variant(tracer, args, kwargs, result):
    return {"variant": args[1] if len(args) > 1 else kwargs["variant"]}


def _saved_bytes(tracer, args, kwargs, result):
    destination = args[1] if len(args) > 1 else kwargs["destination"]
    if hasattr(destination, "getbuffer"):
        return {"bytes": destination.getbuffer().nbytes}
    return {"bytes": os.path.getsize(destination)}


@dataclass(frozen=True)
class Patch:
    module: str
    attribute: str
    span: str
    counts: object = None  # (tracer, args, kwargs, result) -> attrs
    remember: object = None  # (args, kwargs) -> value kept while the span is open


# Caller module, the name it looks up, and the span recorded around the call.
# The benchmark itself calls rbon through module attributes (rbon.model.train,
# rbon.harness.run_cell, ...), so those are patched too.
PATCHES = (
    Patch("rbon.harness", "run_cell", "harness.run_cell", _run_cell_variant),
    Patch("rbon.harness", "select_model", "harness.select_model"),
    Patch("rbon.harness", "per_function_errors", "harness.score"),
    Patch("rbon.harness", "run_forecast", "harness.run_forecast"),
    Patch("rbon.harness", "build_benchmark_bundle", "benchmarks.bundle"),
    Patch("rbon.benchmarks", "build_benchmark_bundle", "benchmarks.bundle"),
    Patch("rbon.harness", "train", "model.train", remember=_train_queries),
    Patch("rbon.model", "train", "model.train", remember=_train_queries),
    Patch("rbon.harness", "predict_matrix", "model.predict_matrix", _feature_rows),
    Patch("rbon.model", "predict_matrix", "model.predict_matrix", _feature_rows),
    Patch("rbon.model", "predict_field", "model.predict_field"),
    Patch("rbon.model", "save_model", "model.save_model", _saved_bytes),
    Patch("rbon.model", "load_model", "model.load_model"),
    Patch("rbon.model", "kmeans", "clustering.kmeans", _kmeans_counts),
    Patch("rbon.model", "compute_spreads", "clustering.compute_spreads"),
    Patch("rbon.clustering", "lloyd", "clustering.lloyd", _lloyd_counts),
    Patch("rbon.model", "feature_matrix", "kernels.feature_matrix", _feature_rows),
    Patch("rbon.model", "feature_product", "kernels.feature_product"),
    Patch("rbon.model", "fit_calibration", "least_squares.fit_calibration"),
    Patch("rbon.harness", "l2_relative_error", "metrics.l2"),
    Patch("rbon.metrics", "l2_relative_error", "metrics.l2"),
    Patch("rbon.climate", "parse_monthly_csv", "climate.parse"),
    Patch("rbon.harness", "to_year_functions", "climate.dataset"),
    Patch("rbon.harness", "build_forecast_dataset", "climate.dataset"),
    Patch("rbon.model", "save_container", "container.save"),
    Patch("rbon.model", "load_container", "container.load"),
)


class Tracer:
    """Collects spans while installed; the wrapped calls pass through unchanged."""

    def __init__(self):
        self.spans = []
        self._open = []  # (span index, remembered value)

    def open_value(self, name):
        """Value remembered by the innermost open span called name, if any."""
        for index, value in reversed(self._open):
            if self.spans[index].name == name:
                return value
        return None

    @contextmanager
    def span(self, name):
        """A span opened by the benchmark itself, e.g. one set-up or one operation."""
        index = self._begin(name, None)
        try:
            yield
        finally:
            self._finish(index)

    def _begin(self, name, remembered):
        parent = self._open[-1][0] if self._open else -1
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent))
        self._open.append((len(self.spans) - 1, remembered))
        return len(self.spans) - 1

    def _finish(self, index):
        self.spans[index].end = time.perf_counter()
        self._open.pop()

    def wrap(self, patch, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            remembered = patch.remember(args, kwargs) if patch.remember else None
            index = self._begin(patch.span, remembered)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._finish(index)
            if patch.counts is not None:
                self.spans[index].attrs.update(patch.counts(self, args, kwargs, result))
            return result

        return traced

    @contextmanager
    def installed(self):
        """Patch every available boundary for the duration of the block."""
        originals = []
        for patch in PATCHES:
            module = importlib.import_module(patch.module)
            fn = getattr(module, patch.attribute, None)
            if fn is None:
                print(f"trace: {patch.module}.{patch.attribute} not found; skipped",
                      file=sys.stderr)
                continue
            originals.append((module, patch.attribute, fn))
            setattr(module, patch.attribute, self.wrap(patch, fn))
        try:
            yield self
        finally:
            for module, attribute, fn in reversed(originals):
                setattr(module, attribute, fn)

    def self_times(self):
        """Duration of each span minus the durations of its direct children."""
        own = [s.duration for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                own[s.parent] -= s.duration
        return own

    def root_names(self):
        """Name of the outermost span above each span (parents precede children)."""
        roots = []
        for s in self.spans:
            roots.append(roots[s.parent] if s.parent >= 0 else s.name)
        return roots

    def summary(self):
        """Per span name: calls, total seconds and self seconds."""
        table = {}
        for s, own in zip(self.spans, self.self_times()):
            calls, total, self_s = table.get(s.name, (0, 0.0, 0.0))
            table[s.name] = (calls + 1, total + s.duration, self_s + own)
        return table


def layer_metrics(tracer):
    """Per-layer metrics from the spans of one traced run; absent layers read 0."""
    spans = tracer.spans
    own = tracer.self_times()

    def parent_name(s):
        return spans[s.parent].name if s.parent >= 0 else ""

    def picked(name, keep=lambda s: True):
        return [i for i, s in enumerate(spans) if s.name == name and keep(s)]

    def total(name, keep=lambda s: True):
        return sum(spans[i].duration for i in picked(name, keep))

    def self_total(name):
        return sum(own[i] for i in picked(name))

    def count(name, keep=lambda s: True):
        return len(picked(name, keep))

    def attr_sum(name, key):
        return sum(spans[i].attrs.get(key, 0) for i in picked(name))

    def ratio(numerator, denominator):
        return numerator / denominator if denominator else 0.0

    roots = {id(s): root for s, root in zip(spans, tracer.root_names())}
    in_setup = lambda s: roots[id(s)] == "setup"
    kmeans = [spans[i] for i in picked("clustering.kmeans") if "key" in spans[i].attrs]
    under_predict = lambda s: parent_name(s) in ("model.predict_matrix", "model.predict_field")
    metrics = {
        "benchmarks.bundle_cold_s": (total("benchmarks.bundle", in_setup), "s"),
        "benchmarks.bundle_s": (total("benchmarks.bundle", lambda s: not in_setup(s)), "s"),
        "harness.select_model_s": (total("harness.select_model"), "s"),
        "harness.select_model.self_s": (self_total("harness.select_model"), "s"),
        "harness.models_trained": (
            count("model.train", lambda s: parent_name(s) == "harness.select_model"), "count"
        ),
        "harness.score_s": (
            total("harness.score", lambda s: parent_name(s) == "harness.run_cell"), "s"
        ),
        "model.train_s": (total("model.train"), "s"),
        "model.train.self_s": (self_total("model.train"), "s"),
        "model.train.calls": (count("model.train"), "count"),
        "clustering.kmeans.branch_s": (
            sum(s.duration for s in kmeans if s.attrs.get("layer") == "branch"), "s"
        ),
        "clustering.kmeans.trunk_s": (
            sum(s.duration for s in kmeans if s.attrs.get("layer") == "trunk"), "s"
        ),
        "clustering.kmeans.calls": (len(kmeans), "count"),
        "clustering.kmeans.distinct_ratio": (
            ratio(len({s.attrs["key"] for s in kmeans}), len(kmeans)), "ratio"
        ),
        "clustering.lloyd.runs": (count("clustering.lloyd"), "count"),
        "clustering.lloyd.iterations": (attr_sum("clustering.lloyd", "iterations"), "count"),
        "clustering.dist_evals": (attr_sum("clustering.lloyd", "dist_evals"), "count"),
        "clustering.compute_spreads_s": (total("clustering.compute_spreads"), "s"),
        "clustering.centers_kept_ratio": (
            ratio(sum(s.attrs["kept"] for s in kmeans),
                  sum(s.attrs["requested"] for s in kmeans)),
            "ratio",
        ),
        "kernels.feature_matrix.train_s": (
            total("kernels.feature_matrix", lambda s: parent_name(s) == "model.train"), "s"
        ),
        "kernels.feature_matrix.predict_s": (total("kernels.feature_matrix", under_predict), "s"),
        "kernels.feature_matrix.rows": (attr_sum("kernels.feature_matrix", "rows"), "count"),
        "model.predict_matrix_s": (total("model.predict_matrix"), "s"),
        "model.predict_matrix.rows": (attr_sum("model.predict_matrix", "rows"), "count"),
        "model.predict_field_s": (total("model.predict_field"), "s"),
        "model.feature_product.calls": (count("kernels.feature_product"), "count"),
        "least_squares.fit_calibration_s": (total("least_squares.fit_calibration"), "s"),
        "metrics.l2_s": (total("metrics.l2"), "s"),
        "metrics.l2.calls": (count("metrics.l2"), "count"),
        "climate.parse_s": (total("climate.parse"), "s"),
        "climate.dataset_s": (total("climate.dataset"), "s"),
        "container.save_s": (total("container.save"), "s"),
        "container.load_s": (total("container.load"), "s"),
        "container.bytes": (attr_sum("model.save_model", "bytes"), "bytes"),
    }
    for variant in ("rbon", "nrbon", "frbon"):
        metrics[f"harness.cell_s.{variant}"] = (
            total("harness.run_cell", lambda s: s.attrs.get("variant") == variant), "s"
        )
    return metrics
