"""Benchmark and forecast orchestration: datasets, size sweeps, error tables.

A "cell" is one (family, variant, seed) run: build the splits, sweep the
layer sizes over a small grid, keep the size with the lowest validation
error, then score the in-distribution and out-of-distribution test sets
per function. Table rows aggregate cells across seeds.
"""

import time
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from .benchmarks import BenchmarkConfig, build_benchmark_bundle, default_config
from .climate import build_forecast_dataset, common_years, load_fixture, to_year_functions
from .metrics import ErrorSummary, l2_relative_error, mean_and_moe
from .model import ModelConfig, TrainedModel, TrainingSet, predict_matrix, train

FAMILIES = ("wave", "burgers", "beam")
VARIANT_LABELS = {"rbon": "RBON", "nrbon": "NRBON", "frbon": "F-RBON"}

# Candidate (branch, trunk) sizes for validation-driven selection.
SIZE_GRID = tuple(
    (m, n) for m in (5, 10, 15) for n in (5, 10, 15) if m * n <= 225
)

# Overlap factors tuned per family on validation data; wider overlaps keep
# branch features responsive across each family's amplitude range.
FAMILY_OVERLAPS: Dict[str, Tuple[float, float]] = {
    "wave": (2.0, 3.0),
    "burgers": (3.0, 3.0),
    "beam": (4.0, 10.0),
}

# Desk-scale wave runs thin the amplitude grid from step 0.001 to 0.01
# (about 300 functions instead of 3001) to stay inside a laptop budget.
DESK_WAVE_STEP = 0.01


def desk_config(family: str, fine_step: bool = False) -> BenchmarkConfig:
    """Benchmark config at desk scale; fine_step restores the fine wave parameter grid."""
    if family == "wave" and not fine_step:
        return default_config("wave", id_step=DESK_WAVE_STEP)
    return default_config(family)


def per_function_errors(model: TrainedModel, data: TrainingSet) -> np.ndarray:
    """Relative L2 error of each function's predicted field."""
    predicted = predict_matrix(model, data.inputs, data.queries)
    return np.array(
        [
            l2_relative_error(data.targets[j], predicted[j])
            for j in range(data.n_functions)
        ]
    )


@dataclass(frozen=True)
class CellResult:
    """One trained-and-scored (family, variant, seed) run."""

    family: str
    variant: str
    seed: int
    branch_units: int
    trunk_units: int
    validation_error: float
    id_errors: np.ndarray
    ood_errors: np.ndarray
    runtime_seconds: float
    model: TrainedModel

    @property
    def id_mean(self) -> float:
        return float(np.mean(self.id_errors))

    @property
    def ood_mean(self) -> float:
        return float(np.mean(self.ood_errors))


def select_model(
    train_set: TrainingSet,
    validation: TrainingSet,
    variant: str,
    seed: int,
    overlaps: Tuple[float, float],
    size_grid: Sequence[Tuple[int, int]] = SIZE_GRID,
) -> Tuple[TrainedModel, float]:
    """Train every candidate size; return the lowest mean validation error's model and error."""
    best: Optional[Tuple[float, TrainedModel]] = None
    for branch_units, trunk_units in size_grid:
        config = ModelConfig(
            variant=variant,
            branch_units=branch_units,
            trunk_units=trunk_units,
            branch_overlap=overlaps[0],
            trunk_overlap=overlaps[1],
            seed=seed,
        )
        model = train(train_set, config)
        errors = per_function_errors(model, validation)
        score = float(np.mean(errors))
        if best is None or score < best[0]:
            best = (score, model)
    return best[1], best[0]


def run_cell(
    config: BenchmarkConfig,
    variant: str,
    seed: int,
    size_grid: Sequence[Tuple[int, int]] = SIZE_GRID,
) -> CellResult:
    """Build, select, and score one benchmark cell."""
    started = time.perf_counter()
    bundle = build_benchmark_bundle(config, seed)
    model, validation_error = select_model(
        bundle.train, bundle.validation, variant, seed, FAMILY_OVERLAPS[config.family], size_grid
    )
    id_errors = per_function_errors(model, bundle.id_test)
    ood_errors = per_function_errors(model, bundle.ood_test)
    elapsed = time.perf_counter() - started
    return CellResult(
        family=config.family,
        variant=variant,
        seed=seed,
        branch_units=model.branch_units,
        trunk_units=model.trunk_units,
        validation_error=validation_error,
        id_errors=id_errors,
        ood_errors=ood_errors,
        runtime_seconds=elapsed,
        model=model,
    )


@dataclass(frozen=True)
class TableRow:
    """Seed-aggregated errors for one (family, variant) table cell."""

    family: str
    variant: str
    seeds: Tuple[int, ...]
    id_summary: ErrorSummary
    ood_summary: ErrorSummary
    runtime_seconds: float
    cells: Tuple[CellResult, ...]

    @property
    def id_seed_means(self) -> np.ndarray:
        return np.array([c.id_mean for c in self.cells])

    @property
    def ood_seed_means(self) -> np.ndarray:
        return np.array([c.ood_mean for c in self.cells])


def run_table_row(
    config: BenchmarkConfig,
    variant: str,
    seeds: Sequence[int],
) -> TableRow:
    """Run one (family, variant) cell across seeds and pool the errors."""
    cells = tuple(run_cell(config, variant, seed) for seed in seeds)
    id_pool = np.concatenate([c.id_errors for c in cells])
    ood_pool = np.concatenate([c.ood_errors for c in cells])
    return TableRow(
        family=config.family,
        variant=variant,
        seeds=tuple(seeds),
        id_summary=mean_and_moe(id_pool),
        ood_summary=mean_and_moe(ood_pool),
        runtime_seconds=sum(c.runtime_seconds for c in cells),
        cells=cells,
    )


def run_benchmark_table(
    families: Sequence[str] = FAMILIES,
    variants: Sequence[str] = ("rbon", "nrbon", "frbon"),
    seeds: Sequence[int] = (0, 1, 2, 3, 4),
    fine_step: bool = False,
) -> Tuple[TableRow, ...]:
    """Full accuracy table over families x variants."""
    rows = []
    for family in families:
        config = desk_config(family, fine_step=fine_step)
        for variant in variants:
            rows.append(run_table_row(config, variant, seeds))
    return tuple(rows)


# Climate forecasting ---------------------------------------------------------

CLIMATE_TARGETS = {
    "global": "temp_global_monthly.csv",
    "local": "temp_local_monthly.csv",
}

# A small branch layer with wide overlap extrapolates best at the recent
# edge of the CO2 range, where the holdout years live; one trunk unit per
# month resolves the seasonal cycle exactly.
CLIMATE_MODEL = dict(
    variant="rbon",
    branch_units=5,
    trunk_units=12,
    branch_overlap=3.0,
    trunk_overlap=1.5,
)


@dataclass(frozen=True)
class ForecastResult:
    """One climate holdout evaluation, with in-sample fits for plotting."""

    target: str
    holdout_years: int
    train_years: Tuple[int, ...]
    test_years: Tuple[int, ...]
    per_year_errors: np.ndarray
    mean_error: float
    predictions: np.ndarray
    actuals: np.ndarray
    train_predictions: np.ndarray
    train_actuals: np.ndarray
    model: TrainedModel


def run_forecast(
    target: str = "global",
    holdout_years: int = 2,
    seed: int = 0,
    co2_source=None,
    temperature_source=None,
) -> ForecastResult:
    """Train on all but the most recent years and score the holdout.

    With no explicit sources the bundled surrogate fixtures are used.
    """
    if target not in CLIMATE_TARGETS:
        raise ValueError(f"unknown target {target!r}; expected one of {sorted(CLIMATE_TARGETS)}")
    co2 = co2_source if co2_source is not None else load_fixture("co2_monthly.csv")
    temperature = (
        temperature_source
        if temperature_source is not None
        else load_fixture(CLIMATE_TARGETS[target])
    )
    co2_years = to_year_functions(co2)
    temp_years = to_year_functions(temperature)
    train_set, test_set = build_forecast_dataset(co2_years, temp_years, holdout_years)
    config = ModelConfig(seed=seed, **CLIMATE_MODEL)
    model = train(train_set, config)
    predicted = predict_matrix(model, test_set.inputs, test_set.queries)
    errors = np.array(
        [
            l2_relative_error(test_set.targets[j], predicted[j])
            for j in range(test_set.n_functions)
        ]
    )
    common = common_years(co2_years, temp_years)
    return ForecastResult(
        target=target,
        holdout_years=holdout_years,
        train_years=tuple(common[: -holdout_years]),
        test_years=tuple(common[-holdout_years:]),
        per_year_errors=errors,
        mean_error=float(np.mean(errors)),
        predictions=predicted,
        actuals=test_set.targets,
        train_predictions=predict_matrix(model, train_set.inputs, train_set.queries),
        train_actuals=train_set.targets,
        model=model,
    )
