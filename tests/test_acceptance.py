"""Acceptance checklist for the released accuracy and behavior claims.

Four kinds of checks run here:

* quantitative benchmark targets, each a five-seed (family, variant) cell
  on the desk-scale configuration;
* out-of-distribution ordering claims, compared on per-seed medians;
* the climate forecast targets on the bundled surrogate fixtures;
* structural property checks (solver identities, clustering behavior,
  transform identities, serialization).

Each test prints one [PASS]/[FAIL] line with the measured numbers before
asserting, so a full run reads as a checklist. Benchmark cells are cached
module-wide; properties are fast and re-derive their oracles inline.
"""

import json
import time
from contextlib import contextmanager

import numpy as np

from rbon.benchmarks import (
    GridSpec,
    _burgers_coefficients,
    _burgers_evaluate,
    _burgers_tables,
    beam_forcing,
    sinpi,
    solve_burgers,
    solve_wave_from_initial,
)
from rbon.climate import fixture_path
from rbon.clustering import ClusterConfig, kmeans
from rbon.harness import desk_config, run_forecast, run_table_row
from rbon.kernels import RbfLayer, gaussian_rbf
from rbon.least_squares import Calibration, kronecker_lstsq
from rbon.metrics import l2_relative_error, mean_and_moe
from rbon.model import (
    ModelConfig,
    TrainedModel,
    TrainingSet,
    load_model,
    predict,
    predict_matrix,
    save_model,
    to_frequency_domain,
    train,
)

SEEDS = (0, 1, 2, 3, 4)
CELL_BUDGET_SECONDS = 120.0
PROPERTY_BUDGET_SECONDS = 60.0

_ROWS = {}
_FORECASTS = {}
_PROPERTY_SECONDS = []


def _row(family, variant):
    key = (family, variant)
    if key not in _ROWS:
        _ROWS[key] = run_table_row(desk_config(family), variant, SEEDS)
    return _ROWS[key]


def _forecast(target):
    if target not in _FORECASTS:
        _FORECASTS[target] = run_forecast(target=target, holdout_years=2, seed=0)
    return _FORECASTS[target]


def _report(number, ok, detail):
    marker = "PASS" if ok else "FAIL"
    print(f"[{marker}] criterion {number}: {detail}")
    assert ok, f"criterion {number}: {detail}"


@contextmanager
def _property_timer():
    started = time.perf_counter()
    yield
    _PROPERTY_SECONDS.append(time.perf_counter() - started)


# quantitative benchmark targets ---------------------------------------------


def test_criterion_01_beam_in_distribution():
    rbon = _row("beam", "rbon").id_summary.mean_error
    nrbon = _row("beam", "nrbon").id_summary.mean_error
    ok = rbon < 1e-4 and nrbon < 1e-4
    _report(
        1,
        ok,
        f"beam ID mean error rbon={rbon:.3e}, nrbon={nrbon:.3e} (target < 1e-4)",
    )


def test_criterion_02_wave_in_distribution():
    rbon = _row("wave", "rbon").id_summary.mean_error
    frbon = _row("wave", "frbon").id_summary.mean_error
    ok = rbon < 1e-2 and frbon < 1e-3
    _report(
        2,
        ok,
        f"wave ID mean error rbon={rbon:.3e} (target < 1e-2), "
        f"frbon={frbon:.3e} (target < 1e-3)",
    )


def test_criterion_03_burgers_in_distribution():
    rbon = _row("burgers", "rbon").id_summary.mean_error
    ok = rbon < 5e-2
    _report(3, ok, f"burgers ID mean error rbon={rbon:.3e} (target < 5e-2)")


def test_criterion_04_burgers_out_of_distribution():
    summary = _row("burgers", "rbon").ood_summary
    finite = bool(np.all(np.isfinite(summary.per_function_errors)))
    ok = finite and summary.mean_error < 1.0
    _report(
        4,
        ok,
        f"burgers OOD mean error rbon={summary.mean_error:.3e} "
        f"(target < 1.0, all finite={finite})",
    )


def test_criterion_05_out_of_distribution_orderings():
    wave_f = float(np.median(_row("wave", "frbon").ood_seed_means))
    wave_r = float(np.median(_row("wave", "rbon").ood_seed_means))
    beam_n = float(np.median(_row("beam", "nrbon").ood_seed_means))
    beam_r = float(np.median(_row("beam", "rbon").ood_seed_means))
    ok = wave_f < wave_r and beam_n < beam_r
    _report(
        5,
        ok,
        f"median OOD error: wave frbon={wave_f:.6e} vs rbon={wave_r:.6e}; "
        f"beam nrbon={beam_n:.3e} vs rbon={beam_r:.3e} "
        "(each variant must beat plain rbon)",
    )


def test_criterion_06_climate_forecast():
    global_error = _forecast("global").mean_error
    local_error = _forecast("local").mean_error
    with fixture_path("MANIFEST.json").open("r") as handle:
        surrogate = bool(json.load(handle).get("surrogate", False))
    ok = global_error <= 0.10 and local_error <= 0.20 and surrogate
    _report(
        6,
        ok,
        f"2-year holdout mean error global={global_error:.4f} (target <= 0.10), "
        f"local={local_error:.4f} (target <= 0.20), data marked surrogate={surrogate}",
    )


def test_quantitative_cell_runtimes():
    worst = max(row.runtime_seconds for row in _ROWS.values())
    ok = worst < CELL_BUDGET_SECONDS
    detail = ", ".join(
        f"{family}/{variant}={row.runtime_seconds:.1f}s"
        for (family, variant), row in sorted(_ROWS.items())
    )
    _report("runtime", ok, f"five-seed cells under {CELL_BUDGET_SECONDS:.0f}s: {detail}")


# structural properties ------------------------------------------------------


def test_criterion_07_prediction_structure():
    with _property_timer():
        rng = np.random.default_rng(200)
        worst = 0.0
        for variant in ("rbon", "nrbon"):
            branch = RbfLayer(
                centers=rng.normal(size=(4, 6)), spreads=rng.uniform(0.5, 2.0, 4)
            )
            trunk = RbfLayer(
                centers=rng.normal(size=(3, 2)), spreads=rng.uniform(0.5, 2.0, 3)
            )
            model = TrainedModel(
                variant=variant,
                branch_layer=branch,
                trunk_layer=trunk,
                weights=rng.normal(size=12),
                calibration=Calibration(scale=1.0, offset=0.0),
                sensor_count=6,
                query_dim=2,
                seed=0,
                config_hash="probe",
                training_residual=0.0,
            )
            for _ in range(20):
                u = rng.normal(size=6)
                y = rng.normal(size=2)
                b = [gaussian_rbf(u, branch.centers[i], branch.spreads[i]) for i in range(4)]
                t = [gaussian_rbf(y, trunk.centers[k], trunk.spreads[k]) for k in range(3)]
                total = sum(
                    model.weights[i * 3 + k] * b[i] * t[k]
                    for i in range(4)
                    for k in range(3)
                )
                if variant == "nrbon":
                    total /= sum(bi * tk for bi in b for tk in t)
                worst = max(worst, abs(predict(model, u, y) - total))
    ok = worst <= 1e-12
    _report(7, ok, f"prediction equals the double-loop formula to {worst:.2e} (target <= 1e-12)")


def test_criterion_08_minimum_norm_solve():
    with _property_timer():
        from scipy.linalg import null_space

        rng = np.random.default_rng(201)
        worst_null = 0.0
        worst_col = 0.0
        for _ in range(10):
            # wide factors, so kron(B, T) w = vec(Y) has many exact solutions;
            # the checks run on the stacked system that train's solve avoids forming
            B = rng.normal(size=(3, 5))
            T = rng.normal(size=(4, 6))
            Y = rng.normal(size=(3, 4))
            w = kronecker_lstsq(B, T, Y)
            K = np.kron(B, T)
            null = null_space(K)
            worst_null = max(worst_null, float(np.max(np.abs(null.T @ w))))
            residual = K @ w - Y.ravel()
            scale = max(float(np.linalg.norm(Y)), 1.0)
            worst_col = max(worst_col, float(np.max(np.abs(K.T @ residual))) / scale)
    ok = worst_null <= 1e-9 and worst_col <= 1e-9
    _report(
        8,
        ok,
        f"solution-null-space overlap {worst_null:.2e} and residual-column overlap "
        f"{worst_col:.2e} (targets <= 1e-9)",
    )


def test_criterion_09_kmeans_properties():
    with _property_timer():
        rng = np.random.default_rng(202)
        monotone = True
        for trial in range(5):
            points = rng.normal(size=(40, 2)) + rng.integers(0, 3, size=(40, 1)) * 4.0
            result = kmeans(points, ClusterConfig(k=3, restarts=1, seed=trial))
            history = result.wcss_history
            monotone &= all(
                later <= earlier * (1 + 1e-12) + 1e-12
                for earlier, later in zip(history, history[1:])
            )
        restarts_help = True
        for seed in range(3):
            points = np.vstack(
                [rng.normal(loc=c, scale=0.3, size=(10, 2)) for c in ((0, 0), (5, 0), (0, 5))]
            )
            single = kmeans(points, ClusterConfig(k=3, restarts=1, seed=seed)).wcss
            multi = kmeans(points, ClusterConfig(k=3, restarts=10, seed=seed)).wcss
            restarts_help &= multi <= single * (1 + 1e-12) + 1e-12
        probe = rng.normal(size=(25, 3))
        first = kmeans(probe, ClusterConfig(k=4, seed=7))
        second = kmeans(probe, ClusterConfig(k=4, seed=7))
        deterministic = np.array_equal(first.centers, second.centers) and first.wcss == second.wcss
    ok = monotone and restarts_help and deterministic
    _report(
        9,
        ok,
        f"kmeans wcss monotone={monotone}, best-of-restarts={restarts_help}, "
        f"deterministic={deterministic}",
    )


def test_criterion_10_frequency_transform():
    with _property_timer():
        rng = np.random.default_rng(203)
        worst_naive = 0.0
        worst_round = 0.0
        worst_energy = 0.0
        for m in (3, 8, 16, 64):
            u = rng.normal(size=m)
            U = to_frequency_domain(u)
            n = np.arange(m)
            naive = np.array(
                [np.sum(u * np.exp(-2j * np.pi * k * n / m)) for k in range(m)]
            )
            scale = max(float(np.max(np.abs(naive))), 1.0)
            worst_naive = max(worst_naive, float(np.max(np.abs(U - naive))) / scale)
            worst_round = max(worst_round, float(np.max(np.abs(np.fft.ifft(U) - u))))
            energy = abs(np.sum(np.abs(U) ** 2) - m * np.sum(u**2))
            worst_energy = max(worst_energy, energy / (m * np.sum(u**2)))
    ok = worst_naive <= 1e-10 and worst_round <= 1e-10 and worst_energy <= 1e-9
    _report(
        10,
        ok,
        f"transform vs direct sum {worst_naive:.2e} (<= 1e-10), inverse roundtrip "
        f"{worst_round:.2e} (<= 1e-10), energy identity {worst_energy:.2e} (<= 1e-9)",
    )


def test_criterion_11_pde_oracles():
    with _property_timer():
        # wave: exact standing wave at unit Courant number, and second-order
        # convergence at half Courant
        def wave_error(nt, nx):
            grid = GridSpec(t_final=1.0, length=1.0, nt=nt, nx=nx)
            field = solve_wave_from_initial(
                lambda x: np.sin(np.pi * x), grid, wave_speed=1.0
            )
            exact = np.sin(np.pi * grid.x)[None, :] * np.cos(np.pi * grid.t)[:, None]
            return float(np.max(np.abs(field.values - exact)))

        standing = wave_error(201, 201)
        ratio = wave_error(201, 101) / wave_error(401, 201)
        wave_ok = standing <= 1e-3 and 3.5 <= ratio <= 4.5

        # viscous solver: independent explicit finite-difference cross-check
        nu = 0.1
        nx = 401
        xs = np.linspace(0.0, 1.0, nx)
        dx = xs[1] - xs[0]
        steps = int(np.ceil(0.5 / (0.4 * dx**2 / (2.0 * nu))))
        dt = 0.5 / steps
        u = 2.0 * np.sin(np.pi * xs)
        for _ in range(steps):
            diffusion = nu * (u[2:] - 2.0 * u[1:-1] + u[:-2]) / dx**2
            advection = u[1:-1] * (u[2:] - u[:-2]) / (2.0 * dx)
            u = u.copy()
            u[1:-1] += dt * (diffusion - advection)
        grid = GridSpec(t_final=0.5, length=1.0, nt=3, nx=nx)
        series = solve_burgers(lambda x: 2.0 * sinpi(x), nu, grid)
        scale = float(np.max(np.abs(series.values[-1])))
        fd_gap = float(np.max(np.abs(series.values[-1] - u))) / scale
        boundary_ok = bool(
            np.all(series.values[:, 0] == 0.0) and np.all(series.values[:, -1] == 0.0)
        )
        initial_gap = float(np.max(np.abs(series.values[0] - 2.0 * sinpi(xs))))
        burgers_ok = fd_gap < 1e-3 and boundary_ok and initial_gap <= 1e-7

        # beam: the manufactured displacement satisfies the load equation
        rng = np.random.default_rng(204)
        worst_beam = 0.0
        for _ in range(20):
            a = rng.uniform(0.1, 10.0)
            k = rng.uniform(0.05, 2.0)
            t = rng.uniform(0.0, 1.0)
            x = rng.uniform(0.0, 1.0)
            displacement = a * np.exp(-k * x) * np.sin(10.0 * t)
            residual = (
                k**-4 * (k**4 * displacement)
                + (-100.0 * displacement)
                - beam_forcing(a, k, t, x)
            )
            worst_beam = max(worst_beam, abs(residual))
        beam_ok = worst_beam < 1e-9
    ok = wave_ok and burgers_ok and beam_ok
    _report(
        11,
        ok,
        f"wave standing error {standing:.2e} and refinement ratio {ratio:.3f}; "
        f"burgers FD gap {fd_gap:.2e}, boundaries exact={boundary_ok}, initial gap "
        f"{initial_gap:.2e}; beam residual {worst_beam:.2e}",
    )


def test_criterion_12_metric_hand_examples():
    with _property_timer():
        identical = l2_relative_error([1.0, -2.0, 3.0], [1.0, -2.0, 3.0])
        zero_pred = l2_relative_error([3.0, 4.0], [0.0, 0.0])
        crossed = l2_relative_error([1.0, 0.0], [0.0, 1.0])
        moe = mean_and_moe([1.0, 2.0, 3.0]).margin_of_error
    ok = (
        identical == 0.0
        and abs(zero_pred - 1.0) <= 1e-12
        and abs(crossed - np.sqrt(2.0)) <= 1e-12
        and abs(moe - 1.13159) <= 1e-4
    )
    _report(
        12,
        ok,
        f"identical={identical}, zero prediction={zero_pred}, crossed={crossed:.6f} "
        f"(sqrt 2), moe of {{1,2,3}}={moe:.5f} (1.13159)",
    )


def test_criterion_13_serialization_roundtrip(tmp_path):
    with _property_timer():
        rng = np.random.default_rng(205)
        xs = np.linspace(0.0, 1.0, 9)
        amps = rng.uniform(0.5, 2.0, size=(12, 1))
        data = TrainingSet(
            inputs=amps * np.sin(2.0 * np.pi * xs)[None, :],
            queries=np.linspace(0.0, 1.0, 7)[:, None],
            targets=amps * np.cos(np.linspace(0.0, 1.0, 7))[None, :],
        )
        probe_inputs = rng.uniform(0.5, 2.0, size=(5, 1)) * np.sin(2.0 * np.pi * xs)[None, :]
        probe_queries = rng.uniform(0.0, 1.0, size=(11, 1))
        identical = True
        for variant in ("rbon", "nrbon", "frbon"):
            model = train(
                data,
                ModelConfig(variant=variant, branch_units=4, trunk_units=3,
                            branch_overlap=2.0, trunk_overlap=2.0),
            )
            path = tmp_path / f"{variant}.npz"
            save_model(model, path)
            loaded = load_model(path)
            before = predict_matrix(model, probe_inputs, probe_queries)
            after = predict_matrix(loaded, probe_inputs, probe_queries)
            identical &= bool(np.array_equal(before, after))
    _report(13, identical, f"saved and reloaded predictions bit-identical={identical}")


def test_property_runtime_budget():
    total = sum(_PROPERTY_SECONDS)
    ok = total < PROPERTY_BUDGET_SECONDS
    _report(
        "runtime",
        ok,
        f"property checks took {total:.1f}s in total "
        f"(target < {PROPERTY_BUDGET_SECONDS:.0f}s)",
    )
