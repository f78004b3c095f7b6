"""Command-line entry points for dataset generation, training, and reports.

Subcommands: generate, train, evaluate, benchmark, forecast. Global flags
(--config, --seed, --out, --format) may also come from a JSON config file
named by --config or the RBON_CONFIG environment variable; explicit flags
win over the file. Every run writes a manifest listing its settings and
the SHA-256 of each artifact, so a run can be reproduced exactly.
"""

import argparse
import hashlib
import json
import os
import sys

import numpy as np

from . import climate
from .container import CorruptFileError, FormatVersionError, load_container, save_container
from .harness import (
    FAMILIES,
    SIZE_GRID,
    FAMILY_OVERLAPS,
    desk_config,
    per_function_errors,
    run_forecast,
    run_table_row,
    select_model,
)
from .metrics import mean_and_moe
from .model import ModelConfig, TrainingSet, save_model, load_model, train
from .benchmarks import build_benchmark_bundle
from .reporting import (
    benchmark_table_csv,
    benchmark_table_text,
    forecast_report_csv,
    forecast_report_text,
    forecast_rows_csv,
    format_scientific,
)

DEFAULT_SEEDS = (0, 1, 2, 3, 4)
CONFIG_ENV_VAR = "RBON_CONFIG"


def _sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _write_manifest(out_dir: str, command: str, settings: dict, artifacts) -> str:
    manifest = {
        "command": command,
        "settings": settings,
        "artifacts": {
            os.path.basename(p): _sha256(p) for p in sorted(artifacts)
        },
    }
    path = os.path.join(out_dir, "manifest.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(manifest, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def _file_config(args) -> dict:
    path = args.config or os.environ.get(CONFIG_ENV_VAR)
    if not path:
        return {}
    with open(path, "r", encoding="utf-8") as handle:
        loaded = json.load(handle)
    if not isinstance(loaded, dict):
        raise ValueError(f"config file {path} must hold a JSON object")
    return loaded


def _setting(args, file_cfg, key, fallback):
    """Explicit flag beats config file beats hard default."""
    value = getattr(args, key, None)
    if value is not None:
        return value
    return file_cfg.get(key, fallback)


def _out_dir(args, file_cfg, command) -> str:
    out = _setting(args, file_cfg, "out", os.path.join("rbon_runs", command))
    os.makedirs(out, exist_ok=True)
    return out


def _parse_seeds(text) -> tuple:
    if isinstance(text, (list, tuple)):
        return tuple(int(s) for s in text)
    return tuple(int(part) for part in str(text).split(",") if part != "")


def _save_split(path, split_name, data: TrainingSet, meta_extra) -> None:
    arrays = {
        "inputs": data.inputs,
        "queries": data.queries,
        "targets": data.targets,
    }
    meta = {"kind": "dataset", "split": split_name, **meta_extra}
    save_container(path, arrays, meta)


def _load_split(path) -> TrainingSet:
    arrays, _ = load_container(path, expected_kind="dataset")
    return TrainingSet(
        inputs=arrays["inputs"], queries=arrays["queries"], targets=arrays["targets"]
    )


def cmd_generate(args) -> int:
    file_cfg = _file_config(args)
    seed = int(_setting(args, file_cfg, "seed", 0))
    out = _out_dir(args, file_cfg, f"generate-{args.family}")
    config = desk_config(args.family, fine_step=args.fine_step)
    bundle = build_benchmark_bundle(config, seed)
    meta_common = {
        "family": args.family,
        "seed": seed,
        "grid": [config.grid.t_final, config.grid.length, config.grid.nt, config.grid.nx],
        "id_range": [config.id_start, config.id_stop, config.id_step],
        "ood_range": [config.ood_start, config.ood_stop, config.ood_count],
        "constants": {
            "wave_speed": config.wave_speed,
            "viscosity": config.viscosity,
            "decay_id": config.decay_id,
            "decay_ood": config.decay_ood,
        },
    }
    splits = {
        "train": (bundle.train, bundle.train_params),
        "validation": (bundle.validation, bundle.validation_params),
        "id_test": (bundle.id_test, bundle.id_test_params),
        "ood_test": (bundle.ood_test, bundle.ood_params),
    }
    artifacts = []
    for name, (data, params) in splits.items():
        path = os.path.join(out, f"{args.family}_{name}.npz")
        _save_split(path, name, data, meta_common)
        artifacts.append(path)
    settings = {
        **meta_common,
        "parameters": {name: list(params) for name, (_, params) in splits.items()},
    }
    manifest = _write_manifest(out, "generate", settings, artifacts)
    print(f"wrote {len(artifacts)} splits and {os.path.basename(manifest)} to {out}")
    return 0


def cmd_train(args) -> int:
    file_cfg = _file_config(args)
    seed = int(_setting(args, file_cfg, "seed", 0))
    out = _out_dir(args, file_cfg, "train")
    train_set = _load_split(args.data)
    validation = _load_split(args.validation) if args.validation else None

    overlaps = (args.branch_overlap, args.trunk_overlap)
    explicit = args.branch_units is not None or args.trunk_units is not None
    size = (10 if args.branch_units is None else args.branch_units,
            10 if args.trunk_units is None else args.trunk_units)
    score = None
    if validation is not None:
        sizes = [size] if explicit else SIZE_GRID
        model, score = select_model(train_set, validation, args.variant, seed, overlaps, sizes)
    else:
        model = train(train_set, ModelConfig(
            variant=args.variant,
            branch_units=size[0],
            trunk_units=size[1],
            branch_overlap=overlaps[0],
            trunk_overlap=overlaps[1],
            seed=seed,
        ))

    model_path = os.path.join(out, f"{args.variant}_model.npz")
    save_model(model, model_path)
    train_errors = per_function_errors(model, train_set)
    report = {
        "variant": args.variant,
        "branch_units": model.branch_units,
        "trunk_units": model.trunk_units,
        "seed": seed,
        "train_mean_error": float(np.mean(train_errors)),
        "validation_mean_error": score,
        "training_residual": model.training_residual,
    }
    report_path = os.path.join(out, "training_report.json")
    with open(report_path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    _write_manifest(out, "train", report, [model_path, report_path])
    label, value = ("validation", score) if score is not None else (
        "train", report["train_mean_error"])
    print(
        f"{args.variant} {model.branch_units}x{model.trunk_units}: "
        f"{label} L2 relative error {format_scientific(value)}; saved {model_path}"
    )
    return 0


def cmd_evaluate(args) -> int:
    file_cfg = _file_config(args)
    out = _out_dir(args, file_cfg, "evaluate")
    fmt = _setting(args, file_cfg, "format", "table")
    model = load_model(args.model)
    data = _load_split(args.data)
    errors = per_function_errors(model, data)
    summary = mean_and_moe(errors) if errors.size >= 2 else None
    lines = ["function_index,l2_relative_error"]
    lines += [f"{i},{e!r}" for i, e in enumerate(errors)]
    errors_path = os.path.join(out, "per_function_errors.csv")
    with open(errors_path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")
    if summary is not None:
        text = (
            f"n={summary.n} mean={format_scientific(summary.mean_error)} "
            f"moe={format_scientific(summary.margin_of_error)}"
        )
    else:
        text = f"n=1 error={format_scientific(float(errors[0]))}"
    _write_manifest(
        out,
        "evaluate",
        {"model": os.path.basename(args.model), "data": os.path.basename(args.data)},
        [errors_path],
    )
    if fmt == "csv":
        print("\n".join(lines))
    else:
        print(text)
    return 0


def cmd_benchmark(args) -> int:
    file_cfg = _file_config(args)
    out = _out_dir(args, file_cfg, "benchmark")
    fmt = _setting(args, file_cfg, "format", "table")
    seeds = _parse_seeds(_setting(args, file_cfg, "seeds", DEFAULT_SEEDS))
    families = args.families.split(",") if args.families else list(FAMILIES)
    variants = args.variants.split(",") if args.variants else ["rbon", "nrbon", "frbon"]

    rows, failures = [], []
    for family in families:
        if family not in FAMILIES:
            failures.append((family, "*", f"unknown family {family!r}"))
            continue
        config = desk_config(family, fine_step=args.fine_step)
        for variant in variants:
            try:
                rows.append(run_table_row(config, variant, seeds))
            except Exception as exc:
                failures.append((family, variant, str(exc)))

    artifacts = []
    if rows:
        csv_path = os.path.join(out, "benchmark_table.csv")
        with open(csv_path, "w", encoding="utf-8") as handle:
            handle.write(benchmark_table_csv(rows))
        text_path = os.path.join(out, "benchmark_table.txt")
        with open(text_path, "w", encoding="utf-8") as handle:
            handle.write(benchmark_table_text(rows))
        artifacts = [csv_path, text_path]
        print(benchmark_table_csv(rows) if fmt == "csv" else benchmark_table_text(rows), end="")
    settings = {
        "families": families,
        "variants": variants,
        "seeds": list(seeds),
        "fine_step": bool(args.fine_step),
        "overlaps": {f: list(FAMILY_OVERLAPS[f]) for f in FAMILIES},
        "failed_cells": [list(f) for f in failures],
    }
    _write_manifest(out, "benchmark", settings, artifacts)
    for family, variant, message in failures:
        print(f"failed cell {family}/{variant}: {message}", file=sys.stderr)
    return 1 if failures else 0


def cmd_forecast(args) -> int:
    file_cfg = _file_config(args)
    seed = int(_setting(args, file_cfg, "seed", 0))
    out = _out_dir(args, file_cfg, "forecast")
    fmt = _setting(args, file_cfg, "format", "table")
    targets = args.targets.split(",") if args.targets else ["global", "local"]
    holdouts = _parse_seeds(_setting(args, file_cfg, "holdouts", (2, 5)))

    co2_source = None
    temperature_source = None
    surrogate = True
    if args.co2 or args.temperature:
        if args.temperature and len(targets) != 1:
            raise ValueError("an explicit --temperature source needs exactly one target")
        schemas = {"scripps": climate.scripps_co2_schema(), "simple": climate.simple_monthly_schema()}
        if args.co2:
            co2_source = climate.parse_monthly_csv(args.co2, schemas[args.co2_schema])
        if args.temperature:
            temperature_source = climate.parse_monthly_csv(
                args.temperature, schemas[args.temperature_schema]
            )
        surrogate = False
    else:
        with climate.fixture_path("MANIFEST.json").open("r") as handle:
            surrogate = bool(json.load(handle).get("surrogate", False))

    results, artifacts = [], []
    for target in targets:
        for holdout in holdouts:
            result = run_forecast(
                target=target,
                holdout_years=holdout,
                seed=seed,
                co2_source=co2_source,
                temperature_source=temperature_source,
            )
            results.append(result)
            rows_path = os.path.join(out, f"forecast_{target}_{holdout}y.csv")
            with open(rows_path, "w", encoding="utf-8") as handle:
                handle.write(forecast_rows_csv(result))
            artifacts.append(rows_path)

    report_csv = os.path.join(out, "forecast_report.csv")
    with open(report_csv, "w", encoding="utf-8") as handle:
        handle.write(forecast_report_csv(results, surrogate))
    report_text = os.path.join(out, "forecast_report.txt")
    with open(report_text, "w", encoding="utf-8") as handle:
        handle.write(forecast_report_text(results, surrogate))
    artifacts += [report_csv, report_text]
    settings = {
        "targets": targets,
        "holdouts": list(holdouts),
        "seed": seed,
        "surrogate": surrogate,
    }
    _write_manifest(out, "forecast", settings, artifacts)
    print(
        forecast_report_csv(results, surrogate)
        if fmt == "csv"
        else forecast_report_text(results, surrogate),
        end="",
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--config", help="JSON config file with default settings")
    shared.add_argument("--seed", type=int, help="base random seed (default 0)")
    shared.add_argument("--out", help="output directory for artifacts")
    shared.add_argument("--format", choices=("csv", "table"), help="report style")

    parser = argparse.ArgumentParser(
        prog="rbon",
        description="Radial-basis operator networks: benchmarks and forecasting.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    generate = commands.add_parser(
        "generate", parents=[shared], help="solve a PDE family and write dataset splits"
    )
    generate.add_argument("--family", required=True, choices=FAMILIES)
    generate.add_argument(
        "--fine-step",
        action="store_true",
        help="use the fine 0.001 wave amplitude step instead of the desk-scale 0.01",
    )
    generate.set_defaults(func=cmd_generate)

    train_cmd = commands.add_parser(
        "train", parents=[shared], help="fit one model on a generated dataset"
    )
    train_cmd.add_argument("--data", required=True, help="training split file")
    train_cmd.add_argument("--validation", help="validation split file (enables size sweep)")
    train_cmd.add_argument("--variant", default="rbon", choices=("rbon", "nrbon", "frbon"))
    train_cmd.add_argument("--branch-units", type=int)
    train_cmd.add_argument("--trunk-units", type=int)
    train_cmd.add_argument("--branch-overlap", type=float, default=1.0)
    train_cmd.add_argument("--trunk-overlap", type=float, default=1.0)
    train_cmd.set_defaults(func=cmd_train)

    evaluate = commands.add_parser(
        "evaluate", parents=[shared], help="score a saved model on a dataset split"
    )
    evaluate.add_argument("--model", required=True)
    evaluate.add_argument("--data", required=True)
    evaluate.set_defaults(func=cmd_evaluate)

    benchmark = commands.add_parser(
        "benchmark", parents=[shared], help="run the full accuracy table"
    )
    benchmark.add_argument("--families", help="comma-separated subset of families")
    benchmark.add_argument("--variants", help="comma-separated subset of variants")
    benchmark.add_argument("--seeds", help="comma-separated seed list")
    benchmark.add_argument("--fine-step", action="store_true")
    benchmark.set_defaults(func=cmd_benchmark)

    forecast = commands.add_parser(
        "forecast", parents=[shared], help="climate holdout forecasts"
    )
    forecast.add_argument("--targets", help="comma-separated subset of global,local")
    forecast.add_argument("--holdouts", help="comma-separated holdout year counts")
    forecast.add_argument("--co2", help="CO2 CSV path (default: bundled fixture)")
    forecast.add_argument("--temperature", help="temperature CSV path")
    forecast.add_argument("--co2-schema", default="scripps", choices=("scripps", "simple"))
    forecast.add_argument("--temperature-schema", default="simple", choices=("scripps", "simple"))
    forecast.set_defaults(func=cmd_forecast)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (FileNotFoundError, ValueError, CorruptFileError, FormatVersionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
