"""End-to-end command flows: generate, train, evaluate, benchmark, forecast."""

import hashlib
import json
import re

import numpy as np
import pytest

from rbon.cli import main
from rbon.climate import MonthlySeries, write_monthly_csv
from rbon.container import load_container
from rbon.model import load_model


def _sha(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _manifest(out_dir):
    return json.loads((out_dir / "manifest.json").read_text())


@pytest.fixture(scope="module")
def beam_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("beam_gen")
    assert main(["generate", "--family", "beam", "--out", str(out)]) == 0
    return out


def test_generate_writes_splits_and_manifest(beam_run):
    names = [f"beam_{split}.npz" for split in ("train", "validation", "id_test", "ood_test")]
    for name in names:
        assert (beam_run / name).exists()
    manifest = _manifest(beam_run)
    settings = manifest["settings"]
    assert settings["family"] == "beam"
    assert settings["seed"] == 0
    assert settings["constants"]["decay_id"] == 0.05
    assert settings["constants"]["viscosity"] == 0.1
    sizes = {split: len(params) for split, params in settings["parameters"].items()}
    assert sizes == {"train": 160, "validation": 20, "id_test": 20, "ood_test": 100}
    # recorded hashes match the files on disk
    for name in names:
        assert manifest["artifacts"][name] == _sha(beam_run / name)


def test_generate_reruns_are_byte_identical(beam_run, tmp_path):
    again = tmp_path / "again"
    assert main(["generate", "--family", "beam", "--out", str(again)]) == 0
    for name in ("beam_train.npz", "beam_ood_test.npz", "manifest.json"):
        assert (again / name).read_bytes() == (beam_run / name).read_bytes()


def test_generate_seed_changes_the_split(beam_run, tmp_path):
    other = tmp_path / "seeded"
    assert main(["generate", "--family", "beam", "--seed", "1", "--out", str(other)]) == 0
    ours = _manifest(beam_run)["settings"]["parameters"]["train"]
    theirs = _manifest(other)["settings"]["parameters"]["train"]
    assert ours != theirs
    assert sorted(ours + _manifest(beam_run)["settings"]["parameters"]["validation"]
                  + _manifest(beam_run)["settings"]["parameters"]["id_test"]) == sorted(
        theirs + _manifest(other)["settings"]["parameters"]["validation"]
        + _manifest(other)["settings"]["parameters"]["id_test"]
    )


def test_train_and_evaluate_flow(beam_run, tmp_path, capsys):
    train_out = tmp_path / "train"
    code = main([
        "train",
        "--data", str(beam_run / "beam_train.npz"),
        "--validation", str(beam_run / "beam_validation.npz"),
        "--variant", "rbon",
        "--branch-units", "10",
        "--trunk-units", "10",
        "--branch-overlap", "4.0",
        "--trunk-overlap", "10.0",
        "--out", str(train_out),
    ])
    assert code == 0
    report = json.loads((train_out / "training_report.json").read_text())
    assert report["validation_mean_error"] is not None
    assert report["validation_mean_error"] < 1e-2
    model = load_model(train_out / "rbon_model.npz")
    assert model.branch_units == 10

    eval_out = tmp_path / "eval"
    code = main([
        "evaluate",
        "--model", str(train_out / "rbon_model.npz"),
        "--data", str(beam_run / "beam_id_test.npz"),
        "--out", str(eval_out),
    ])
    assert code == 0
    lines = (eval_out / "per_function_errors.csv").read_text().strip().splitlines()
    assert lines[0] == "function_index,l2_relative_error"
    assert len(lines) == 21  # header + 20 test functions
    assert "mean=" in capsys.readouterr().out


def test_train_frequency_variant_records_complex_centers(beam_run, tmp_path):
    out = tmp_path / "freq"
    code = main([
        "train",
        "--data", str(beam_run / "beam_train.npz"),
        "--variant", "frbon",
        "--branch-units", "5",
        "--trunk-units", "5",
        "--branch-overlap", "4.0",
        "--trunk-overlap", "10.0",
        "--out", str(out),
    ])
    assert code == 0
    _, meta = load_container(out / "frbon_model.npz", expected_kind="model")
    assert meta["complex_branch"] is True


def test_train_rejects_zero_units(beam_run, tmp_path, capsys):
    out = tmp_path / "zero"
    code = main(["train", "--data", str(beam_run / "beam_train.npz"),
                 "--branch-units", "0", "--out", str(out)])
    assert code == 2
    assert "error:" in capsys.readouterr().err
    assert not (out / "rbon_model.npz").exists()


def test_train_without_validation_uses_the_default_size(beam_run, tmp_path):
    out = tmp_path / "plain"
    code = main(["train", "--data", str(beam_run / "beam_train.npz"), "--out", str(out)])
    assert code == 0
    report = json.loads((out / "training_report.json").read_text())
    assert report["validation_mean_error"] is None
    assert (report["branch_units"], report["trunk_units"]) == (10, 10)


def test_missing_dataset_exits_2(tmp_path, capsys):
    code = main(["train", "--data", str(tmp_path / "absent.npz"), "--out", str(tmp_path)])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_unknown_family_is_a_usage_error(tmp_path):
    with pytest.raises(SystemExit) as excinfo:
        main(["generate", "--family", "plasma", "--out", str(tmp_path)])
    assert excinfo.value.code == 2


def test_benchmark_single_cell(tmp_path, capsys):
    out = tmp_path / "bench"
    code = main([
        "benchmark",
        "--families", "beam",
        "--variants", "rbon",
        "--seeds", "0",
        "--out", str(out),
    ])
    assert code == 0
    csv_lines = (out / "benchmark_table.csv").read_text().strip().splitlines()
    assert csv_lines[0].startswith("family,variant,seeds,size")
    assert len(csv_lines) == 2
    assert csv_lines[1].startswith("beam,RBON,0,")
    text = (out / "benchmark_table.txt").read_text()
    # error cells read like 2.7E-5(4.2E-6)
    assert re.search(r"\d\.\dE-?\d+\(\d\.\dE-?\d+\)", text)
    assert _manifest(out)["settings"]["failed_cells"] == []
    assert "beam" in capsys.readouterr().out


def test_benchmark_reports_failed_cells(tmp_path, capsys):
    out = tmp_path / "bad"
    code = main(["benchmark", "--families", "plasma", "--seeds", "0", "--out", str(out)])
    assert code == 1
    assert "plasma" in capsys.readouterr().err
    assert _manifest(out)["settings"]["failed_cells"] != []


def test_forecast_on_bundled_fixtures(tmp_path, capsys):
    out = tmp_path / "forecast"
    code = main(["forecast", "--targets", "global", "--holdouts", "2", "--out", str(out)])
    assert code == 0
    rows = (out / "forecast_global_2y.csv").read_text().strip().splitlines()
    assert rows[0] == "year,month,actual,predicted,split"
    assert sum(1 for r in rows if r.endswith(",forecast")) == 24
    assert sum(1 for r in rows if r.endswith(",train")) == 60 * 12
    report = (out / "forecast_report.csv").read_text()
    assert "surrogate" in report
    assert _manifest(out)["settings"]["surrogate"] is True
    assert "surrogate" in capsys.readouterr().out


def test_forecast_with_explicit_sources(tmp_path):
    years = range(2000, 2012)
    co2 = MonthlySeries(records=tuple(
        (y, m, 300.0 + 2.0 * (y - 2000) + 0.1 * m) for y in years for m in range(1, 13)
    ))
    temp = MonthlySeries(records=tuple(
        (y, m, 10.0 + 0.05 * (y - 2000) + np.sin(m)) for y in years for m in range(1, 13)
    ))
    co2_path = tmp_path / "co2.csv"
    temp_path = tmp_path / "temp.csv"
    write_monthly_csv(co2, co2_path)
    write_monthly_csv(temp, temp_path)
    out = tmp_path / "fc"
    code = main([
        "forecast",
        "--targets", "global",
        "--holdouts", "2",
        "--co2", str(co2_path),
        "--co2-schema", "simple",
        "--temperature", str(temp_path),
        "--out", str(out),
    ])
    assert code == 0
    assert ",real" in (out / "forecast_report.csv").read_text()
    assert _manifest(out)["settings"]["surrogate"] is False


def test_forecast_explicit_temperature_needs_one_target(tmp_path, capsys):
    temp_path = tmp_path / "temp.csv"
    write_monthly_csv(MonthlySeries(records=((2000, 1, 1.0),)), temp_path)
    code = main(["forecast", "--temperature", str(temp_path), "--out", str(tmp_path)])
    assert code == 2
    assert "one target" in capsys.readouterr().err


def test_config_file_supplies_defaults(tmp_path, monkeypatch):
    config = tmp_path / "settings.json"
    config.write_text('{"seed": 3}\n')
    out_a = tmp_path / "a"
    assert main(["generate", "--family", "beam", "--config", str(config),
                 "--out", str(out_a)]) == 0
    assert _manifest(out_a)["settings"]["seed"] == 3

    # same file via the environment variable
    out_b = tmp_path / "b"
    monkeypatch.setenv("RBON_CONFIG", str(config))
    assert main(["generate", "--family", "beam", "--out", str(out_b)]) == 0
    assert _manifest(out_b)["settings"]["seed"] == 3

    # an explicit flag still wins over the file
    out_c = tmp_path / "c"
    assert main(["generate", "--family", "beam", "--seed", "5", "--out", str(out_c)]) == 0
    assert _manifest(out_c)["settings"]["seed"] == 5


def test_evaluate_csv_format(beam_run, tmp_path, capsys):
    train_out = tmp_path / "train"
    assert main(["train", "--data", str(beam_run / "beam_train.npz"),
                 "--out", str(train_out)]) == 0
    capsys.readouterr()
    code = main([
        "evaluate",
        "--model", str(train_out / "rbon_model.npz"),
        "--data", str(beam_run / "beam_id_test.npz"),
        "--format", "csv",
        "--out", str(tmp_path / "eval"),
    ])
    assert code == 0
    assert capsys.readouterr().out.startswith("function_index,l2_relative_error")
