"""Monthly CSV parsing, year assembly, forecast splits, bundled fixtures."""

import io
import json

import numpy as np
import pytest

from rbon.climate import (
    MONTH_QUERIES,
    CsvSchema,
    MonthlySeries,
    YearFunction,
    build_forecast_dataset,
    common_years,
    fixture_path,
    load_fixture,
    parse_monthly_csv,
    scripps_co2_schema,
    simple_monthly_schema,
    to_year_functions,
    write_monthly_csv,
)
from rbon.harness import run_forecast


def _parse(text, schema=None):
    return parse_monthly_csv(io.StringIO(text), schema or simple_monthly_schema())


# parsing --------------------------------------------------------------------


def test_parse_clean_rows():
    series = _parse("year,month,value\n1990,1,10.5\n1990,2,11.0\n1991,1,9.75\n")
    assert series.records == ((1990, 1, 10.5), (1990, 2, 11.0), (1991, 1, 9.75))
    assert series.missing == ()


def test_parse_sentinel_becomes_missing():
    series = _parse("year,month,value\n1990,1,10.5\n1990,2,-99.99\n")
    assert series.records == ((1990, 1, 10.5),)
    assert series.missing == ((1990, 2),)


def test_parse_unparseable_value_becomes_missing():
    series = _parse("year,month,value\n1990,1,n/a\n1990,2,inf\n1990,3,4.0\n")
    assert series.records == ((1990, 3, 4.0),)
    assert series.missing == ((1990, 1), (1990, 2))


def test_parse_skips_comments_and_blanks():
    text = "# provenance note\n\nyear,month,value\n# mid-file comment\n1990,1,1.0\n"
    series = _parse(text)
    assert series.records == ((1990, 1, 1.0),)


def test_parse_duplicate_key_is_an_error():
    with pytest.raises(ValueError, match="duplicate"):
        _parse("year,month,value\n1990,1,10.5\n1990,1,11.0\n")


def test_parse_malformed_rows_rejected_by_default():
    with pytest.raises(ValueError, match="malformed"):
        _parse("year,month,value\nnot-a-year,1,10.5\n1990,2,11.0\n")
    with pytest.raises(ValueError, match="malformed"):
        _parse("year,month,value\n1990,13,10.5\n")  # month out of range
    with pytest.raises(ValueError, match="malformed"):
        _parse("year,month,value\n1990\n")  # too few fields


def test_parse_malformed_rows_within_budget_are_tolerated():
    schema = CsvSchema(year_column=0, month_column=1, value_column=2, max_malformed=2)
    series = _parse("year,month,value\njunk,1,1.0\n1990,1,10.5\n1990,99,3.0\n", schema)
    assert series.records == ((1990, 1, 10.5),)


def test_parse_custom_column_layout():
    schema = CsvSchema(
        year_column=0,
        month_column=1,
        value_column=3,
        comment_prefixes=('"', "%"),
        missing_markers=("-99.99", "NaN"),
    )
    text = '"quoted preamble line\n% another comment\nYr,Mn,Date,CO2\n1990,1,1990.04,354.2\n1990,2,1990.12,NaN\n'
    series = _parse(text, schema)
    assert series.records == ((1990, 1, 354.2),)
    assert series.missing == ((1990, 2),)


def test_parse_accepts_path(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("year,month,value\n2001,5,3.25\n")
    series = parse_monthly_csv(path, simple_monthly_schema())
    assert series.records == ((2001, 5, 3.25),)


def test_series_validation():
    with pytest.raises(ValueError):
        MonthlySeries(records=((1990, 0, 1.0),))
    with pytest.raises(ValueError):
        MonthlySeries(records=((1990, 1, 1.0), (1990, 1, 2.0)))
    with pytest.raises(ValueError):
        MonthlySeries(records=((1990, 1, 1.0),), missing=((1990, 1),))


def test_write_parse_roundtrip():
    rng = np.random.default_rng(100)
    records = tuple(
        (year, month, float(rng.normal()))
        for year in (2000, 2001)
        for month in range(1, 13)
        if (year, month) != (2001, 6)
    )
    series = MonthlySeries(records=records, missing=((2001, 6),))
    buffer = io.StringIO()
    write_monthly_csv(series, buffer)
    back = parse_monthly_csv(io.StringIO(buffer.getvalue()), simple_monthly_schema())
    assert sorted(back.records) == sorted(series.records)
    assert back.missing == ((2001, 6),)


# year assembly --------------------------------------------------------------


def test_write_handles_numpy_scalar_values():
    series = MonthlySeries(records=((2000, 1, np.float64(1.5)),))
    buffer = io.StringIO()
    write_monthly_csv(series, buffer)
    assert "1.5" in buffer.getvalue()
    back = parse_monthly_csv(io.StringIO(buffer.getvalue()), simple_monthly_schema())
    assert back.records == ((2000, 1, 1.5),)


def _full_year(year, base):
    return [(year, month, base + month * 0.1) for month in range(1, 13)]


def test_year_functions_keep_only_complete_years():
    records = _full_year(1990, 10.0) + _full_year(1992, 20.0)
    records += [(1991, m, 15.0) for m in range(1, 12)]  # December absent
    series = MonthlySeries(records=tuple(records))
    years = to_year_functions(series)
    assert [f.year for f in years] == [1990, 1992]
    np.testing.assert_allclose(years[0].samples, 10.0 + np.arange(1, 13) * 0.1)


def test_year_functions_drop_years_with_missing_months():
    records = _full_year(1990, 10.0) + [
        (1991, m, 15.0) for m in range(1, 13) if m != 6
    ]
    series = MonthlySeries(records=tuple(records), missing=((1991, 6),))
    assert [f.year for f in to_year_functions(series)] == [1990]


def test_year_functions_never_fabricate_values():
    rng = np.random.default_rng(101)
    records = []
    for year in range(1980, 1990):
        months = range(1, 13) if year % 3 else range(1, 12)
        records += [(year, m, float(rng.normal())) for m in months]
    series = MonthlySeries(records=tuple(records))
    lookup = {(y, m): v for y, m, v in records}
    for function in to_year_functions(series):
        for month in range(1, 13):
            assert function.samples[month - 1] == lookup[(function.year, month)]


def test_year_function_validation():
    with pytest.raises(ValueError):
        YearFunction(year=2000, samples=np.ones(11))
    with pytest.raises(ValueError):
        YearFunction(year=2000, samples=np.full(12, np.nan))


# forecast datasets ----------------------------------------------------------


def _synthetic_years(years, offset=0.0):
    return [
        YearFunction(year=y, samples=offset + y + 0.01 * np.arange(12)) for y in years
    ]


def test_forecast_split_takes_most_recent_years():
    co2 = _synthetic_years(range(2000, 2010))
    temp = _synthetic_years(range(2000, 2010), offset=5.0)
    train, test = build_forecast_dataset(co2, temp, holdout_years=2)
    assert train.n_functions == 8
    assert test.n_functions == 2
    np.testing.assert_array_equal(train.queries, MONTH_QUERIES)
    # test rows are the two newest years, in order
    np.testing.assert_allclose(test.inputs[0], 2008 + 0.01 * np.arange(12))
    np.testing.assert_allclose(test.inputs[1], 2009 + 0.01 * np.arange(12))
    np.testing.assert_allclose(test.targets[1], 2014 + 0.01 * np.arange(12))
    # train rows stop right before the holdout
    np.testing.assert_allclose(train.inputs[-1], 2007 + 0.01 * np.arange(12))


def test_forecast_split_uses_intersection_of_years():
    co2 = _synthetic_years(range(2000, 2010))
    temp = _synthetic_years(range(2005, 2015), offset=5.0)
    train, test = build_forecast_dataset(co2, temp, holdout_years=2)
    assert train.n_functions == 3  # 2005..2007
    np.testing.assert_allclose(test.inputs[0], 2008 + 0.01 * np.arange(12))


def test_forecast_split_validation():
    co2 = _synthetic_years(range(2000, 2010))
    temp = _synthetic_years(range(2000, 2010), offset=5.0)
    with pytest.raises(ValueError):
        build_forecast_dataset(co2, temp, holdout_years=0)
    with pytest.raises(ValueError):
        build_forecast_dataset(co2, temp, holdout_years=9)  # leaves < 2 train years
    with pytest.raises(ValueError):
        build_forecast_dataset(co2, _synthetic_years(range(2020, 2030)), holdout_years=2)


def test_common_years():
    a = _synthetic_years([2000, 2001, 2002])
    b = _synthetic_years([2001, 2002, 2003])
    assert common_years(a, b) == [2001, 2002]


# bundled fixtures -----------------------------------------------------------


def test_fixtures_parse_and_cover_the_expected_years():
    co2 = load_fixture("co2_monthly.csv")
    assert co2.missing  # the gap months are represented, not dropped
    co2_years = to_year_functions(co2)
    assert co2_years[0].year == 1960
    assert co2_years[-1].year == 2023
    assert len(co2_years) == 62  # two years lost to sentinel gaps

    for name in ("temp_global_monthly.csv", "temp_local_monthly.csv"):
        temp_years = to_year_functions(load_fixture(name))
        assert len(temp_years) == 64
        assert len(common_years(co2_years, temp_years)) == 62


def test_fixture_schema_autodetection_matches_explicit_schema():
    auto = load_fixture("co2_monthly.csv")
    explicit = load_fixture("co2_monthly.csv", scripps_co2_schema())
    assert auto.records == explicit.records


def test_fixture_manifest_marks_data_as_surrogate():
    with fixture_path("MANIFEST.json").open("r") as handle:
        manifest = json.load(handle)
    assert manifest["surrogate"] is True


def test_forecast_run_on_fixtures():
    result = run_forecast(target="global", holdout_years=2, seed=0)
    assert result.per_year_errors.shape == (2,)
    assert result.mean_error < 0.2
    assert result.test_years == (2022, 2023)
    assert max(result.train_years) < min(result.test_years)
    assert result.predictions.shape == (2, 12)
    assert result.train_predictions.shape[0] == len(result.train_years)


def test_forecast_one_year_holdout():
    result = run_forecast(target="global", holdout_years=1, seed=0)
    assert result.test_years == (2023,)
    assert result.predictions.shape == (1, 12)
    assert np.all(np.isfinite(result.predictions))
    assert result.per_year_errors.shape == (1,)
