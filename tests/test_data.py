"""Dataset pipeline: CSV loading, supervised tables, splitting, scaling."""

import numpy as np
import pytest

from forexkit import data, synth
from forexkit.data import (Dataset, FeatureSpec, RateSeries, apply_scaler,
                           build_supervised, fit_scaler, load_csv, rmse,
                           scale_features, scale_target, split, unscale_target)

from oracles import ReferenceCsv


def _write(tmp_path, text, name="rates.csv"):
    path = tmp_path / name
    path.write_text(text)
    return path


def _two_series(months=24):
    rng = np.random.default_rng(1)
    return {
        "AAA": RateSeries("AAA", 2000, 1, rng.uniform(1, 2, months)),
        "BBB": RateSeries("BBB", 2000, 1, rng.uniform(5, 9, months)),
    }


class TestRateSeries:
    def test_rejects_nonpositive_and_nonfinite(self):
        with pytest.raises(ValueError, match="positive"):
            RateSeries("X", 2000, 1, [1.0, 0.0])
        with pytest.raises(ValueError, match="positive"):
            RateSeries("X", 2000, 1, [1.0, np.nan])

    def test_rejects_bad_start_month(self):
        with pytest.raises(ValueError, match="start_month"):
            RateSeries("X", 2000, 13, [1.0])

    def test_values_read_only(self):
        s = RateSeries("X", 2000, 1, [1.0, 2.0])
        with pytest.raises(ValueError):
            s.values[0] = 9.9


class TestLoadCsv:
    def test_round_trips_synth_output(self, tmp_path):
        series = synth.forex5_series(3)
        path = tmp_path / "five.csv"
        synth.write_rates_csv(path, series)
        loaded = load_csv(path)
        assert list(loaded) == list(series)
        for code in series:
            np.testing.assert_array_equal(loaded[code].values, series[code].values)
            assert loaded[code].start_year == series[code].start_year
            assert loaded[code].start_month == series[code].start_month

    def test_requires_date_first_column(self, tmp_path):
        path = _write(tmp_path, "month,USD\n2000-01,1.0\n")
        with pytest.raises(ValueError, match="date"):
            load_csv(path)

    def test_names_row_of_bad_cell(self, tmp_path):
        path = _write(tmp_path, "date,USD\n2000-01,1.0\n2000-02,oops\n")
        with pytest.raises(ValueError, match="row 3"):
            load_csv(path)

    def test_rejects_month_gaps(self, tmp_path):
        path = _write(tmp_path, "date,USD\n2000-01,1.0\n2000-03,1.1\n")
        with pytest.raises(ValueError, match="non-consecutive"):
            load_csv(path)

    def test_rejects_bad_date_format(self, tmp_path):
        path = _write(tmp_path, "date,USD\n2000/01,1.0\n")
        with pytest.raises(ValueError, match="YYYY-MM"):
            load_csv(path)

    def test_rejects_empty_file(self, tmp_path):
        path = _write(tmp_path, "")
        with pytest.raises(ValueError, match="empty"):
            load_csv(path)

    def test_accepts_utf8_byte_order_mark(self, tmp_path):
        path = tmp_path / "rates.csv"
        path.write_bytes(b"\xef\xbb\xbfdate,USD\n2000-01,1.0\n2000-02,1.5\n")
        series = load_csv(path)
        assert list(series) == ["USD"]
        np.testing.assert_array_equal(series["USD"].values, [1.0, 1.5])

    def test_year_rollover_is_consecutive(self, tmp_path):
        path = _write(tmp_path, "date,USD\n1999-12,1.0\n2000-01,1.1\n")
        series = load_csv(path)["USD"]
        assert (series.start_year, series.start_month) == (1999, 12)
        assert len(series) == 2


class TestLoadCsvRows:
    def test_gap_names_file_line_after_blank_rows(self, tmp_path):
        path = _write(tmp_path, "date,USD\n2000-01,1.0\n\n\n2000-02,1.1\n2000-04,1.2\n")
        with pytest.raises(ValueError, match="^non-consecutive months at row 6: "
                                             "2000-02 then 2000-04$"):
            load_csv(path)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-1", "0"])
    def test_bad_rate_names_its_row(self, tmp_path, cell):
        path = _write(tmp_path, f"date,GBP,USD\n2000-01,1.0,1.0\n\n2000-02,2.0,{cell}\n"
                                f"2000-03,1.0,{cell}\n")
        with pytest.raises(ValueError) as err:
            load_csv(path)
        assert str(err.value) == (f"row 4: rate {cell!r} for USD "
                                  "must be finite and strictly positive")

    def test_first_bad_rate_in_file_order(self, tmp_path):
        path = _write(tmp_path, "date,GBP,USD\n2000-01,1.0,0\n2000-02,nan,1.0\n")
        with pytest.raises(ValueError, match="^row 2: rate '0' for USD"):
            load_csv(path)

    @pytest.mark.parametrize("header, message", [
        ("date,USD,USD", "line 1: duplicate currency code 'USD' in column 3"),
        ("date, USD,GBP,USD ", "line 1: duplicate currency code 'USD' in column 4"),
        ("date,USD,", "line 1: empty currency code '' in column 3"),
        ("date,,USD", "line 1: empty currency code '' in column 2"),
        ('date,"USD"', "line 1: quoted currency code '\"USD\"' in column 2"),
    ])
    def test_rejects_duplicate_empty_and_quoted_codes(self, tmp_path, header, message):
        width = header.count(",")
        path = _write(tmp_path, f"{header}\n2000-01{',1.0' * width}\n")
        with pytest.raises(ValueError) as err:
            load_csv(path)
        assert str(err.value) == message

    def test_rejects_quoted_rate(self, tmp_path):
        path = _write(tmp_path, 'date,USD\n2000-01,1.0\n2000-02,"1.0"\n')
        with pytest.raises(ValueError) as err:
            load_csv(path)
        assert str(err.value) == "row 3: non-numeric rate '\"1.0\"' for USD"

    @pytest.mark.parametrize("date", ["2000-0\u00b2", "\u0662\u0660\u0660\u0660-01",
                                      "2000-1e", "1234567890-01"])
    def test_date_digits_are_ascii(self, tmp_path, date):
        path = _write(tmp_path, f"date,USD\n1999-12,1.0\n{date},1.1\n")
        with pytest.raises(ValueError) as err:
            load_csv(path)
        assert str(err.value) == f"row 3: date {date!r} is not YYYY-MM"

    def test_short_and_long_rows_that_balance_are_rejected(self, tmp_path):
        path = _write(tmp_path, "date,USD\n2000-01,1.0,\n1.5\n")
        with pytest.raises(ValueError, match="^row 2: expected 2 fields, got 3$"):
            load_csv(path)

    @pytest.mark.parametrize("tail, passes", [
        ("\n", 1), ("\n\n\n", 1), ("\n,\n", 1), ("\n , ,\n\n \n", 1),
        ("\n\n2000-03,1.2\n", 2), ("\n,\n2000-03,1.2\n", 2),
    ])
    def test_only_inner_blank_rows_cost_a_second_pass(self, tmp_path, monkeypatch,
                                                      tail, passes):
        calls = []
        bulk = data._bulk
        monkeypatch.setattr(data, "_bulk", lambda *a: calls.append(1) or bulk(*a))
        series = load_csv(_write(tmp_path, "date,USD\n2000-01,1.0\n2000-02,1.1" + tail))
        assert len(calls) == passes
        assert series["USD"].values.size == 2 + (passes == 2)


def _outcome(load, path):
    """What a loader makes of a file: its error text, or per series the code,
    start month and value bytes."""
    try:
        series = load(path)
    except ValueError as err:
        return str(err)
    return [(code, s.start_year, s.start_month, s.values.tobytes())
            for code, s in series.items()]


def _synth(months, newline="\n"):
    """The text ``synth.write_rates_csv`` writes for forex5, with its line ends."""
    def text(tmp_path):
        path = tmp_path / "synth.csv"
        synth.write_rates_csv(path, synth.forex5_series(11, months=months))
        return path.read_text().replace("\n", newline)
    return text


_SAME_SERIES = {
    **{f"forex5_{m}": _synth(m) for m in (2, 60, 244, 2440)},
    "crlf": _synth(60, "\r\n"),
    "cr": _synth(12, "\r"),
    "padded": " date , USD ,GBP \n 2000-01 , 1.5 ,\t2.0\n2000-02  ,1.25 , 2.5 \n",
    "blank_rows": "date,USD\n\n , \n2000-01,1.0\n,,\n\t\n2000-02,1.1\n \n,\n",
    "no_final_newline": "date,USD\n2000-01,1.0\n2000-02,1.1",
    "underscore_digits": "date,USD\n2000-01,1_0\n2000-02,1_000.5e-3\n",
    "year_rollover": "date,USD\n1999-11,1.0\n1999-12,1.1\n2000-01,1.2\n",
    "form_feed_in_cell": "date,USD\n2000-01,1.0\x0c\n2000-02,1.1\n",
    "loose_date_digits": "date,USD\n987-9,1.0\n987-010,1.1\n",
    "trailing_empty_lines": "date,USD\n2000-01,1.0\n2000-02,1.1\n\n\n",
    "trailing_whitespace_row": "date,USD\n2000-01,1.0\n2000-02,1.1\n \t \n",
    "nbsp_padded_date": "date,USD\n\u00a02000-01,1.0\n2000-02\u00a0,1.1\n",
    "x1c_padded_date": "date,USD\n2000-01\x1c,1.0\n\x1c2000-02,1.1\n",
    "trailing_comma_rows": "date,USD,GBP\n2000-01,1.0,2.0\n2000-02,1.1,2.1\n,,\n , ,\n\n",
    "leading_comma_row": "date,USD\n,\n2000-01,1.0\n2000-02,1.1\n",
    "inner_empty_row": "date,USD\n2000-01,1.0\n\n2000-02,1.1\n",
    "inner_whitespace_row": "date,USD\n2000-01,1.0\n \t\n2000-02,1.1\n",
}

_SAME_ERROR = {
    "field_count": "date,USD\n2000-01,1.0\n2000-02,1.1,1.2\n",
    "field_count_short": "date,USD,GBP\n2000-01,1.0,2.0\n2000-02,1.1\n",
    "bad_date": "date,USD\n2000-01,1.0\n2000/02,1.1\n",
    "empty_date": "date,USD\n2000-01,1.0\n ,1.1\n",
    "month_13": "date,USD\n2000-12,1.0\n2000-13,1.1\n",
    "month_0": "date,USD\n2000-00,1.0\n",
    "non_numeric": "date,USD,GBP\n2000-01,1.0,2.0\n2000-02,1.1,two\n",
    "first_error_in_file_order": "date,USD\n2000-01,x\n2000-13,1.0\n2000-03,1,2\n",
    "gap": "date,USD\n2000-01,1.0\n2000-02,1.1\n2000-04,1.2\n",
    "backwards": "date,USD\n2000-02,1.0\n2000-01,1.1\n",
    "gap_before_blank_rows": "date,USD\n2000-01,1.0\n2000-03,1.1\n\n,\n2000-04,1.2\n",
    "non_numeric_among_blank_rows": "date,USD,GBP\n\n2000-01,1.0,2.0\n,,\n2000-02,x,2.1\n",
    "non_numeric_before_trailing_comma_row": "date,USD\n2000-01,1.0\n2000-02,x\n,\n",
    "gap_before_trailing_comma_row": "date,USD\n2000-01,1.0\n2000-03,1.1\n,\n",
    "short_row_before_trailing_comma_row": "date,USD,GBP\n2000-01,1.0,2.0\n2000-02\n,,\n",
    "empty_date_without_padding": "date,USD\n2000-01,1.0\n,1.1\n",
    "empty_file": "",
    "header_only": "date,USD,GBP\n",
    "header_and_blank_rows": "date,USD\n\n,\n",
    "no_rate_columns": "date\n2000-01\n",
    "first_column_not_date": "month,USD\n2000-01,1.0\n",
    "blank_first_line": "\ndate,USD\n2000-01,1.0\n",
}


class TestLoadCsvMatchesReference:
    """The loader against the ``csv.reader`` loader it replaced."""

    @pytest.mark.parametrize("name", sorted(_SAME_SERIES))
    def test_same_series(self, tmp_path, name):
        text = _SAME_SERIES[name]
        path = tmp_path / "rates.csv"
        path.write_bytes((text(tmp_path) if callable(text) else text).encode())
        got = _outcome(load_csv, path)
        assert not isinstance(got, str), got
        assert got == _outcome(ReferenceCsv.load, path)

    @pytest.mark.parametrize("name", sorted(_SAME_ERROR))
    def test_same_error(self, tmp_path, name):
        path = tmp_path / "rates.csv"
        path.write_bytes(_SAME_ERROR[name].encode())
        got = _outcome(load_csv, path)
        assert isinstance(got, str), name
        assert got == _outcome(ReferenceCsv.load, path)

    @pytest.mark.parametrize("text, reference", [
        ("date,USD\n2000-01,1.0\n\n\n2000-02,1.1\n2000-04,1.2\n",
         "non-consecutive months at row 4: 2000-02 then 2000-04"),
        ("date,USD\n2000-01,nan\n", "rates for 'USD' must be finite and strictly positive"),
        ('date,USD\n2000-01,"1.0"\n', [("USD", 2000, 1, np.array([1.0]).tobytes())]),
        ("date,USD,USD\n2000-01,1.0,2.0\n", [("USD", 2000, 1, np.array([2.0]).tobytes())]),
        ("date,USD,\n2000-01,1.0,2.0\n", [("USD", 2000, 1, np.array([1.0]).tobytes()),
                                           ("", 2000, 1, np.array([2.0]).tobytes())]),
        ('date,"USD"\n2000-01,1.0\n', [("USD", 2000, 1, np.array([1.0]).tobytes())]),
        ("date,USD\n2000-0\u00b2,1.0\n", "invalid literal for int() with base 10: '0\u00b2'"),
        ("date,USD\n\u0662\u0660\u0660\u0660-01,1.0\n",
         [("USD", 2000, 1, np.array([1.0]).tobytes())]),
        ("date,USD\n1234567890-01,1.0\n", [("USD", 1234567890, 1, np.array([1.0]).tobytes())]),
    ])
    def test_changed_on_purpose(self, tmp_path, text, reference):
        """Each case the reference handles differently; the new outcome is
        pinned by the tests in ``TestLoadCsvRows``."""
        path = _write(tmp_path, text)
        assert _outcome(ReferenceCsv.load, path) == reference
        assert isinstance(_outcome(load_csv, path), str)


class TestBuildSupervised:
    def test_mp1_shape_names_and_targets(self):
        series = _two_series()
        ds = build_supervised(series, FeatureSpec("AAA", "mp1"))
        L = len(series["AAA"])
        assert ds.feature_names == ("month", "prev_AAA")
        assert ds.n_rows == L - 1
        np.testing.assert_array_equal(ds.features[:, 0], np.arange(1, L))
        np.testing.assert_array_equal(ds.features[:, 1], series["AAA"].values[:-1])
        np.testing.assert_array_equal(ds.targets, series["AAA"].values[1:])

    def test_mp5_includes_every_currency(self):
        series = _two_series()
        ds = build_supervised(series, FeatureSpec("BBB", "mp5"))
        assert ds.feature_names == ("month", "prev_AAA", "prev_BBB")
        np.testing.assert_array_equal(ds.features[:, 1], series["AAA"].values[:-1])
        np.testing.assert_array_equal(ds.targets, series["BBB"].values[1:])

    def test_provenance_identity(self):
        series = _two_series()
        ds = build_supervised(series, FeatureSpec("AAA", "mp1"))
        raw = series["AAA"].values
        np.testing.assert_array_equal(ds.targets, raw[ds.provenance + 1])

    def test_unknown_currency_and_recipe(self):
        series = _two_series()
        with pytest.raises(ValueError, match="unknown currency"):
            build_supervised(series, FeatureSpec("ZZZ", "mp1"))
        with pytest.raises(ValueError, match="recipe"):
            FeatureSpec("AAA", "mp7")

    def test_mismatched_lengths_rejected(self):
        series = {"A": RateSeries("A", 2000, 1, [1.0, 2.0]),
                  "B": RateSeries("B", 2000, 1, [1.0, 2.0, 3.0])}
        with pytest.raises(ValueError, match="lengths"):
            build_supervised(series, FeatureSpec("A", "mp5"))

    def test_needs_two_months(self):
        series = {"A": RateSeries("A", 2000, 1, [1.0])}
        with pytest.raises(ValueError, match="2 months"):
            build_supervised(series, FeatureSpec("A", "mp1"))


class TestSplit:
    def _dataset(self, n=243):
        rng = np.random.default_rng(0)
        return Dataset(("a",), rng.normal(size=(n, 1)), rng.normal(size=n),
                       provenance=np.arange(n))

    def test_seventy_thirty_counts(self):
        train, test = split(self._dataset(243), 0.7, 7)
        assert train.n_rows == 170  # round(0.7 * 243)
        assert test.n_rows == 73

    def test_partition_is_disjoint_and_complete(self):
        ds = self._dataset(100)
        train, test = split(ds, 0.7, 11)
        joined = np.concatenate([train.provenance, test.provenance])
        assert sorted(joined.tolist()) == list(range(100))
        assert set(train.provenance).isdisjoint(test.provenance)

    def test_sides_keep_original_order(self):
        train, test = split(self._dataset(50), 0.6, 3)
        assert np.all(np.diff(train.provenance) > 0)
        assert np.all(np.diff(test.provenance) > 0)

    def test_deterministic_and_seed_sensitive(self):
        ds = self._dataset(80)
        a1, _ = split(ds, 0.7, 5)
        a2, _ = split(ds, 0.7, 5)
        b1, _ = split(ds, 0.7, 6)
        np.testing.assert_array_equal(a1.provenance, a2.provenance)
        assert not np.array_equal(a1.provenance, b1.provenance)

    def test_fraction_bounds(self):
        ds = self._dataset(10)
        for bad in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(ValueError, match="train_fraction"):
                split(ds, bad, 1)

    @pytest.mark.parametrize("fraction, n_train", [(0.999, 243), (0.001, 0)],
                             ids=["no-test-rows", "no-training-rows"])
    def test_fraction_leaving_a_side_empty_rejected(self, fraction, n_train):
        message = (f"^train_fraction {fraction} of 243 rows leaves {n_train} training "
                   f"and {243 - n_train} test rows")
        with pytest.raises(ValueError, match=message.replace(".", r"\.")):
            split(self._dataset(243), fraction, 7)


class TestScaler:
    def _dataset(self):
        rng = np.random.default_rng(2)
        X = np.column_stack([rng.uniform(10, 20, 40), np.full(40, 3.0)])
        y = rng.uniform(100, 200, 40)
        return Dataset(("a", "const"), X, y)

    def test_train_columns_hit_unit_interval(self):
        ds = self._dataset()
        p = fit_scaler(ds)
        scaled = apply_scaler(ds, p)
        assert scaled.features[:, 0].min() == 0.0
        assert scaled.features[:, 0].max() == 1.0
        assert scaled.targets.min() == 0.0 and scaled.targets.max() == 1.0

    def test_degenerate_column_passes_through(self):
        ds = self._dataset()
        scaled = apply_scaler(ds, fit_scaler(ds))
        np.testing.assert_array_equal(scaled.features[:, 1], ds.features[:, 1])

    def test_test_rows_may_leave_unit_interval(self):
        ds = self._dataset()
        p = fit_scaler(ds)
        outside = scale_features(np.array([[25.0, 3.0]]), p)
        assert outside[0, 0] > 1.0

    def test_unscale_inverts_scale(self):
        ds = self._dataset()
        p = fit_scaler(ds)
        y = np.linspace(90, 210, 7)
        np.testing.assert_allclose(unscale_target(scale_target(y, p), p), y,
                                   rtol=0, atol=1e-10)

    @pytest.mark.parametrize("edit, match", [
        ({"feature_max": np.array([5.0, 2.0])}, "feature_max must be >= feature_min"),
        ({"target_max": 99.0}, "target_max must be >= target_min")],
        ids=["features", "target"])
    def test_inverted_range_rejected(self, edit, match):
        p = fit_scaler(self._dataset())
        with pytest.raises(ValueError, match=match):
            data.ScalerParams(**{**vars(p), **edit})


class TestRmse:
    def test_frozen_value(self):
        assert rmse([0.0, 0.0], [3.0, 4.0]) == 3.5355339059327378

    def test_zero_for_identical(self):
        assert rmse([1.5, 2.5], [1.5, 2.5]) == 0.0

    def test_validates_shapes(self):
        with pytest.raises(ValueError, match="mismatch"):
            rmse([1.0], [1.0, 2.0])
        with pytest.raises(ValueError, match="empty"):
            rmse([], [])
