"""Synthetic data recipes and the SVG line-chart writer."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import forexkit
from forexkit.charts import PALETTE, _nice_ticks, line_chart
from forexkit.data import load_csv
from forexkit.synth import (FOREX5_CODES, STEP7_LEVELS, STEP7_MONTHS,
                            forex5_series, make_recipe, step7_series,
                            write_rates_csv)
from oracles import ReferenceSynth


class TestStep7:
    def test_shape_and_levels(self):
        s = step7_series()
        assert len(s) == STEP7_MONTHS
        values = np.unique(s.values)
        np.testing.assert_array_equal(values, STEP7_LEVELS)

    def test_plateaus_are_contiguous_and_increasing(self):
        s = step7_series()
        diffs = np.diff(s.values)
        assert np.all(diffs >= 0)
        assert np.count_nonzero(diffs) == 6  # exactly six level changes


class TestForex5:
    def test_codes_and_lengths(self):
        series = forex5_series(seed=7)
        assert tuple(series) == FOREX5_CODES
        assert all(len(s) == STEP7_MONTHS for s in series.values())
        assert all(np.all(s.values > 0) for s in series.values())

    def test_values_are_rounded_to_four_decimals(self):
        for s in forex5_series(seed=7).values():
            np.testing.assert_array_equal(s.values, np.round(s.values, 4))

    def test_deterministic_per_seed(self):
        a = forex5_series(seed=7)
        b = forex5_series(seed=7)
        c = forex5_series(seed=8)
        assert all(np.array_equal(a[k].values, b[k].values) for k in a)
        assert any(not np.array_equal(a[k].values, c[k].values) for k in a)

    def test_streams_independent_of_other_codes(self):
        # JPY draws from its own (seed, code) stream, so its path cannot
        # depend on which other currencies were generated alongside it.
        full = forex5_series(seed=7)["JPY"]
        again = forex5_series(seed=7)["JPY"]
        np.testing.assert_array_equal(full.values, again.values)


    @pytest.mark.parametrize("months", [0, -3])
    def test_months_below_one_rejected(self, months):
        with pytest.raises(ValueError) as err:
            forex5_series(seed=7, months=months)
        assert str(err.value) == f"months must be >= 1, got {months}"


class TestMakeRecipe:
    def test_step7_recipe(self):
        series = make_recipe("step7")
        assert list(series) == ["STEP"]

    def test_forex5_recipe(self):
        series = make_recipe("forex5", seed=9)
        assert tuple(series) == FOREX5_CODES

    def test_unknown_recipe(self):
        with pytest.raises(ValueError, match="recipe"):
            make_recipe("step8")


class TestWriteRatesCsv:
    def test_round_trip_is_exact(self, tmp_path):
        path = tmp_path / "rates.csv"
        series = forex5_series(seed=7)
        write_rates_csv(path, series)
        loaded = load_csv(path)
        assert tuple(loaded) == FOREX5_CODES
        for code in FOREX5_CODES:
            np.testing.assert_array_equal(loaded[code].values, series[code].values)
            assert loaded[code].start_year == series[code].start_year
            assert loaded[code].start_month == series[code].start_month

    def test_header_and_date_format(self, tmp_path):
        path = tmp_path / "rates.csv"
        write_rates_csv(path, forex5_series(seed=7))
        lines = path.read_text().splitlines()
        assert lines[0] == "date,JPY,USD,GBP,SGD,NZD"
        assert lines[1].startswith("1981-01,")
        assert lines[13].startswith("1982-01,")  # year rollover

    @pytest.mark.parametrize("months", [1, 2, 13, 244, 976, 2440])
    @pytest.mark.parametrize("seed", [0, 1, 7, 123])
    def test_bytes_equal_the_reference(self, tmp_path, seed, months):
        """The float-based generator and writer keep every byte of the
        numpy-scalar ones."""
        ours, ref = tmp_path / "ours.csv", tmp_path / "ref.csv"
        write_rates_csv(ours, forex5_series(seed, months=months))
        ReferenceSynth.write_rates_csv(ref, ReferenceSynth.forex5_series(seed, months))
        assert ours.read_bytes() == ref.read_bytes()

    def test_step7_bytes_equal_the_reference(self, tmp_path):
        ours, ref = tmp_path / "ours.csv", tmp_path / "ref.csv"
        write_rates_csv(ours, make_recipe("step7"))
        ReferenceSynth.write_rates_csv(ref, make_recipe("step7"))
        assert ours.read_bytes() == ref.read_bytes()

    def test_utf8_under_an_ascii_locale(self, tmp_path):
        """A code that load_csv accepts is written as UTF-8 whatever the
        locale's encoding."""
        path = tmp_path / "rates.csv"
        script = ("import sys\n"  # ASCII only: the locale cannot decode an argument
                  "from forexkit.data import RateSeries\n"
                  "from forexkit.synth import write_rates_csv\n"
                  "code = '\\u20acUR'\n"
                  "write_rates_csv(sys.argv[1], {code: RateSeries(code, 1999, 1, [1.1, 1.2])})\n")
        env = {**os.environ, "LC_ALL": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0",
               "PYTHONPATH": str(Path(forexkit.__file__).parents[1])}
        done = subprocess.run([sys.executable, "-c", script, str(path)], env=env,
                              capture_output=True, timeout=120)
        assert (done.returncode, done.stderr) == (0, b"")
        assert path.read_bytes() == "date,€UR\n1999-01,1.1000\n1999-02,1.2000\n".encode()
        assert list(load_csv(path)) == ["€UR"]

    def test_mismatched_series_rejected(self, tmp_path):
        from forexkit.data import RateSeries
        short = RateSeries("SHORT", 1981, 1, np.ones(10))
        with pytest.raises(ValueError, match="share"):
            write_rates_csv(tmp_path / "x.csv", {"JPY": forex5_series(seed=7)["JPY"],
                                                 "SHORT": short})

    def test_empty_map_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="no series"):
            write_rates_csv(tmp_path / "x.csv", {})


class TestLineChart:
    def _series(self):
        xs = list(range(10))
        ys = [np.sin(0.5 * x) for x in xs]
        return [("sin", xs, ys), ("cos", xs, [np.cos(0.5 * x) for x in xs])]

    def test_svg_structure(self):
        svg = line_chart("demo", "month", "rate", self._series())
        assert svg.startswith("<svg")
        assert svg.rstrip().endswith("</svg>")
        assert svg.count("<polyline") >= 2
        assert "demo" in svg and "month" in svg and "rate" in svg
        assert PALETTE[0] in svg and PALETTE[1] in svg

    def test_deterministic(self):
        a = line_chart("t", "x", "y", self._series())
        b = line_chart("t", "x", "y", self._series())
        assert a == b

    def test_identical_series_coincide(self):
        xs = list(range(8))
        ys = [float(x) ** 1.5 for x in xs]
        svg = line_chart("t", "x", "y", [("a", xs, ys), ("b", xs, ys)])
        import re
        points = re.findall(r'points="([^"]+)"', svg)
        assert len(points) >= 2
        assert points[-1] == points[-2]

    def test_constant_series_does_not_crash(self):
        svg = line_chart("t", "x", "y", [("flat", [0, 1, 2], [1.0, 1.0, 1.0])])
        assert "<polyline" in svg

    def test_labels_are_escaped(self):
        svg = line_chart("a<b", "x&y", "y", [("s<1>", [0, 1], [0.0, 1.0])])
        assert "a&lt;b" in svg
        assert "x&amp;y" in svg
        assert "s&lt;1&gt;" in svg

    def test_empty_series_rejected(self):
        with pytest.raises(ValueError):
            line_chart("t", "x", "y", [])

    def test_ticks_end_where_a_step_cannot_move_them(self):
        """Near 1e16 a tick step of 1 is half an ulp, so adding it
        leaves the tick where it is; the ticks end there."""
        assert _nice_ticks(1e16, 1e16 + 4) == [1e16]
        svg = line_chart("t", "x", "y", [("a", [1e16, 1e16 + 4], [1e16, 1e16 + 4])])
        assert svg.count(">1e+16<") == 2  # one tick label per axis

    _MAX = sys.float_info.max
    # (xs, ys) whose span underflows, overflows, or is constant far from 0
    _EXTREME = {"ys-subnormal-span": ([0.0, 1.0], [0.0, 5e-324]),
                "ys-overflowing-span": ([0.0, 1.0], [-1e308, 1e308]),
                "xs-subnormal-span": ([0.0, 5e-324], [0.0, 1.0]),
                "xs-overflowing-span": ([-1e308, 1e308], [0.0, 1.0]),
                "xs-constant-at-1e17": ([1e17, 1e17], [0.0, 1.0]),
                "every-double": ([-_MAX, _MAX], [_MAX, -_MAX])}

    @pytest.mark.parametrize("xs, ys", _EXTREME.values(), ids=_EXTREME.keys())
    def test_extreme_finite_ranges_render(self, xs, ys):
        svg = line_chart("t", "x", "y", [("a", xs, ys)])
        assert "nan" not in svg and "inf" not in svg
        assert 'text-anchor="middle" font-family="sans-serif" font-size="11">' in svg
        assert 'text-anchor="end" dy="4" font-family="sans-serif" font-size="11">' in svg

    @pytest.mark.parametrize("ys", [[0.0, float("nan"), 1.0], [0.0, 1.0, float("inf")]],
                             ids=["nan-inside", "inf-at-end"])
    def test_non_finite_value_rejected(self, ys):
        with pytest.raises(ValueError, match="chart values must be finite"):
            line_chart("t", "x", "y", [("a", [0.0, 1.0, 2.0], ys)])
