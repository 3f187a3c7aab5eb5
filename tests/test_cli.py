"""Command-line interface: bench / fit / predict / serve / synth."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import forexkit
from forexkit import data
from forexkit.cli import main
from forexkit.data import load_csv
from forexkit.kinds import KINDS
from forexkit.predictor import load_predictor
from forexkit.synth import forex5_series, write_rates_csv


@pytest.fixture(scope="module")
def rates_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "rates.csv"
    write_rates_csv(path, forex5_series(seed=7))
    return path


def _config(tmp_path, rates_csv, extra=""):
    path = tmp_path / "exp.ini"
    path.write_text(f"[data]\npath = {rates_csv}\n{extra}")
    return path


class TestSynth:
    def test_step7_csv(self, tmp_path, capsys):
        out = tmp_path / "step.csv"
        assert main(["synth", "step7", str(out)]) == 0
        assert "wrote" in capsys.readouterr().out
        lines = out.read_text().splitlines()
        assert lines[0] == "date,STEP"
        assert len(lines) == 1 + 244

    def test_forex5_csv_seed(self, tmp_path):
        out = tmp_path / "fx.csv"
        assert main(["synth", "forex5", str(out), "--seed", "3"]) == 0
        loaded = load_csv(out)
        expect = forex5_series(seed=3)
        np.testing.assert_array_equal(loaded["JPY"].values, expect["JPY"].values)

    def test_negative_seed_is_one_error_line(self, tmp_path, capsys):
        out = tmp_path / "fx.csv"
        assert main(["synth", "forex5", str(out), "--seed", "-1"]) == 1
        assert capsys.readouterr().err.splitlines() == ["error: seed must be >= 0, got -1"]
        assert not out.exists()

    def test_unknown_recipe_exits_nonzero(self, tmp_path, capsys):
        with pytest.raises(SystemExit):
            main(["synth", "step8", str(tmp_path / "x.csv")])


class TestBench:
    def test_small_run_prints_table_and_writes_files(self, tmp_path, rates_csv,
                                                     capsys):
        body = (f"[data]\npath = {rates_csv}\ncurrencies = GBP\n\n"
                f"[models]\nenabled = mars cart\n\n"
                f"[output]\ndir = {tmp_path / 'out'}\n")
        cfg = tmp_path / "exp.ini"
        cfg.write_text(body)
        assert main(["bench", str(cfg)]) == 0
        out = capsys.readouterr().out
        assert "test RMSE" in out
        assert 'reference block "paper-reported"' in out
        assert (tmp_path / "out" / "table.txt").exists()
        assert (tmp_path / "out" / "pred_GBP.svg").exists()

    def test_missing_config_exits_nonzero_naming_path(self, tmp_path, capsys):
        code = main(["bench", str(tmp_path / "missing.ini")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "missing.ini" in err

    def test_bad_config_key_reported(self, tmp_path, rates_csv, capsys):
        cfg = _config(tmp_path, rates_csv, "turbo = yes\n")
        assert main(["bench", str(cfg)]) == 1
        assert "data.turbo" in capsys.readouterr().err

    def test_empty_output_dir_writes_nothing(self, tmp_path, rates_csv, capsys,
                                             monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = _config(tmp_path, rates_csv, "[models]\nenabled = cart\n[output]\ndir =\n")
        assert main(["bench", str(cfg)]) == 1
        assert capsys.readouterr().err == "error: [output] dir = : must name a directory\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["exp.ini"]


class TestFitPredict:
    def test_fit_writes_named_predictor(self, tmp_path, rates_csv, capsys,
                                        monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = _config(tmp_path, rates_csv)
        assert main(["fit", "mars", str(cfg)]) == 0
        out = tmp_path / "mars_JPY.model"
        assert out.exists()
        fitted = load_predictor(out.read_text())
        assert fitted.model_kind == "mars"
        assert fitted.currency == "JPY"

    def test_fit_currency_and_output_flags(self, tmp_path, rates_csv):
        cfg = _config(tmp_path, rates_csv)
        out = tmp_path / "tree.model"
        assert main(["fit", "cart", str(cfg), "--currency", "SGD",
                     "-o", str(out)]) == 0
        fitted = load_predictor(out.read_text())
        assert (fitted.model_kind, fitted.currency) == ("cart", "SGD")

    def test_fit_unknown_currency(self, tmp_path, rates_csv, capsys):
        cfg = _config(tmp_path, rates_csv)
        assert main(["fit", "mars", str(cfg), "--currency", "EUR"]) == 1
        assert "EUR" in capsys.readouterr().err

    def test_fit_empty_currency_is_unknown(self, tmp_path, rates_csv, capsys,
                                           monkeypatch):
        """Only an omitted flag means the first configured currency."""
        monkeypatch.chdir(tmp_path)
        cfg = _config(tmp_path, rates_csv, "currencies = JPY\n")
        assert main(["fit", "mars", str(cfg), "--currency", ""]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert "unknown currency ''" in err[0]
        assert list(tmp_path.glob("*.model")) == []

    def test_predict_emits_month_per_supervised_row(self, tmp_path, rates_csv,
                                                    capsys):
        cfg = _config(tmp_path, rates_csv)
        model_file = tmp_path / "m.model"
        main(["fit", "mars", str(cfg), "-o", str(model_file)])
        capsys.readouterr()
        assert main(["predict", str(model_file), str(rates_csv)]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 243  # one forecast per supervised row
        first_month, first_value = lines[0].split(",")
        assert first_month == "1981-02"
        float(first_value)  # parses as a number
        assert lines[-1].split(",")[0] == "2001-04"

    def test_fit_engine_dump_equals_bench_dump(self, tmp_path, rates_csv):
        out = tmp_path / "out"
        cfg = _config(tmp_path, rates_csv,
                      f"currencies = GBP\n[mlp]\nepochs = 20\n[anfis]\nepochs = 2\n"
                      f"[output]\ndir = {out}\n")
        assert main(["bench", str(cfg)]) == 0
        for kind in KINDS:
            saved = tmp_path / f"{kind}.model"
            assert main(["fit", kind, str(cfg), "-o", str(saved)]) == 0
            engine_dump = saved.read_text().split("[model]\n", 1)[1]
            assert engine_dump == (out / "models" / f"{kind}_GBP.txt").read_text(), kind

    def test_predict_truncated_predictor_names_line(self, tmp_path, rates_csv,
                                                    capsys):
        cfg = _config(tmp_path, rates_csv)
        model_file = tmp_path / "m.model"
        main(["fit", "cart", str(cfg), "-o", str(model_file)])
        lines = model_file.read_text().splitlines()
        model_file.write_text("\n".join(lines[:-3]))
        capsys.readouterr()
        assert main(["predict", str(model_file), str(rates_csv)]) == 1
        assert capsys.readouterr().err.startswith(f"error: line {len(lines) - 2}: ")

    def test_predict_non_utf8_rates_names_line(self, tmp_path, rates_csv, capsys):
        cfg = _config(tmp_path, rates_csv)
        model_file = tmp_path / "m.model"
        assert main(["fit", "mars", str(cfg), "-o", str(model_file)]) == 0
        lines = rates_csv.read_bytes().split(b"\n")
        lines[4] = b"\xff" + lines[4][1:]
        bad = tmp_path / "bad.csv"
        bad.write_bytes(b"\n".join(lines))
        capsys.readouterr()
        assert main(["predict", str(model_file), str(bad)]) == 1
        assert capsys.readouterr().err == "error: line 5: not UTF-8 (byte 0xff)\n"
        assert main(["predict", str(model_file), str(rates_csv)]) == 0

    @pytest.mark.parametrize("ending", [b"\n", b"\r\n", b"\r"], ids=["lf", "crlf", "cr"])
    def test_predict_non_utf8_model_names_line(self, tmp_path, rates_csv, capsys,
                                               monkeypatch, ending):
        """A predictor file is UTF-8, and a bad byte names its line as in a CSV."""
        cfg = _config(tmp_path, rates_csv)
        model_file = tmp_path / "m.model"
        assert main(["fit", "mars", str(cfg), "-o", str(model_file)]) == 0
        lines = model_file.read_bytes().split(b"\n")
        assert lines[4].startswith(b"feature_min ")
        lines[4] = b"\xff" + lines[4][1:]
        bad = tmp_path / "bad.model"
        bad.write_bytes(ending.join(lines))
        capsys.readouterr()
        assert main(["predict", str(bad), str(rates_csv)]) == 1
        assert capsys.readouterr().err == "error: line 5: not UTF-8 (byte 0xff)\n"
        monkeypatch.setattr(sys, "stdin", [f"{bad}\n"])
        assert main(["serve", str(rates_csv)]) == 1
        assert capsys.readouterr().err == f"error: {bad}: line 5: not UTF-8 (byte 0xff)\n"

    @pytest.mark.parametrize("ending", [b"\r\n", b"\r"], ids=["crlf", "cr"])
    def test_predict_reads_any_line_ending_in_a_model_file(self, tmp_path, rates_csv,
                                                           capsys, ending):
        cfg = _config(tmp_path, rates_csv)
        model_file = tmp_path / "m.model"
        assert main(["fit", "cart", str(cfg), "-o", str(model_file)]) == 0
        other = tmp_path / "other.model"
        other.write_bytes(model_file.read_bytes().replace(b"\n", ending))
        capsys.readouterr()
        assert main(["predict", str(model_file), str(rates_csv)]) == 0
        expected = capsys.readouterr().out
        assert main(["predict", str(other), str(rates_csv)]) == 0
        assert capsys.readouterr().out == expected

    def test_model_file_is_utf8_under_an_ascii_locale(self, tmp_path):
        """fit -o writes and predict reads a predictor file as UTF-8 whatever
        the locale: a currency code outside ASCII round-trips."""
        gbp = forex5_series(seed=7)["GBP"]
        csv = tmp_path / "rates.csv"
        write_rates_csv(csv, {"ÉUR": data.RateSeries("ÉUR", gbp.start_year,
                                                      gbp.start_month, gbp.values)})
        cfg = _config(tmp_path, csv)
        model_file = tmp_path / "m.model"
        env = {**os.environ, "LC_ALL": "C", "PYTHONUTF8": "0",
               "PYTHONPATH": str(Path(forexkit.__file__).parents[1])}
        outputs = []
        for args in (["fit", "mars", str(cfg), "-o", str(model_file)],
                     ["predict", str(model_file), str(csv)]):
            done = subprocess.run([sys.executable, "-m", "forexkit", *args], env=env,
                                  capture_output=True, timeout=120)
            assert (done.returncode, done.stderr) == (0, b""), args
            outputs.append(done.stdout)
        assert "\ncurrency ÉUR\n".encode() in model_file.read_bytes()
        assert len(outputs[1].splitlines()) == 243

    def test_bench_names_an_artifact_the_locale_cannot_encode(self, tmp_path):
        """Under an ASCII locale, bench stops at the first artifact whose name
        holds a currency code outside ASCII, with one error line naming it."""
        gbp = forex5_series(seed=7)["GBP"]
        csv = tmp_path / "rates.csv"
        write_rates_csv(csv, {"ÉUR": data.RateSeries("ÉUR", gbp.start_year,
                                                      gbp.start_month, gbp.values)})
        cfg = _config(tmp_path, csv, f"[models]\nenabled = mars\n"
                                     f"[output]\ndir = {tmp_path / 'out'}\n")
        env = {**os.environ, "LC_ALL": "C", "PYTHONUTF8": "0",
               "PYTHONPATH": str(Path(forexkit.__file__).parents[1])}
        done = subprocess.run([sys.executable, "-m", "forexkit", "bench", str(cfg)],
                              env=env, capture_output=True, timeout=120)
        assert done.returncode == 1
        [line] = done.stderr.splitlines()
        assert line == (f"error: cannot name artifact {tmp_path / 'out'}/pred_\\xc9UR.svg "
                        f"in the file system's encoding (ascii)").encode()

    def test_predict_missing_model_file(self, tmp_path, rates_csv, capsys):
        assert main(["predict", str(tmp_path / "nope.model"), str(rates_csv)]) == 1
        assert "nope.model" in capsys.readouterr().err

    def test_predict_empty_model_file_argument(self, rates_csv, capsys):
        assert main(["predict", "", str(rates_csv)]) == 1
        assert capsys.readouterr().err == "error: no predictor file named\n"

    def test_predict_empty_rates_file_argument(self, tmp_path, rates_csv, capsys):
        model_file = tmp_path / "m.model"
        cfg = _config(tmp_path, rates_csv)
        assert main(["fit", "mars", str(cfg), "-o", str(model_file)]) == 0
        capsys.readouterr()
        assert main(["predict", str(model_file), ""]) == 1
        assert capsys.readouterr().err == "error: no rates file named\n"

    def test_fit_empty_output_is_one_error_line(self, tmp_path, rates_csv, capsys,
                                                monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = _config(tmp_path, rates_csv)
        assert main(["fit", "mars", str(cfg), "-o", ""]) == 1
        assert capsys.readouterr().err == (
            "error: -o/--output is empty: it must name a predictor file\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["exp.ini"]


def test_fit_failure_names_the_cell(tmp_path, rates_csv, capsys):
    cfg = _config(tmp_path, rates_csv, "[split]\nfraction = 0.999\n")
    assert main(["fit", "mars", str(cfg)]) == 1
    assert capsys.readouterr().err == (
        "error: currency JPY, model mars: train_fraction 0.999 of 243 rows leaves 243 "
        "training and 0 test rows; each side needs at least one\n")


@pytest.mark.filterwarnings("always::RuntimeWarning")
def test_fit_overflowing_premise_step_is_one_error_line(tmp_path, rates_csv, capsys,
                                                        recwarn):
    # numpy's overflow warnings would reach stderr ahead of the error line
    cfg = _config(tmp_path, rates_csv, "[anfis]\nrate = 1e308\n")
    assert main(["fit", "anfis", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("error: currency JPY, model anfis: no rule fires for input ")
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


class TestServe:
    @pytest.fixture
    def models(self, tmp_path, rates_csv):
        cfg = _config(tmp_path, rates_csv, "currencies = GBP\n")
        paths = []
        for kind in ("mars", "cart"):
            paths.append(tmp_path / f"{kind}.model")
            assert main(["fit", kind, str(cfg), "-o", str(paths[-1])]) == 0
        return paths

    def _predict(self, capsys, model_file, csv) -> str:
        capsys.readouterr()
        assert main(["predict", str(model_file), str(csv)]) == 0
        return capsys.readouterr().out

    @pytest.mark.parametrize("ending", ["\n", "\r\n"], ids=["lf", "crlf"])
    def test_each_request_answers_as_predict(self, tmp_path, rates_csv, models,
                                             capsys, monkeypatch, ending):
        expected = "".join(self._predict(capsys, m, rates_csv) + "\n"
                           for m in models + models)
        monkeypatch.setattr(sys, "stdin", [f"{m}{ending}" for m in models + models])
        assert main(["serve", str(rates_csv)]) == 0
        out = capsys.readouterr()
        assert (out.out, out.err) == (expected, "")

    def test_unchanged_file_is_parsed_once(self, rates_csv, models, capsys,
                                           monkeypatch):
        calls = []
        bulk = data._bulk
        monkeypatch.setattr(data, "_last", None)
        monkeypatch.setattr(data, "_bulk", lambda *a: calls.append(1) or bulk(*a))
        monkeypatch.setattr(sys, "stdin", [f"{models[0]}\n"] * 3)
        assert main(["serve", str(rates_csv)]) == 0
        assert len(calls) == 1

    def test_rewritten_file_is_seen(self, tmp_path, rates_csv, models, capsys,
                                    monkeypatch):
        lines = rates_csv.read_text().splitlines(keepends=True)
        shorter = tmp_path / "shorter.csv"
        shorter.write_text("".join(lines[:-1]))
        expected = (self._predict(capsys, models[0], rates_csv) + "\n"
                    + self._predict(capsys, models[0], shorter) + "\n")
        csv = tmp_path / "rates.csv"
        csv.write_text("".join(lines))

        def requests():
            yield f"{models[0]}\n"
            csv.write_text("".join(lines[:-1]))
            yield f"{models[0]}\n"

        monkeypatch.setattr(sys, "stdin", requests())
        assert main(["serve", str(csv)]) == 0
        assert capsys.readouterr().out == expected

    def test_failed_request_answers_empty_and_serving_goes_on(
            self, tmp_path, rates_csv, models, capsys, monkeypatch):
        expected = self._predict(capsys, models[0], rates_csv)
        missing = tmp_path / "nope.model"
        monkeypatch.setattr(sys, "stdin", [f"{missing}\n", f"{models[0]}\n"])
        assert main(["serve", str(rates_csv)]) == 1
        out = capsys.readouterr()
        assert out.out == "\n" + expected + "\n"
        assert out.err.count("\n") == 1
        assert out.err.startswith(f"error: {missing}: ")

    def test_blank_request_is_named_and_serving_goes_on(
            self, rates_csv, models, capsys, monkeypatch):
        expected = self._predict(capsys, models[0], rates_csv)
        monkeypatch.setattr(sys, "stdin", ["\n", f"{models[0]}\n"])
        assert main(["serve", str(rates_csv)]) == 1
        out = capsys.readouterr()
        assert out.out == "\n" + expected + "\n"
        assert out.err == "error: empty request: no predictor file named\n"


class TestParser:
    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit):
            main(["tune"])

    def test_no_subcommand(self):
        with pytest.raises(SystemExit):
            main([])
