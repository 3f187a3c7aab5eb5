"""Command-line interface: bench / fit / predict / synth."""

import numpy as np
import pytest

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

    def test_predict_missing_model_file(self, tmp_path, rates_csv, capsys):
        assert main(["predict", str(tmp_path / "nope.model"), str(rates_csv)]) == 1
        assert "nope.model" in capsys.readouterr().err


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


class TestParser:
    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit):
            main(["tune"])

    def test_no_subcommand(self):
        with pytest.raises(SystemExit):
            main([])
