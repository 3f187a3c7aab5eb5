"""Benchmark harness: experiment loop, emitters, configuration files."""

import re
import zlib
from pathlib import Path

import numpy as np
import pytest

from forexkit import bench, scg
from forexkit.bench import (MODELS, REFERENCE_RMSE, BenchError,
                            ExperimentConfig, cell_seed, emit_csv, emit_plots,
                            emit_table, load_config, run_bench, run_experiment)
from forexkit.data import (Dataset, FeatureSpec, apply_scaler, build_supervised,
                           fit_scaler, load_csv, rmse, split)
from forexkit.kinds import KINDS, CellError
from forexkit.synth import forex5_series, write_rates_csv


@pytest.fixture(scope="module")
def rates_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "rates.csv"
    write_rates_csv(path, forex5_series(seed=7))
    return path


@pytest.fixture(scope="module")
def small_report(rates_csv):
    cfg = ExperimentConfig(data_path=str(rates_csv), currencies=("JPY", "USD"),
                           models=("mars", "cart"))
    return run_experiment(cfg)


# (ExperimentConfig field, value, INI key) that the config must reject
_BAD_VALUES = [("mlp_epochs", 0, "[mlp] epochs"), ("mlp_epochs", -5, "[mlp] epochs"),
               ("mlp_hidden", (0, 4), "[mlp] hidden"), ("seed", -1, "[split] seed"),
               *((f"{m}_recipe", "mp7", f"[{m}] recipe") for m in MODELS),
               ("hybrid_encoding", "onehot", "[hybrid] encoding"),
               ("models", ("mars", "mars", "cart"), "[models] enabled"),
               ("currencies", ("GBP", "GBP"), "[data] currencies")]


class TestExperimentConfig:
    def test_defaults(self, rates_csv):
        cfg = ExperimentConfig(data_path=str(rates_csv))
        assert cfg.models == MODELS
        assert cfg.train_fraction == 0.7
        assert cfg.mlp_recipe == "mp5"
        assert cfg.recipe_for("mars") == "mp1"

    def test_fraction_bounds(self, rates_csv):
        with pytest.raises(ValueError, match="fraction"):
            ExperimentConfig(data_path=str(rates_csv), train_fraction=1.0)

    def test_unknown_model_rejected(self, rates_csv):
        with pytest.raises(ValueError, match="unknown models"):
            ExperimentConfig(data_path=str(rates_csv), models=("mars", "ridge"))

    def test_empty_models_rejected(self, rates_csv):
        with pytest.raises(ValueError, match="at least one"):
            ExperimentConfig(data_path=str(rates_csv), models=())

    @pytest.mark.parametrize("field, value, key", _BAD_VALUES,
                             ids=[f"{f}={v}" for f, v, _ in _BAD_VALUES])
    def test_bad_value_names_its_key(self, rates_csv, field, value, key):
        with pytest.raises(ValueError, match=re.escape(key)):
            ExperimentConfig(data_path=str(rates_csv), **{field: value})


class TestCellSeed:
    def test_distinct_per_cell(self):
        seeds = {tuple(cell_seed(7, c, m))
                 for c in ("JPY", "USD") for m in MODELS}
        assert len(seeds) == 10

    def test_value_is_seed_plus_crc(self):
        assert cell_seed(7, "JPY", "mlp") == [7, zlib.crc32(b"JPY/mlp")]


class TestRunExperiment:
    def test_cells_cover_grid(self, small_report):
        pairs = {(c.currency, c.model) for c in small_report.cells}
        assert pairs == {("JPY", "mars"), ("JPY", "cart"),
                         ("USD", "mars"), ("USD", "cart")}

    def test_rmse_recomputes_from_stored_sequences(self, small_report, rates_csv):
        series = load_csv(rates_csv)
        for cell in small_report.cells:
            ds = build_supervised(series, FeatureSpec(cell.currency, "mp1"))
            train, test = split(ds, 0.7, 7)
            scaler = fit_scaler(train)
            stest = apply_scaler(test, scaler)
            np.testing.assert_array_equal(small_report.actual[cell.currency],
                                          stest.targets)
            pred = small_report.predicted[(cell.currency, cell.model)]
            assert rmse(pred, stest.targets) == cell.test_rmse

    def test_months_are_one_step_ahead(self, small_report):
        months = small_report.months["JPY"]
        # 244 rates -> 243 supervised rows -> test starts after 170 train rows
        assert len(months) == 73
        assert months[0] >= 2
        assert list(months) == sorted(months)

    def test_deterministic_across_runs(self, rates_csv, small_report):
        cfg = ExperimentConfig(data_path=str(rates_csv), currencies=("JPY", "USD"),
                               models=("mars", "cart"))
        again = run_experiment(cfg)
        for a, b in zip(small_report.cells, again.cells):
            assert (a.currency, a.model, a.test_rmse, a.train_rmse) == \
                   (b.currency, b.model, b.test_rmse, b.train_rmse)

    def test_missing_currency_is_bench_error(self, rates_csv):
        cfg = ExperimentConfig(data_path=str(rates_csv), currencies=("EUR",))
        with pytest.raises(BenchError, match="EUR"):
            run_experiment(cfg)

    def test_cell_failure_names_currency_and_model(self, tmp_path):
        # Three months leave one training row, which MARS refuses only inside
        # the training cell; the wrapped error must say which cell died.
        path = tmp_path / "short.csv"
        path.write_text("date,JPY\n2000-01,1.0\n2000-02,1.1\n2000-03,1.2\n")
        cfg = ExperimentConfig(data_path=str(path), models=("mars",))
        with pytest.raises(BenchError, match="currency JPY, model mars: need at least 2 rows"):
            run_experiment(cfg)

    def test_empty_test_side_names_the_cell(self, rates_csv):
        cfg = ExperimentConfig(data_path=str(rates_csv), train_fraction=0.999)
        with pytest.raises(BenchError, match=r"^currency JPY, model mars: train_fraction "
                                             r"0\.999 of 243 rows leaves 243 training "
                                             r"and 0 test rows"):
            run_experiment(cfg)

    def test_error_curve_recorded_when_cart_runs(self, small_report):
        curve = small_report.error_curves["JPY"]
        assert curve[-1][0] == 1  # root-only entry present
        assert all(isinstance(n, int) and r >= 0.0 for n, r in curve)


class TestMlpStack:
    """run_experiment fits a run's mlp cells as one lockstep SCG stack; each
    dump must equal the cell's own fit.  300 epochs cover every rejected
    step of the seed-7 cells (NZD rejects at epochs 3, 8, 11, 79 and 255)."""

    EPOCHS = 300

    def _cfg(self, rates_csv, currencies):
        return ExperimentConfig(data_path=str(rates_csv), currencies=currencies,
                                models=("mlp",), mlp_epochs=self.EPOCHS)

    @pytest.mark.parametrize("currencies", [("GBP",), ("JPY", "USD", "GBP", "SGD", "NZD")],
                             ids=["one-currency", "five-currencies"])
    def test_dumps_equal_single_cell_fits(self, rates_csv, currencies):
        cfg = self._cfg(rates_csv, currencies)
        report = run_experiment(cfg)
        assert [(c.currency, c.model) for c in report.cells] == \
               [(code, "mlp") for code in currencies]
        series = load_csv(rates_csv)
        mlp = KINDS["mlp"]
        for code in currencies:
            _, strain, stest = bench.prepare_cell(cfg, series, code, "mlp")
            key = cell_seed(cfg.seed, code, "mlp")
            [(engine, _, _)] = mlp.fit_cells(cfg, [(strain, stest, key)])
            assert report.dumps[(code, "mlp")] == mlp.dump(engine)
            if code == "NZD":  # a rejected step keeps the error
                trace = scg.scg_train(scg.init_network(engine.layer_sizes, key), strain,
                                      self.EPOCHS)[1]
                assert sum(a == b for a, b in zip(trace, trace[1:])) == 5

    def test_divergence_names_its_currency(self, rates_csv, monkeypatch):
        real = scg.gradient
        calls = {"n": 0}

        def gradient(net, batch):
            calls["n"] += 1
            g = real(net, batch)
            if calls["n"] >= 40:
                g[2] = np.nan  # the third currency's network, GBP
            return g

        monkeypatch.setattr(scg, "gradient", gradient)
        with pytest.raises(BenchError, match=r"^currency GBP, model mlp: "
                                             r"gradient diverged at epoch \d+$"):
            run_experiment(self._cfg(rates_csv, ("JPY", "USD", "GBP", "SGD", "NZD")))


class TestAnfisStack:
    """run_experiment fits a run's anfis cells as one lockstep hybrid_train
    stack; every dump must equal the cell's own fit."""

    EPOCHS = 12

    def _cfg(self, rates_csv, out_dir="bench_out"):
        return ExperimentConfig(data_path=str(rates_csv), models=("anfis",),
                                anfis_cfg=bench.anfis.AnfisConfig(epochs=self.EPOCHS, rate=0.05),
                                out_dir=str(out_dir))

    def test_one_hybrid_train_call_per_run(self, rates_csv, monkeypatch):
        real, calls = bench.anfis.hybrid_train, []

        def hybrid_train(train, cfg):
            calls.append(train)
            return real(train, cfg)

        monkeypatch.setattr(bench.anfis, "hybrid_train", hybrid_train)
        report = run_experiment(self._cfg(rates_csv))
        assert len(report.cells) == 5
        assert len(calls) == 1 and len(calls[0]) == 5

    def test_dumps_and_rules_equal_single_cell_fits(self, rates_csv, tmp_path):
        cfg = self._cfg(rates_csv, tmp_path / "out")
        report, _ = run_bench(cfg)
        series = load_csv(rates_csv)
        kind = KINDS["anfis"]
        for code in series:
            _, strain, stest = bench.prepare_cell(cfg, series, code, "anfis")
            [(engine, extras, _)] = kind.fit_cells(
                cfg, [(strain, stest, cell_seed(cfg.seed, code, "anfis"))])
            assert (tmp_path / "out" / "models" / f"anfis_{code}.txt").read_text() == \
                kind.dump(engine)
            assert (tmp_path / "out" / f"anfis_rules_{code}.txt").read_text() == \
                extras["rule_dumps"]
            assert report.dumps[(code, "anfis")] == kind.dump(engine)

    @pytest.mark.parametrize("model", ["anfis", "mlp"])
    def test_non_finite_cell_names_its_currency(self, rates_csv, monkeypatch, model):
        # either stacked family checks every cell before its stack starts
        cfg = ExperimentConfig(data_path=str(rates_csv), models=(model,))
        series = load_csv(rates_csv)
        real = bench.prepare_cell

        def prepare_cell(cfg, series, code, model):
            scaler, strain, stest = real(cfg, series, code, model)
            if code == "SGD":
                X = strain.features.copy()
                X[5, 1] = np.nan
                strain = Dataset(strain.feature_names, X, strain.targets)
            return scaler, strain, stest

        cells = [(prepare_cell(cfg, series, code, model)[1], None, None) for code in series]
        with pytest.raises(CellError) as caught:
            KINDS[model].fit_cells(cfg, cells)
        assert caught.value.index == list(series).index("SGD") == 3
        assert str(caught.value).startswith("training row 5, feature ")

        monkeypatch.setattr(bench, "prepare_cell", prepare_cell)
        with pytest.raises(BenchError, match=rf"^currency SGD, model {model}: training row 5, "):
            run_experiment(cfg)

    def test_rank_deficient_count_equals_single_fits(self, monkeypatch):
        x = np.linspace(0.0, 1.0, 40)
        twins = np.repeat([[0.1, 0.2], [0.9, 0.4]], 20, axis=0)  # 2 inputs, 12 columns
        cells = [(Dataset(("a", "b"), X, y), None, None) for X, y in
                 [(np.column_stack([x, x ** 2]), np.sin(x)), (twins, np.arange(40.0)),
                  (np.column_stack([x, np.sin(5 * x)]), x)]]
        cfg = ExperimentConfig(data_path="unused.csv",
                               anfis_cfg=bench.anfis.AnfisConfig(mfs_per_input=2, epochs=3))
        real, counts = bench.anfis.lse_consequents, []

        def lse_consequents(model, train):
            result = real(model, train)
            counts.append(int(result.rank_deficient))  # as perfbench's probe reads it
            return result

        monkeypatch.setattr(bench.anfis, "lse_consequents", lse_consequents)
        kind = KINDS["anfis"]
        stacked = kind.fit_cells(cfg, cells)
        stacked_count, counts[:] = sum(counts), []
        for cell in cells:
            kind.fit_cells(cfg, [cell])
        assert stacked_count == sum(counts) == 4  # the twins row, at each of 4 solves
        assert [engine.lse_rank_deficient for engine, _, _ in stacked] == [False, True, False]


class TestEmitters:
    def test_table_contains_live_and_reference_blocks(self, small_report):
        text = emit_table(small_report)
        assert "test RMSE" in text
        assert 'reference block "paper-reported"' in text
        # reference block always shows the full original grid
        assert "0.0160" in text   # hybrid JPY
        assert "0.0210" in text   # mlp NZD
        for model in MODELS:
            assert f"\n{model:<8}" in text

    def test_reference_block_values(self):
        assert REFERENCE_RMSE["hybrid"]["JPY"] == 0.016
        assert REFERENCE_RMSE["mlp"]["NZD"] == 0.021
        assert set(REFERENCE_RMSE) == set(MODELS)
        for row in REFERENCE_RMSE.values():
            assert set(row) == {"JPY", "USD", "GBP", "SGD", "NZD"}

    def test_csv_schema(self, small_report):
        lines = emit_csv(small_report).strip().splitlines()
        assert lines[0] == "currency,model,test_rmse,train_rmse,train_seconds"
        assert len(lines) == 1 + 4
        first = lines[1].split(",")
        assert first[0] == "JPY" and first[1] == "mars"
        assert float(first[2]) == small_report.cell("JPY", "mars").test_rmse

    def test_empty_report_rejected(self):
        empty = bench.BenchReport(currencies=(), models=(), cells=())
        with pytest.raises(ValueError, match="empty"):
            emit_table(empty)
        with pytest.raises(ValueError, match="empty"):
            emit_csv(empty)

    def test_plots_one_per_currency_plus_error_curve(self, small_report, tmp_path):
        written = emit_plots(small_report, tmp_path)
        names = sorted(p.name for p in written)
        assert names == ["pred_JPY.svg", "pred_USD.svg", "relative_error.svg"]
        for p in written:
            body = p.read_text()
            assert body.startswith("<svg")
            assert "polyline" in body

    def test_plot_bytes_deterministic(self, small_report, tmp_path):
        a = emit_plots(small_report, tmp_path / "a")
        b = emit_plots(small_report, tmp_path / "b")
        for pa, pb in zip(a, b):
            assert pa.read_bytes() == pb.read_bytes()


class TestRunBench:
    def test_artifacts_written(self, rates_csv, tmp_path):
        cfg = ExperimentConfig(data_path=str(rates_csv), currencies=("GBP",),
                               models=("cart", "anfis"),
                               anfis_cfg=bench.anfis.AnfisConfig(epochs=2),
                               out_dir=str(tmp_path / "out"))
        report, written = run_bench(cfg)
        names = {p.name for p in written}
        assert {"table.txt", "report.csv", "pred_GBP.svg", "relative_error.svg",
                "cart_tree_GBP.txt", "anfis_rules_GBP.txt"} <= names
        assert (tmp_path / "out" / "models" / "cart_GBP.txt").exists()
        rules = (tmp_path / "out" / "anfis_rules_GBP.txt").read_text()
        assert len(rules.strip().splitlines()) == 16

    def test_cart_tree_file_is_the_cart_model_file(self, rates_csv, tmp_path):
        cfg = ExperimentConfig(data_path=str(rates_csv), currencies=("JPY", "GBP"),
                               models=("mars", "cart"), out_dir=str(tmp_path))
        _, written = run_bench(cfg)
        assert len(set(written)) == len(written)
        trees = [p.name for p in written if p.name.startswith("cart_tree_")]
        assert trees == ["cart_tree_JPY.txt", "cart_tree_GBP.txt"]
        for code in ("JPY", "GBP"):
            tree = (tmp_path / f"cart_tree_{code}.txt").read_bytes()
            assert tree.startswith(b"cart-tree v1\n")
            assert tree == (tmp_path / "models" / f"cart_{code}.txt").read_bytes()

    def test_two_runs_byte_identical_except_timings(self, rates_csv, tmp_path):
        outs = []
        for sub in ("r1", "r2"):
            cfg = ExperimentConfig(data_path=str(rates_csv), currencies=("SGD",),
                                   models=("mars", "cart"),
                                   out_dir=str(tmp_path / sub))
            run_bench(cfg)
            outs.append(tmp_path / sub)
        for name in ("table.txt", "pred_SGD.svg", "relative_error.svg",
                     "cart_tree_SGD.txt"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
        # report.csv matches apart from the wall-clock column
        strip = lambda text: [",".join(line.split(",")[:4])
                              for line in text.splitlines()]
        assert strip((outs[0] / "report.csv").read_text()) == \
               strip((outs[1] / "report.csv").read_text())


class TestLoadConfig:
    def _write(self, tmp_path, body):
        path = tmp_path / "exp.ini"
        path.write_text(body)
        return path

    def test_minimal_config(self, tmp_path, rates_csv):
        path = self._write(tmp_path, f"[data]\npath = {rates_csv}\n")
        cfg = load_config(path)
        assert cfg.data_path == str(rates_csv)
        assert cfg.models == MODELS
        assert cfg.train_fraction == 0.7

    def test_full_config(self, tmp_path, rates_csv):
        body = f"""[data]
path = {rates_csv}
currencies = JPY, USD

[split]
fraction = 0.8
seed = 3

[models]
enabled = mars cart

[mars]
recipe = mp5
max_basis_functions = 12

[cart]
min_node_size = 7

[mlp]
hidden = 10 5
epochs = 50

[anfis]
mfs_per_input = 3
rate = 0.005

[hybrid]
encoding = leaf_prediction

[output]
dir = somewhere
"""
        cfg = load_config(self._write(tmp_path, body))
        assert cfg.currencies == ("JPY", "USD")
        assert cfg.train_fraction == 0.8
        assert cfg.seed == 3
        assert cfg.models == ("mars", "cart")
        assert cfg.mars_recipe == "mp5"
        assert cfg.mars_cfg.max_basis_functions == 12
        assert cfg.cart_cfg.min_node_size == 7
        assert cfg.mlp_hidden == (10, 5)
        assert cfg.mlp_epochs == 50
        assert cfg.anfis_cfg.mfs_per_input == 3
        assert cfg.anfis_cfg.rate == 0.005
        assert cfg.hybrid_encoding == "leaf_prediction"
        assert cfg.out_dir == "somewhere"

    def test_byte_order_mark_accepted(self, tmp_path, rates_csv):
        path = tmp_path / "exp.ini"
        path.write_bytes(f"[data]\npath = {rates_csv}\n\n[split]\nseed = 3\n"
                         .encode("utf-8-sig"))
        cfg = load_config(path)
        assert cfg.data_path == str(rates_csv)
        assert cfg.seed == 3

    @pytest.mark.parametrize("section, key", [("mars", "gcv_penalty"),
                                              ("cart", "min_split_gain"),
                                              ("anfis", "rate")])
    def test_nan_value_rejected(self, tmp_path, rates_csv, section, key):
        path = self._write(tmp_path,
                           f"[data]\npath = {rates_csv}\n\n[{section}]\n{key} = nan\n")
        with pytest.raises(ValueError, match=key):
            load_config(path)

    @pytest.mark.parametrize("field, value, key", _BAD_VALUES,
                             ids=[f"{f}={v}" for f, v, _ in _BAD_VALUES])
    def test_bad_value_rejected_at_load(self, tmp_path, rates_csv, field, value, key):
        section, name = key[1:].split("] ")
        text = " ".join(map(str, value)) if isinstance(value, tuple) else value
        line = f"{name} = {text}\n"
        path = self._write(tmp_path, f"[data]\npath = {rates_csv}\n"
                           + (line if section == "data" else f"\n[{section}]\n{line}"))
        with pytest.raises(ValueError, match=re.escape(key)):
            load_config(path)

    # one bad value per section that can hold one ([output] dir takes any text)
    _NAMED = [("data", "currencies", "GBP GBP", "duplicate currency code 'GBP'"),
              ("data", "currencies", "", "at least one currency code must be given"),
              ("split", "fraction", "1.5", "must be in (0, 1)"),
              ("split", "seed", "x", "invalid literal for int() with base 10: 'x'"),
              ("models", "enabled", "mars ridge", "unknown models ['ridge']"),
              ("mars", "max_basis_functions", "0", "max_basis_functions must be >= 1"),
              ("mars", "gcv_penalty", "inf", "gcv_penalty must be finite and >= 0"),
              ("cart", "min_node_size", "0", "min_node_size must be >= 1"),
              ("mlp", "epochs", "0", "must be >= 1"),
              ("anfis", "epochs", "0", "epochs must be >= 1"),
              ("anfis", "epochs", "two", "invalid literal for int() with base 10: 'two'"),
              ("anfis", "rate", "inf", "rate must be finite and >= 0"),
              ("hybrid", "encoding", "onehot", "must be one of ")]

    @pytest.mark.parametrize("section, key, value, reason", _NAMED,
                             ids=[f"{s}.{k}={v}" for s, k, v, _ in _NAMED])
    def test_value_error_names_section_key_and_value(self, tmp_path, rates_csv,
                                                     section, key, value, reason):
        line = f"{key} = {value}\n"
        path = self._write(tmp_path, f"[data]\npath = {rates_csv}\n"
                           + (line if section == "data" else f"\n[{section}]\n{line}"))
        with pytest.raises(ValueError) as caught:
            load_config(path)
        message = str(caught.value)
        assert message.startswith(f"[{section}] {key} = {value}: ")
        assert reason in message

    def test_negative_max_depth_rejected(self, tmp_path, rates_csv):
        path = self._write(tmp_path,
                           f"[data]\npath = {rates_csv}\n\n[cart]\nmax_depth = -1\n")
        with pytest.raises(ValueError, match="max_depth"):
            load_config(path)

    def test_unknown_key_rejected(self, tmp_path, rates_csv):
        path = self._write(tmp_path, f"[data]\npath = {rates_csv}\nfmt = csv\n")
        with pytest.raises(ValueError, match="data.fmt"):
            load_config(path)

    def test_unknown_section_rejected(self, tmp_path, rates_csv):
        path = self._write(tmp_path,
                           f"[data]\npath = {rates_csv}\n\n[tuning]\nlr = 1\n")
        with pytest.raises(ValueError, match="tuning"):
            load_config(path)

    def test_missing_data_path_rejected(self, tmp_path):
        path = self._write(tmp_path, "[split]\nseed = 1\n")
        with pytest.raises(ValueError, match="data.path"):
            load_config(path)

    def test_mars_pruning_key_rejected(self, tmp_path, rates_csv):
        # mars always prunes by GCV, so the key has no value left to choose
        path = self._write(tmp_path, f"[data]\npath = {rates_csv}\n\n"
                                     "[mars]\npruning = gcv\n")
        with pytest.raises(ValueError, match="unknown key mars.pruning"):
            load_config(path)

    def test_readme_config_block_loads(self, tmp_path):
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        block = re.search(r"^```ini\n(.*?)^```", readme, re.S | re.M).group(1)
        path = self._write(tmp_path, block)
        assert load_config(path) == ExperimentConfig(data_path="rates.csv",
                                                     currencies=("JPY", "USD", "GBP"))

    def test_missing_file_names_path(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="nope.ini"):
            load_config(tmp_path / "nope.ini")
