"""Takagi-Sugeno fuzzy system: membership grid, LSE, premise descent."""

import numpy as np
import pytest

from forexkit import anfis
from forexkit.anfis import (AnfisConfig, AnfisModel, NoRuleFires, dump_model, dump_rules,
                            hybrid_train, init_model, load_model, lse_consequents,
                            premise_gradient, premise_step)
from forexkit.bench import ExperimentConfig, prepare_cell
from forexkit.data import Batches, Dataset, FeatureSpec, build_supervised, load_csv, scale_features
from forexkit.synth import forex5_series, write_rates_csv

from oracles import (ReferenceAnfis, central_difference_gradient, normal_equations,
                     stack_of_one, with_consequents)


def _dataset(X, y, names=None):
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        X = X[:, None]
    names = tuple(names or (f"x{i}" for i in range(X.shape[1])))
    return Dataset(names, X, np.asarray(y, dtype=float))


def _grid_problem(n=120, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.uniform(0, 1, size=(n, 2))
    y = 1.5 * X[:, 0] - 0.7 * X[:, 1] + 0.3
    return Dataset(("a", "b"), X, y)


def _stepped(model, train, rate):
    """model after one premise step at rate on train, as a stack of one."""
    stack, batch = stack_of_one(model, train)
    premise_step(stack, batch, [rate])
    [stepped] = stack.models()
    return stepped


class TestConfig:
    def test_defaults(self):
        cfg = AnfisConfig()
        assert cfg.mfs_per_input == 4
        assert cfg.consequent == "linear"

    def test_validation(self):
        with pytest.raises(ValueError):
            AnfisConfig(mfs_per_input=1)
        with pytest.raises(ValueError):
            AnfisConfig(epochs=0)
        with pytest.raises(ValueError):
            AnfisConfig(rate=-0.1)
        with pytest.raises(ValueError, match="rate must be finite"):
            AnfisConfig(rate=float("inf"))
        with pytest.raises(ValueError):
            AnfisConfig(consequent="quadratic")

    def test_nan_rate_rejected(self):
        with pytest.raises(ValueError, match="rate"):
            AnfisConfig(rate=float("nan"))

    def test_zero_rate_is_allowed(self):
        assert AnfisConfig(rate=0.0).rate == 0.0


class TestRuleGrid:
    def test_two_inputs_four_mfs_is_sixteen_rules(self):
        ds = _grid_problem()
        model = init_model(ds, AnfisConfig(mfs_per_input=4))
        assert model.n_rules == 16
        grid = model.rule_grid()
        assert grid.shape == (16, 2)
        # first input varies slowest, lexicographic order
        assert grid[0].tolist() == [0, 0]
        assert grid[1].tolist() == [0, 1]
        assert grid[4].tolist() == [1, 0]
        assert len({tuple(r) for r in grid.tolist()}) == 16

    def test_init_centers_span_train_range(self):
        ds = _dataset(np.array([[0.0], [2.0], [4.0]]), np.zeros(3))
        model = init_model(ds, AnfisConfig(mfs_per_input=3))
        np.testing.assert_allclose(model.centers[0], [0.0, 2.0, 4.0])
        spacing = 2.0
        np.testing.assert_allclose(model.widths[0],
                                   spacing / np.sqrt(2 * np.log(2)))


class TestFiringStrengths:
    def _model(self):
        ds = _dataset(np.array([[0.0], [1.0]]), np.zeros(2))
        return init_model(ds, AnfisConfig(mfs_per_input=2))

    def test_normalized_sums_to_one(self):
        norm = anfis._normalized_batch(self._model(), np.array([[0.3]]))
        assert norm.sum() == pytest.approx(1.0, abs=1e-15)

    def test_symmetric_point_fires_equally(self):
        norm = anfis._normalized_batch(self._model(), np.array([[0.5]]))
        np.testing.assert_allclose(norm, [[0.5, 0.5]], atol=1e-15)

    def test_at_a_center_that_rule_dominates(self):
        norm = anfis._normalized_batch(self._model(), np.array([[0.0]]))
        assert norm[0, 0] > norm[0, 1]

    def test_far_outside_raises_no_rule_fires(self):
        with pytest.raises(NoRuleFires):
            anfis.predict(self._model(), np.array([1e6]))

    def test_input_width_checked(self):
        with pytest.raises(ValueError, match="expected 1 inputs"):
            anfis.predict(self._model(), np.array([0.0, 1.0]))


class TestRulesFirstStrengths:
    """_normalized_batch builds its log strengths rules-first; its strengths
    must be ReferenceAnfis's rows-first ones under tobytes(), for one model
    and for each row of a stack."""

    @staticmethod
    def _models():
        """Three 3-input models of 2, 3 and 4 MFs, each input with one
        center exactly 0.0."""
        rng = np.random.default_rng(41)
        models = []
        for _ in range(3):
            centers = []
            for m in (2, 3, 4):
                c = np.linspace(-1.0, 1.0, m) + rng.uniform(-0.2, 0.2, m)
                c[int(rng.integers(m))] = 0.0
                centers.append(c)
            widths = tuple(rng.uniform(0.6, 1.2, m) for m in (2, 3, 4))
            models.append(AnfisModel(tuple(centers), widths, np.zeros((24, 4))))
        return models

    @staticmethod
    def _rows(seed=0):
        """Rows in the models' range with exact zeros, then rows far outside
        it on one, two or all three inputs, as a served month index is."""
        X = np.random.default_rng(seed).uniform(-1.0, 1.0, size=(40, 3))
        X[::4, 0] = 0.0
        X[1::5, 2] = 0.0
        X[7] = 0.0
        far = [[10.0, 0.5, -0.3], [9.7, 10.3, 0.0], [-8.0, 0.0, 0.2], [10.1, -9.9, 10.4]]
        return np.concatenate([X, far])

    def test_one_model(self):
        X = self._rows()
        for model in self._models():
            got = anfis._normalized_batch(model, X)
            want = ReferenceAnfis.normalized_batch(model, X)
            assert got.shape == want.shape == (44, 24)
            assert got.tobytes() == want.tobytes()

    def test_each_stack_row(self):
        models = self._models()
        X = np.stack([self._rows(seed) for seed in range(3)])
        got = anfis._normalized_batch(anfis._Stack(models), X)
        assert got.shape == (3, 44, 24)
        for k, model in enumerate(models):
            assert got[k].tobytes() == ReferenceAnfis.normalized_batch(model, X[k]).tobytes()

    def test_dead_row_names_its_stack_row(self):
        models = self._models()
        X = np.stack([self._rows(seed) for seed in range(3)])
        X[1, 20] = [0.0, 1e3, 0.0]
        X[2, 3] = [1e3, 0.0, 0.0]
        with pytest.raises(NoRuleFires) as want:
            ReferenceAnfis.normalized_batch(models[1], X[1])
        with pytest.raises(NoRuleFires) as caught:
            anfis._normalized_batch(anfis._Stack(models), X)
        assert str(caught.value) == str(want.value) == "no rule fires for input [0.0, 1000.0, 0.0]"
        assert caught.value.row == 1

    def test_predict_on_the_served_table(self, tmp_path):
        """The paper's five anfis cells forecast the 2440-month rates file
        that perfbench's serve workload serves, as the reference would."""
        write_rates_csv(tmp_path / "rates.csv", forex5_series(seed=7))
        write_rates_csv(tmp_path / "served.csv", forex5_series(seed=7, months=2440))
        series, served = load_csv(tmp_path / "rates.csv"), load_csv(tmp_path / "served.csv")
        cfg = ExperimentConfig(data_path=str(tmp_path / "rates.csv"))
        cells = [prepare_cell(cfg, series, code, "anfis") for code in series]
        models, _ = hybrid_train([train for _, train, _ in cells], cfg.anfis_cfg)
        for code, (scaler, _, _), model in zip(series, cells, models):
            ds = build_supervised(served, FeatureSpec(code, cfg.recipe_for("anfis")))
            X = scale_features(ds.features, scaler)
            assert X.shape[0] == 2439 and X.max() > 9.0
            w = ReferenceAnfis.normalized_batch(model, X)
            want = np.einsum("nr,nr->n", w, ReferenceAnfis.rule_outputs(model, X))
            assert anfis.predict(model, X).tobytes() == want.tobytes()


class TestLse:
    def test_single_rule_constant_recovers_mean(self):
        ds = _dataset(np.array([[0.0], [1.0], [2.0]]), np.array([1.0, 2.0, 6.0]))
        cfg = AnfisConfig(mfs_per_input=2, consequent="constant")
        model = init_model(ds, cfg)
        res = lse_consequents(*stack_of_one(model, ds))
        fitted = with_consequents(model, res)
        # two constant rules reproduce a weighted fit; exact mean needs one rule,
        # so instead check the normal-equations oracle on the actual design.
        w = anfis._normalized_batch(model, ds.features)
        coef = normal_equations(w, ds.targets)
        np.testing.assert_allclose(res.consequents[0, :, 0], coef, atol=1e-8)
        assert np.isfinite(anfis.predict(fitted, ds.features)).all()

    def test_linear_target_recovered_exactly(self):
        ds = _grid_problem()
        model = init_model(ds, AnfisConfig(mfs_per_input=4))
        fitted = with_consequents(model, lse_consequents(*stack_of_one(model, ds)))
        resid = anfis.predict(fitted, ds.features) - ds.targets
        assert float(np.sqrt(np.mean(resid ** 2))) < 1e-8

    def test_matches_normal_equations_oracle(self):
        rng = np.random.default_rng(5)
        X = rng.uniform(0, 1, size=(60, 1))
        y = np.sin(3 * X[:, 0])
        ds = _dataset(X, y)
        model = init_model(ds, AnfisConfig(mfs_per_input=3))
        res = lse_consequents(*stack_of_one(model, ds))
        w = anfis._normalized_batch(model, X)
        base = np.concatenate([X, np.ones((60, 1))], axis=1)
        design = (w[:, :, None] * base[:, None, :]).reshape(60, -1)
        oracle = normal_equations(design, y)
        np.testing.assert_allclose(res.consequents.ravel(), oracle, atol=1e-8)

    def test_rank_deficiency_flagged(self):
        # Two identical training rows cannot pin down 2 rules x 2 coefficients.
        ds = _dataset(np.array([[0.5], [0.5]]), np.array([1.0, 1.0]))
        model = init_model(_dataset(np.array([[0.0], [1.0]]), np.zeros(2)),
                           AnfisConfig(mfs_per_input=2))
        res = lse_consequents(*stack_of_one(model, ds))
        assert res.rank_deficient
        fitted = with_consequents(model, res)
        assert anfis.predict(fitted, np.array([0.5])) == pytest.approx(1.0)


class TestPremiseGradient:
    def test_matches_central_differences(self):
        ds = _grid_problem(n=40, seed=3)
        model = init_model(ds, AnfisConfig(mfs_per_input=2))
        rng = np.random.default_rng(4)
        cons = rng.normal(size=model.consequents.shape)
        model = with_consequents(model, anfis.LseResult(cons[None], (cons.size,), 0))

        def sse_from_flat(flat):
            k = model.centers[0].size
            centers = (flat[:k], flat[k:2 * k])
            widths = (flat[2 * k:3 * k], flat[3 * k:])
            m = anfis.AnfisModel(centers=tuple(np.asarray(c) for c in centers),
                                 widths=tuple(np.asarray(s) for s in widths),
                                 consequents=model.consequents,
                                 consequent=model.consequent)
            resid = anfis.predict(m, ds.features) - ds.targets
            return float(resid @ resid)

        flat0 = np.concatenate(model.centers + model.widths)
        numeric = central_difference_gradient(sse_from_flat, flat0, 1e-6)
        grad_c, grad_s = premise_gradient(*stack_of_one(model, ds))
        analytic = np.concatenate([g[0] for g in (*grad_c, *grad_s)])
        scale = max(1.0, float(np.max(np.abs(numeric))))
        assert np.max(np.abs(analytic - numeric)) / scale < 1e-6

    def test_zero_gradient_at_perfect_fit(self):
        ds = _grid_problem()
        model = init_model(ds, AnfisConfig(mfs_per_input=2))
        model = with_consequents(model, lse_consequents(*stack_of_one(model, ds)))
        grad_c, grad_s = premise_gradient(*stack_of_one(model, ds))
        # linear target is inside the model class: residuals vanish
        assert max(float(np.max(np.abs(g))) for g in grad_c) < 1e-8
        assert max(float(np.max(np.abs(g))) for g in grad_s) < 1e-8

    def test_step_clamps_widths(self):
        rng = np.random.default_rng(6)
        x = rng.uniform(0, 1, 30)
        ds = _dataset(x, np.sin(7 * x))  # imperfect fit -> nonzero gradients
        model = init_model(ds, AnfisConfig(mfs_per_input=2))
        model = with_consequents(model, lse_consequents(*stack_of_one(model, ds)))
        _, grad_s = premise_gradient(*stack_of_one(model, ds))
        assert any(np.any(g > 0) for g in grad_s)  # some width would collapse
        stepped = _stepped(model, ds, rate=1e12)
        for s in stepped.widths:
            assert np.all(s >= 1e-6)
        assert any(np.any(s == 1e-6) for s in stepped.widths)


class TestHybridTrain:
    def test_sixteen_rules_for_two_by_four(self):
        ds = _grid_problem()
        model, _ = hybrid_train(ds, AnfisConfig(mfs_per_input=4, epochs=2))
        assert model.n_rules == 16
        assert dump_rules(model).count("\n") == 16

    def test_linear_target_absorbed_in_first_epoch(self):
        ds = _grid_problem()
        model, trace = hybrid_train(ds, AnfisConfig(mfs_per_input=4, epochs=1))
        assert trace[0] < 1e-6
        resid = anfis.predict(model, ds.features) - ds.targets
        assert float(np.sqrt(np.mean(resid ** 2))) < 1e-6

    def test_zero_rate_makes_epochs_idempotent(self):
        ds = _grid_problem(seed=9)
        one, _ = hybrid_train(ds, AnfisConfig(mfs_per_input=3, epochs=1, rate=0.0))
        two, _ = hybrid_train(ds, AnfisConfig(mfs_per_input=3, epochs=2, rate=0.0))
        for a, b in zip(one.centers, two.centers):
            np.testing.assert_array_equal(a, b)
        for a, b in zip(one.widths, two.widths):
            np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(one.consequents, two.consequents)

    def test_trace_improves_on_smooth_problem(self):
        rng = np.random.default_rng(10)
        x = rng.uniform(-2, 2, 150)
        ds = _dataset(x, np.tanh(2 * x) + 0.3 * x)
        model, trace = hybrid_train(ds, AnfisConfig(mfs_per_input=3, epochs=12,
                                                    rate=0.05))
        assert trace[-1] <= trace[0]
        resid = anfis.predict(model, ds.features) - ds.targets
        final = float(np.sqrt(np.mean(resid ** 2)))
        assert final <= trace[-1] + 1e-12  # final realign can only help

    def test_rejects_non_finite_training_data(self, capfd):
        ds = _grid_problem()
        X = ds.features.copy()
        X[6, 0] = -np.inf
        with pytest.raises(ValueError, match="training row 6, feature 'a' is -inf"):
            hybrid_train(Dataset(ds.feature_names, X, ds.targets), AnfisConfig(epochs=1))
        assert capfd.readouterr().err == ""  # no LAPACK complaint on the way

    def test_determinism(self):
        ds = _grid_problem(seed=11)
        cfg = AnfisConfig(mfs_per_input=3, epochs=5, rate=0.02)
        a, ta = hybrid_train(ds, cfg)
        b, tb = hybrid_train(ds, cfg)
        assert ta == tb
        np.testing.assert_array_equal(a.consequents, b.consequents)


class TestPredict:
    def test_known_linear_surface(self):
        ds = _dataset(np.linspace(0, 4, 30), 2.0 * np.linspace(0, 4, 30) + 1.0)
        model, _ = hybrid_train(ds, AnfisConfig(mfs_per_input=2, epochs=1))
        assert anfis.predict(model, np.array([3.0])) == pytest.approx(7.0, abs=1e-6)

    def test_output_is_convex_combination_of_rule_outputs(self):
        ds = _grid_problem(seed=12)
        model, _ = hybrid_train(ds, AnfisConfig(mfs_per_input=2, epochs=2,
                                                rate=0.01))
        X = np.random.default_rng(13).uniform(0, 1, size=(40, 2))
        rule_out = anfis._rule_outputs(model, X)
        pred = anfis.predict(model, X)
        assert np.all(pred <= rule_out.max(axis=1) + 1e-12)
        assert np.all(pred >= rule_out.min(axis=1) - 1e-12)

    @pytest.mark.parametrize("x", [2.0, np.zeros((2, 3, 1))], ids=["scalar", "3-d"])
    def test_bad_shape_names_expected_shapes(self, x):
        model = init_model(_dataset(np.array([[0.0], [1.0]]), np.zeros(2)),
                           AnfisConfig(mfs_per_input=2))
        with pytest.raises(ValueError, match=r"shape \(n, 1\) or \(1,\), got shape"):
            anfis.predict(model, x)

    def test_normalized_strengths_sum_to_one_in_bulk(self):
        ds = _grid_problem(seed=14)
        model = init_model(ds, AnfisConfig(mfs_per_input=4))
        X = np.random.default_rng(15).uniform(-0.5, 1.5, size=(2000, 2))
        w = anfis._normalized_batch(model, X)
        np.testing.assert_allclose(w.sum(axis=1), 1.0, atol=1e-12)


class TestDumps:
    def test_rule_lines_name_every_input_and_coefficient(self):
        ds = _grid_problem()
        model, _ = hybrid_train(ds, AnfisConfig(mfs_per_input=4, epochs=1))
        lines = dump_rules(model).strip().splitlines()
        assert len(lines) == 16
        for line in lines:
            assert line.startswith("IF x1 is G(")
            assert " AND x2 is G(" in line
            assert " THEN y = " in line
            assert "*x1 + " in line and "*x2 + " in line

    def test_recovered_plane_in_rule_text(self):
        ds = _grid_problem()
        model, _ = hybrid_train(ds, AnfisConfig(mfs_per_input=4, epochs=1))
        for line in dump_rules(model).strip().splitlines():
            assert "1.5*x1" in line
            assert "-0.7*x2" in line
            assert "+ 0.3" in line

    def test_model_round_trip_bit_identical(self):
        ds = _grid_problem(seed=16)
        model, _ = hybrid_train(ds, AnfisConfig(mfs_per_input=3, epochs=4,
                                                rate=0.02))
        clone = load_model(dump_model(model))
        X = np.random.default_rng(17).uniform(0, 1, size=(100, 2))
        np.testing.assert_array_equal(anfis.predict(model, X),
                                      anfis.predict(clone, X))
        assert dump_model(clone) == dump_model(model)

    def test_load_rejects_bad_header(self):
        with pytest.raises(ValueError, match="anfis-model"):
            load_model("rules 16\n")

    # hand-written numbers print the same on every BLAS, unlike a fitted model's
    _ONE_INPUT = ("anfis-model v1\n"
                  "inputs 1 outputs 1 consequent linear rank_deficient 0\n"
                  "input 0 mfs 2\n"
                  "centers 0 1\n"
                  "widths 0.5 0.75\n"
                  "consequents 2 2\n"
                  "1.5 -0.25\n"
                  "0.125 3\n")

    def test_hand_written_dump_round_trips_byte_exact(self):
        assert dump_model(load_model(self._ONE_INPUT)) == self._ONE_INPUT

    def test_load_rejects_more_than_one_output(self):
        two_outputs = ("anfis-model v1\n"
                       "inputs 1 outputs 2 consequent linear rank_deficient 0\n"
                       "input 0 mfs 2\ncenters 0 1\nwidths 0.5 0.75\n"
                       "consequents 2 2\n1.5 -0.25 3 1\n0.125 3 -2 0\n")
        with pytest.raises(ValueError, match="^line 2: expected 'inputs <n> outputs 1 "):
            load_model(two_outputs)


@pytest.fixture(scope="module")
def forex5_cells(tmp_path_factory):
    """recipe -> the five scaled training sets of the seed-7 forex5 anfis
    cells, as forexkit bench prepares them."""
    path = tmp_path_factory.mktemp("data") / "rates.csv"
    write_rates_csv(path, forex5_series(seed=7))
    series = load_csv(path)

    def cells(recipe="mp1"):
        cfg = ExperimentConfig(data_path=str(path), anfis_recipe=recipe)
        return [prepare_cell(cfg, series, code, "anfis")[1] for code in series]

    return cells


def _halvings(trace) -> list:
    return [e for e in range(1, len(trace)) if trace[e] > trace[e - 1]]


class TestStack:
    """hybrid_train over a sequence trains one lockstep stack; every row must
    equal ReferenceAnfis, the per-cell loop, bit for bit."""

    @staticmethod
    def _assert_reference(trains, cfg):
        models, traces = hybrid_train(trains, cfg)
        assert len(models) == len(traces) == len(trains)
        for train, model, trace in zip(trains, models, traces):
            ref, ref_trace = ReferenceAnfis.hybrid_train(train, cfg)
            assert dump_model(model) == dump_model(ref)
            assert dump_rules(model) == dump_rules(ref)
            assert [v.hex() for v in trace] == [v.hex() for v in ref_trace]
            assert model.lse_rank_deficient == ref.lse_rank_deficient
        return models, traces

    def test_forex5_cells(self, forex5_cells):
        trains = forex5_cells()
        assert [t.n_rows for t in trains] == [170] * 5
        self._assert_reference(trains, AnfisConfig())

    def test_rows_halve_their_rates_at_different_epochs(self):
        rng = np.random.default_rng(2)
        trains = []
        for _ in range(4):
            X = rng.uniform(-1, 1, size=(40, 2))
            y = np.sin(3 * X[:, 0]) * X[:, 1] + rng.normal(scale=0.2, size=40)
            trains.append(Dataset(("a", "b"), X, y))
        _, traces = self._assert_reference(
            trains, AnfisConfig(mfs_per_input=3, epochs=20, rate=0.3))
        halvings = [_halvings(t) for t in traces]
        assert len({tuple(h) for h in halvings}) >= 3
        assert sum(map(len, halvings)) >= 4

    @pytest.mark.parametrize("seed", range(4))
    def test_random_stacks(self, seed):
        rng = np.random.default_rng(100 + seed)
        n, d = int(rng.integers(8, 50)), int(rng.integers(1, 4))
        trains = [Dataset(tuple(f"x{i}" for i in range(d)), X,
                          np.tanh(2 * X[:, 0]) + rng.normal(scale=0.3, size=n))
                  for X in rng.uniform(-2, 2, size=(int(rng.integers(2, 6)), n, d))]
        self._assert_reference(trains, AnfisConfig(mfs_per_input=int(rng.integers(2, 4)),
                                                   epochs=15, rate=0.5))

    def test_one_rank_deficient_row(self):
        x = np.linspace(0.0, 1.0, 8)
        twins = np.repeat([[0.1], [0.9]], 4, axis=0)  # two distinct inputs, 6 terms
        trains = [_dataset(x, x ** 2), _dataset(twins, np.arange(8.0)), _dataset(x, np.sin(x))]
        models, _ = self._assert_reference(trains, AnfisConfig(mfs_per_input=3, epochs=6))
        assert [m.lse_rank_deficient for m in models] == [False, True, False]
        stack = anfis._Stack([init_model(t, AnfisConfig(mfs_per_input=3)) for t in trains])
        result = lse_consequents(stack, Batches(trains))
        assert result.rank_deficient == 1
        assert result.consequents.shape == (3, 3, 2)

    def test_rank_flag_sticks_per_row(self):
        trains = [_grid_problem(n=30, seed=s) for s in (1, 2)]
        stack = anfis._Stack([init_model(t, AnfisConfig(mfs_per_input=2)) for t in trains])
        cons = np.zeros((2, 4, 3))
        stack.take(anfis.LseResult(cons, (12, 5), 1))
        stack.take(anfis.LseResult(cons, (12, 12), 0))
        assert stack.lse_rank_deficient == [False, True]
        assert [m.lse_rank_deficient for m in stack.models()] == [False, True]

    def test_stacked_step_holds_rows_at_rate_zero(self):
        cfg = AnfisConfig(mfs_per_input=3)
        trains = [_grid_problem(n=30, seed=s) for s in (3, 4)]
        models = [with_consequents(m, lse_consequents(*stack_of_one(m, t)))
                  for m, t in ((init_model(t, cfg), t) for t in trains)]
        stack = anfis._Stack(models)
        premise_step(stack, Batches(trains), [0.0, 0.1])
        [held, moved] = stack.models()
        stepped = _stepped(models[1], trains[1], 0.1)
        assert dump_model(held) == dump_model(models[0])
        assert dump_model(moved) == dump_model(stepped)

    @pytest.mark.parametrize("cfg", [AnfisConfig(rate=0.0, epochs=5),
                                     AnfisConfig(consequent="constant", epochs=12, rate=0.05)],
                             ids=["rate-0", "constant"])
    def test_zero_rate_and_constant_consequents(self, forex5_cells, cfg):
        self._assert_reference(forex5_cells(), cfg)

    def test_six_input_cells(self, forex5_cells):
        self._assert_reference(forex5_cells("mp5"),
                               AnfisConfig(mfs_per_input=2, epochs=4, rate=0.02))

    def test_single_dataset_is_a_stack_of_one(self, forex5_cells):
        train = forex5_cells()[2]
        model, trace = hybrid_train(train, AnfisConfig(epochs=10, rate=0.05))
        ref, ref_trace = ReferenceAnfis.hybrid_train(train, AnfisConfig(epochs=10, rate=0.05))
        assert dump_model(model) == dump_model(ref)
        assert dump_rules(model) == dump_rules(ref)
        assert [v.hex() for v in trace] == [v.hex() for v in ref_trace]
        [stacked], [stacked_trace] = hybrid_train([train], AnfisConfig(epochs=10, rate=0.05))
        assert dump_model(stacked) == dump_model(model) and stacked_trace == trace

    def test_row_whose_rules_die_is_named(self):
        rng = np.random.default_rng(33)
        x = rng.uniform(0, 1, 30)
        freq, amp = rng.uniform(3, 15), rng.uniform(1, 100)
        fits, dies = _dataset(x, 2 * x), _dataset(x, amp * np.sin(freq * x))
        cfg = AnfisConfig(mfs_per_input=2, epochs=8, rate=100.0)
        with pytest.raises(NoRuleFires):
            ReferenceAnfis.hybrid_train(dies, cfg)
        with pytest.raises(NoRuleFires) as caught:
            hybrid_train([fits, fits, dies, fits], cfg)
        assert caught.value.row == 2

    def test_row_whose_step_overflows_is_named(self):
        """A premise step that overflows leaves non-finite premises, whose
        NaN strengths fire no rule: the row is named, not left to LAPACK."""
        x = np.linspace(0.0, 1.0, 30)
        flat = _dataset(np.column_stack([x, x]), np.zeros(30))  # zero gradient, never moves
        cfg = AnfisConfig(mfs_per_input=2, epochs=3, rate=1e308)
        with pytest.raises(NoRuleFires) as caught:
            hybrid_train([flat, _grid_problem(n=30, seed=1), flat], cfg)
        assert caught.value.row == 1

    @pytest.mark.parametrize("trains, match", [
        ([], "no training sets"),
        ([_dataset(np.zeros((4, 1)), np.zeros(4)), _dataset(np.zeros((5, 1)), np.zeros(5))],
         "row count and width"),
        ([_dataset(np.zeros((4, 1)), np.zeros(4)), _dataset(np.zeros((4, 2)), np.zeros(4))],
         "row count and width")], ids=["empty", "rows", "width"])
    def test_stack_shape_checked(self, trains, match):
        with pytest.raises(ValueError, match=match):
            hybrid_train(trains, AnfisConfig(epochs=1))
