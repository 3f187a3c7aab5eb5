"""Plain-text format error paths and the self-contained predictor files."""

import numpy as np
import pytest

from forexkit import anfis, cart, hybrid, mars, scg
from forexkit.bench import ExperimentConfig, prepare_cell
from forexkit.data import (Dataset, FeatureSpec, apply_scaler,
                           build_supervised, fit_scaler, load_csv, split)
from forexkit.dumpfmt import Lines, tail
from forexkit.kinds import KINDS
from forexkit.predictor import (Predictor, load_predictor, predict_rates,
                                predict_scaled, save_predictor)
from forexkit.synth import forex5_series, write_rates_csv


@pytest.fixture(scope="module")
def series():
    return forex5_series(seed=7)


@pytest.fixture(scope="module")
def scaled_split(series):
    ds = build_supervised(series, FeatureSpec("JPY", "mp1"))
    train, test = split(ds, 0.7, 7)
    scaler = fit_scaler(train)
    return apply_scaler(train, scaler), apply_scaler(test, scaler), scaler


class TestMalformedDumps:
    def test_mars_truncated_coefficients(self):
        x = np.linspace(0, 1, 30)
        model = mars.fit(Dataset(("x",), x[:, None], 2 * x),
                         mars.MarsConfig(max_basis_functions=4))
        text = mars.dump_model(model)
        broken = "\n".join(text.splitlines()[:-2])  # drop a coefficient + mse
        with pytest.raises(ValueError):
            mars.load_model(broken)

    def test_mars_missing_coefficients_marker(self):
        with pytest.raises(ValueError, match="coefficients"):
            mars.load_model("mars-model v1\nfeatures 1\nbases 1\nbasis const\n"
                            "1.5\ntraining_mse 0\n")

    def test_mars_two_factor_basis_loads_predicts_and_dumps_back(self):
        """The model format keeps bases of several factors, though the
        forward search adds one factor at a time."""
        text = ("mars-model v1\nfeatures 2\nbases 3\nbasis const\n"
                "basis 0 + 0.25 1 - 0.75\nbasis 1 + 0.5\n"
                "coefficients\n0.5\n2\n-1.25\ntraining_mse 0\n")
        model = mars.load_model(text)
        assert [len(b.factors) for b in model.bases] == [0, 2, 1]
        X = np.array([[1.0, 0.5], [0.0, 0.0], [2.25, 1.0], [0.5, 0.25]])
        pair = mars.eval_hinge(X[:, 0], 0.25, "positive") \
            * mars.eval_hinge(X[:, 1], 0.75, "negative")
        want = 0.5 + 2.0 * pair - 1.25 * mars.eval_hinge(X[:, 1], 0.5, "positive")
        assert np.all(pair[[0, 3]] > 0.0) and np.all(pair[[1, 2]] == 0.0)
        np.testing.assert_array_equal(mars.predict(model, X), want)
        assert mars.dump_model(model) == text

    def test_cart_bad_node_line(self):
        with pytest.raises(ValueError):
            cart.load_tree("cart-tree v1\nfeatures 1\nnames x\n"
                           "branch var=0 threshold=1\n")

    def test_mlp_wrong_matrix_shape(self):
        """A weight matrix unlike its layers line fails; so does a row of an
        mlp weight block or of an ANFIS consequent block that is missing, one
        value short or long, non-numeric or infinite, naming that row's line.
        The first, a middle and the last row of every block are tried."""
        net = scg.init_network((1, 2, 1), seed=0)
        lines = scg.dump_network(net).splitlines()
        lines[1] = "layers 1 3 1"  # inconsistent with the weight rows below
        with pytest.raises(ValueError):
            scg.load_network("\n".join(lines))
        model = anfis.AnfisModel((np.array([0.0, 1.0]),) * 2, (np.array([0.5, 0.5]),) * 2,
                                 np.arange(12.0).reshape(4, 3) - 5.5)
        cases = [(scg.dump_network(scg.init_network((2, 3, 1), seed=0)), scg.load_network,
                  {"weights 0 3 2": "row {} of weights 0", "weights 1 1 3": "row {} of weights 1"}),
                 (anfis.dump_model(model), anfis.load_model,
                  {"consequents 4 3": "consequents of rule {}"})]
        faults = [(lambda t: t[:-1], "expected {w} values, got {s}"),
                  (lambda t: t + ["0.5"], "expected {w} values, got {l}"),
                  (lambda t: ["x"] + t[1:], "not a number"),
                  (lambda t: t[:-1] + ["inf"], "non-finite value")]
        tried = 0
        for text, load, headers in cases:
            lines = text.splitlines()
            for header, what in headers.items():
                at = lines.index(header)
                count, width = map(int, header.split()[-2:])
                for row in sorted({0, count // 2, count - 1}):
                    with pytest.raises(ValueError, match=rf"^line {at + 2 + row}: dump ends "
                                                         rf"before {what.format(row)}$"):
                        load("\n".join(lines[:at + 1 + row]))
                    for edit, message in faults:
                        bad = list(lines)
                        bad[at + 1 + row] = " ".join(edit(bad[at + 1 + row].split()))
                        message = message.format(w=width, s=width - 1, l=width + 1)
                        with pytest.raises(ValueError, match=rf"^line {at + 2 + row}: "
                                                             rf"{message}$"):
                            load("\n".join(bad))
                        tried += 1
        assert tried == 4 * (3 + 1 + 3)  # a cut block is tried at the same rows

    def test_anfis_truncated(self):
        ds = Dataset(("x",), np.linspace(0, 1, 20)[:, None], np.linspace(0, 1, 20))
        model, _ = anfis.hybrid_train(ds, anfis.AnfisConfig(mfs_per_input=2,
                                                            epochs=1))
        text = anfis.dump_model(model)
        with pytest.raises(ValueError):
            anfis.load_model("\n".join(text.splitlines()[:4]))

    def test_hybrid_missing_mars_section(self):
        with pytest.raises(ValueError, match="section"):
            hybrid.load_hybrid("hybrid-cart-mars v1\nencoding one_hot_leaf\n"
                               "augmented_names x leaf_0\n[tree]\n"
                               "cart-tree v1\nfeatures 1\nnames x\n"
                               "leaf id=0 mean=0 count=1 sse=0\n")

    def test_tail_keeps_a_blank_last_line(self):
        part = Lines(tail(["a", "b", "", "[mars]"], 1, 3))
        assert part.take("b") == (2, "b")
        with pytest.raises(ValueError, match="^line 4: dump ends before c"):
            part.take("c")

    def test_hybrid_tree_cut_before_a_blank_line_names_the_mars_line(self, gbp_hybrid_dump):
        lines = gbp_hybrid_dump.splitlines()
        mars_at = lines.index("[mars]")
        assert lines[mars_at - 1].lstrip().startswith("leaf ")
        lines[mars_at - 1] = ""  # the last node of the tree section
        with pytest.raises(ValueError, match=rf"^line {mars_at + 1}: dump ends before "):
            hybrid.load_hybrid("\n".join(lines))

    def test_empty_text_everywhere(self):
        for loader in (mars.load_model, cart.load_tree, scg.load_network,
                       anfis.load_model, hybrid.load_hybrid, load_predictor):
            with pytest.raises(ValueError):
                loader("")


class TestPredictorFile:
    def _fit(self, kind, scaled_split):
        strain, stest, scaler = scaled_split
        if kind == "mars":
            engine = mars.fit(strain, mars.MarsConfig(max_basis_functions=8))
        elif kind == "cart":
            seq = cart.prune_sequence(cart.grow(strain, cart.CartConfig()), strain)
            engine = cart.select_min_cost(seq, stest)
        elif kind == "hybrid":
            engine = hybrid.fit_hybrid(strain, stest,
                                       mars_cfg=mars.MarsConfig(max_basis_functions=8))
        elif kind == "mlp":
            net = scg.init_network((strain.n_features, 6, 1), seed=3)
            engine, _ = scg.scg_train(net, strain, epochs=40)
        else:
            engine, _ = anfis.hybrid_train(strain,
                                           anfis.AnfisConfig(mfs_per_input=3,
                                                             epochs=2))
        return Predictor(kind, "JPY", "mp1", scaled_split[2], engine)

    @pytest.mark.parametrize("kind", ["mars", "cart", "hybrid", "mlp", "anfis"])
    def test_round_trip_preserves_predictions(self, kind, scaled_split):
        p = self._fit(kind, scaled_split)
        clone = load_predictor(save_predictor(p))
        width = scaled_split[0].n_features
        X = np.random.default_rng(5).uniform(0, 1, size=(50, width))
        np.testing.assert_array_equal(predict_scaled(p, X),
                                      predict_scaled(clone, X))
        assert save_predictor(clone) == save_predictor(p)

    def test_predict_rates_units_and_months(self, scaled_split, series, tmp_path):
        p = self._fit("mars", scaled_split)
        months, preds = predict_rates(p, series)
        assert len(months) == len(preds) == 243
        assert months[0] == 1  # the first forecastable month
        # predictions are in original rate units, near the actual series
        actual = series["JPY"].values[months]
        assert np.median(np.abs(preds - actual) / actual) < 0.2

    def test_unknown_kind_rejected_on_save_path(self, scaled_split):
        with pytest.raises(ValueError, match="model kind"):
            Predictor("ridge", "JPY", "mp1", scaled_split[2], object())

    @pytest.mark.parametrize("code, fault", [("G BP", "empty, padded or spaced"),
                                             ("", "empty, padded or spaced"),
                                             ('"GBP"', "quoted")])
    def test_currency_that_load_refuses_is_rejected_on_save_path(self, scaled_split,
                                                                 code, fault):
        """No predictor exists whose saved file load_predictor refuses."""
        engine = self._fit("mars", scaled_split).engine
        with pytest.raises(ValueError) as err:
            Predictor("mars", code, "mp1", scaled_split[2], engine)
        assert str(err.value) == f"{fault} currency {code!r}"

    def test_unknown_kind_rejected_on_load(self):
        text = ("forexkit-predictor v1\nmodel ridge\ncurrency JPY\nrecipe mp1\n"
                "feature_min 0\nfeature_max 1\ntarget_min 0\ntarget_max 1\n"
                "scale_target 1\n[model]\n")
        with pytest.raises(ValueError, match="ridge"):
            load_predictor(text)

    def test_missing_header_key_rejected(self):
        text = ("forexkit-predictor v1\nmodel mars\ncurrency JPY\n[model]\n"
                "mars-model v1\nfeatures 1\nbases 1\nbasis const\n"
                "coefficients\n0\ntraining_mse 0\n")
        with pytest.raises(ValueError, match="^line 4: dump ends before the recipe line"):
            load_predictor(text)

    def test_unscaled_target_rejected(self):
        text = ("forexkit-predictor v1\nmodel mars\ncurrency JPY\nrecipe mp1\n"
                "feature_min 0\nfeature_max 1\ntarget_min 0\ntarget_max 1\n"
                "scale_target 1\n[model]\n"
                "mars-model v1\nfeatures 1\nbases 1\nbasis const\n"
                "coefficients\n0\ntraining_mse 0\n")
        assert load_predictor(text).model_kind == "mars"
        with pytest.raises(ValueError, match="^line 9: expected 'scale_target 1'"):
            load_predictor(text.replace("scale_target 1", "scale_target 0"))

    @pytest.mark.parametrize("edit,match", [
        (("currency JPY", "currency USD\ncurrency JPY"), "^line 4: expected 'recipe'"),
        (("recipe mp1", "recipe mp1\nbogus key"), "^line 5: expected 'feature_min'"),
        (("currency JPY\nrecipe mp1", "recipe mp1\ncurrency JPY"), "^line 3: expected 'currency'"),
        (("recipe mp1", "recipe mp9"), "^line 4: unknown recipe 'mp9'"),
        (("currency JPY", "currency"), "^line 3: empty, padded or spaced currency ''"),
        (("currency JPY", "currency "), "^line 3: empty, padded or spaced currency ''"),
        (("currency JPY", "currency  JPY"), "^line 3: empty, padded or spaced currency ' JPY'"),
        (("currency JPY", "currency J PY"), "^line 3: empty, padded or spaced currency 'J PY'"),
        (("currency JPY", "currency J\tPY"), r"^line 3: empty, padded or spaced currency 'J\\tPY'"),
        (("currency JPY", 'currency "JPY"'), """^line 3: quoted currency '"JPY"'"""),
        (("feature_max 1", "feature_max -1"), "^line 6: feature_max is below feature_min"),
        (("target_max 1", "target_max -0.5"), "^line 8: target_max is below target_min")],
        ids=["repeated-key", "unknown-key", "reordered", "unknown-recipe", "no-currency",
             "blank-currency", "padded-currency", "spaced-currency", "tab-currency",
             "quoted-currency", "inverted-features", "inverted-target"])
    def test_bad_header_line_rejected(self, edit, match):
        text = ("forexkit-predictor v1\nmodel mars\ncurrency JPY\nrecipe mp1\n"
                "feature_min 0\nfeature_max 1\ntarget_min 0\ntarget_max 1\n"
                "scale_target 1\n[model]\n"
                "mars-model v1\nfeatures 1\nbases 1\nbasis const\n"
                "coefficients\n0\ntraining_mse 0\n")
        assert load_predictor(text.replace("\n", "\n\n", 1)).currency == "JPY"
        with pytest.raises(ValueError, match=match):
            load_predictor(text.replace(*edit))

    @staticmethod
    def _mp5_mars(series, code):
        """A default MARS mp5 predictor of code fitted on series."""
        train, _ = split(build_supervised(series, FeatureSpec(code, "mp5")), 0.7, 7)
        scaler = fit_scaler(train)
        return Predictor("mars", code, "mp5", scaler, mars.fit(apply_scaler(train, scaler)))

    def test_mp5_rates_file_missing_a_currency_rejected(self, series):
        p = self._mp5_mars(series, "GBP")
        short = {c: s for c, s in series.items() if c != "NZD"}
        with pytest.raises(ValueError, match="gives 5 mp5 features, but the predictor's "
                                             "scaler takes 6"):
            predict_rates(p, short)

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="an mp5 predictor file does not record its feature names, "
                              "so it takes the currencies in the file's column order")
    def test_mp5_forecasts_ignore_column_order(self, tmp_path):
        """The same rates with the columns in another order are the same
        data: a known defect forecasts differently (by up to 6.35 rate units
        here).  A change that mends it makes this test pass, which the
        strict mark reports."""
        head = forex5_series(seed=7, months=120)
        p = self._mp5_mars(head, "GBP")
        assert list(head) != ["NZD", "USD", "GBP", "SGD", "JPY"]
        write_rates_csv(tmp_path / "shuffled.csv",
                        {c: head[c] for c in ("NZD", "USD", "GBP", "SGD", "JPY")})
        write_rates_csv(tmp_path / "rates.csv", head)
        _, want = predict_rates(p, load_csv(tmp_path / "rates.csv"))
        _, got = predict_rates(p, load_csv(tmp_path / "shuffled.csv"))
        np.testing.assert_array_equal(got, want)

    def test_missing_model_section_rejected(self):
        text = ("forexkit-predictor v1\nmodel mars\ncurrency JPY\nrecipe mp1\n"
                "feature_min 0\nfeature_max 1\ntarget_min 0\ntarget_max 1\n"
                "scale_target 1\n")
        with pytest.raises(ValueError, match="model"):
            load_predictor(text)


@pytest.fixture(scope="module")
def predictors(scaled_split):
    return {kind: TestPredictorFile()._fit(kind, scaled_split) for kind in KINDS}


@pytest.mark.parametrize("kind", list(KINDS))
def test_predict_on_no_rows(kind, predictors):
    """Every family forecasts zero rows of its width as an empty array."""
    engine = predictors[kind].engine
    assert KINDS[kind].predict(engine, np.empty((0, engine.n_features))).shape == (0,)


def _dump_and_loader(kind, which, predictors):
    p = predictors[kind]
    if which == "engine":
        return KINDS[kind].dump(p.engine), KINDS[kind].load
    return save_predictor(p), load_predictor


def _nonfinite_plants(text):
    """(line index, text) with one numeric token, or the value of one
    key=value token, replaced by nan, inf or -inf."""
    lines = text.splitlines()
    for i, line in enumerate(lines):
        tokens = line.split(" ")  # single spaces keep the indentation
        for j, token in enumerate(tokens):
            key, eq, value = token.rpartition("=")
            try:
                float(value)
            except ValueError:
                continue
            for bad in ("nan", "inf", "-inf"):
                planted = tokens[:j] + [key + eq + bad] + tokens[j + 1:]
                yield i, "\n".join(lines[:i] + [" ".join(planted)] + lines[i + 1:])


@pytest.mark.parametrize("which", ["engine", "predictor"])
@pytest.mark.parametrize("kind", list(KINDS))
class TestCorruptDumps:
    def test_every_cut_names_the_missing_line(self, kind, which, predictors):
        text, load = _dump_and_loader(kind, which, predictors)
        lines = text.splitlines()
        for cut in range(len(lines)):
            with pytest.raises(ValueError, match=rf"^line {cut + 1}: "):
                load("\n".join(lines[:cut]))

    def test_every_nonfinite_token_names_its_line(self, kind, which, predictors):
        text, load = _dump_and_loader(kind, which, predictors)
        planted = list(_nonfinite_plants(text))
        assert len(planted) >= 3
        for index, bad in planted:
            with pytest.raises(ValueError, match=rf"^line {index + 1}: "):
                load(bad)


class TestLoaderChecks:
    def test_scaler_wider_than_engine_rejected(self, predictors):
        lines = save_predictor(predictors["mlp"]).splitlines()
        assert lines[4].startswith("feature_min ") and lines[5].startswith("feature_max ")
        lines[4] += " 0"
        lines[5] += " 1"
        with pytest.raises(ValueError, match="^line 5: 3 scaled features, but the mlp"):
            load_predictor("\n".join(lines))

    def test_mars_variable_out_of_range(self):
        with pytest.raises(ValueError, match="^line 5: 1 is out of range"):
            mars.load_model("mars-model v1\nfeatures 1\nbases 2\nbasis const\n"
                            "basis 1 + 0.5\ncoefficients\n1\n2\ntraining_mse 0\n")

    def test_mars_repeated_variable_names_line(self):
        with pytest.raises(ValueError, match="^line 5: a basis may use each variable"):
            mars.load_model("mars-model v1\nfeatures 1\nbases 2\nbasis const\n"
                            "basis 0 + 0.5 0 - 0.3\ncoefficients\n1\n2\ntraining_mse 0\n")

    def test_mars_negative_training_mse(self):
        with pytest.raises(ValueError, match="^line 8: training_mse must be >= 0"):
            mars.load_model("mars-model v1\nfeatures 1\nbases 1\nbasis const\n"
                            "coefficients\n1\n\ntraining_mse -0.5\n")

    def test_cart_leaf_ids_must_count_up(self):
        with pytest.raises(ValueError, match="^line 4: leaf ids"):
            cart.load_tree("cart-tree v1\nfeatures 1\n"
                           "split var=0 threshold=1 mean=0 count=2 sse=0\n"
                           "  leaf id=1 mean=0 count=1 sse=0\n"
                           "  leaf id=0 mean=0 count=1 sse=0\n")

    @pytest.mark.parametrize("line", [3, 4])
    def test_cart_negative_sse_names_line(self, line):
        nodes = ["split var=0 threshold=1 mean=0 count=2 sse=1",
                 "  leaf id=0 mean=0 count=1 sse=0.5", "  leaf id=1 mean=0 count=1 sse=0.5"]
        nodes[line - 3] = nodes[line - 3].replace("sse=", "sse=-")
        with pytest.raises(ValueError, match=f"^line {line}: sse must be >= 0"):
            cart.load_tree("cart-tree v1\nfeatures 1\n" + "\n".join(nodes) + "\n")

    @pytest.mark.parametrize("keep, what", [(1, "a left child"), (2, "a right child")])
    def test_cart_truncation_names_the_missing_child(self, keep, what):
        nodes = ["split var=0 threshold=1 mean=0 count=2 sse=1",
                 "  leaf id=0 mean=0 count=1 sse=0.5", "  leaf id=1 mean=0 count=1 sse=0.5"]
        text = "cart-tree v1\nfeatures 1\n" + "\n".join(nodes[:keep]) + "\n"
        with pytest.raises(ValueError, match=f"^line {3 + keep}: dump ends before {what}$"):
            cart.load_tree(text)

    @pytest.mark.parametrize("node", ["leaf id=0 mean=0 count=1 sse=0.5",
                                      "leaf  sse=0.5 count=1 mean=0 id=0"])
    @pytest.mark.parametrize("indent", [0, 1, 4, 5])
    def test_cart_bad_indentation_names_line(self, indent, node):
        """An indent that does not read as the node's depth fails, whether
        or not the rest of the line is as dump_tree writes it."""
        nodes = ["split var=0 threshold=1 mean=0 count=2 sse=1",
                 " " * indent + node, "  leaf id=1 mean=0 count=1 sse=0.5"]
        with pytest.raises(ValueError, match="^line 4: bad indentation$"):
            cart.load_tree("cart-tree v1\nfeatures 1\n" + "\n".join(nodes) + "\n")

    def test_cart_count_must_fit_the_count_array(self):
        with pytest.raises(ValueError, match="^line 3: 9223372036854775808 is out of range"):
            cart.load_tree("cart-tree v1\nfeatures 1\n"
                           "leaf id=0 mean=0 count=9223372036854775808 sse=0\n")
        tree = cart.load_tree("cart-tree v1\nfeatures 1\n"
                              "leaf id=0 mean=0 count=9223372036854775807 sse=0\n")
        assert tree.count.dtype == np.int64

    def test_cart_deep_chain_round_trips(self):
        lines = ["cart-tree v1", "features 1"]
        for d in range(1200):  # a chain of splits deeper than the recursion limit
            lines.append("  " * d + f"split var=0 threshold={d} mean=0 count=2 sse=0")
            lines.append("  " * (d + 1) + f"leaf id={d} mean=0 count=1 sse=0")
        lines.append("  " * 1200 + "leaf id=1200 mean=7 count=1 sse=0")
        text = "\n".join(lines) + "\n"
        tree = cart.load_tree(text)
        assert cart.dump_tree(tree) == text
        assert cart.node_id(tree, [1e9]) == 1200
        assert cart.predict(tree, [1e9]) == 7.0

    def test_anfis_width_must_be_positive(self):
        with pytest.raises(ValueError, match="^line 5: widths must be > 0"):
            anfis.load_model("anfis-model v1\n"
                             "inputs 1 outputs 1 consequent constant rank_deficient 0\n"
                             "input 0 mfs 2\ncenters 0 1\nwidths 1 0\n"
                             "consequents 2 1\n0\n1\n")


@pytest.fixture(scope="module")
def gbp_hybrid_dump(series):
    """The dump of a default GBP hybrid: 9 leaves on 2 features."""
    _, strain, stest = prepare_cell(ExperimentConfig(data_path="-"), series, "GBP",
                                 "hybrid")
    h = hybrid.fit_hybrid(strain, stest)
    assert (h.cart.n_leaves, h.n_features) == (9, 2)
    return hybrid.dump_hybrid(h)


class TestHybridConsistency:
    """A hybrid dump whose parts disagree with its tree or encoding line is
    rejected at the line that disagrees, not left to fail at predict time."""

    @staticmethod
    def _features_line(lines):
        at = lines.index("[mars]") + 2
        assert lines[at] == "features 11"
        return at

    def test_augmented_names_must_match_the_tree(self, gbp_hybrid_dump):
        lines = gbp_hybrid_dump.splitlines()
        assert lines[2] == ("augmented_names month prev_GBP "
                            + " ".join(f"leaf_{k}" for k in range(9)))
        lines[2] = lines[2].replace("leaf_8", "leaf_9")
        with pytest.raises(ValueError, match="^line 3: expected 'augmented_names month "
                                             "prev_GBP leaf_0 .* leaf_8'"):
            hybrid.load_hybrid("\n".join(lines))

    def test_mars_features_must_match_the_augmented_names(self, gbp_hybrid_dump):
        lines = gbp_hybrid_dump.splitlines()
        at = self._features_line(lines)
        lines[at] = "features 14"
        with pytest.raises(ValueError, match=rf"^line {at + 1}: MARS takes 14 features, "
                                             "but the tree gives 11"):
            hybrid.load_hybrid("\n".join(lines))
        lines.insert(at, "")  # a blank line moves the features line down
        with pytest.raises(ValueError, match=rf"^line {at + 2}: MARS takes 14 features, "):
            hybrid.load_hybrid("\n".join(lines))

    def test_encoding_must_match_the_mars_part(self, gbp_hybrid_dump):
        """The MARS part is fitted on one-hot leaf columns, the only encoding."""
        lines = gbp_hybrid_dump.splitlines()
        assert lines[1] == "encoding one_hot_leaf"
        lines[1] = "encoding leaf_prediction"
        with pytest.raises(ValueError, match="^line 2: expected 'encoding one_hot_leaf'$"):
            hybrid.load_hybrid("\n".join(lines))


class TestBenchDumpsReload:
    def test_every_bench_dump_is_loadable(self, tmp_path, series):
        from forexkit.bench import run_experiment
        path = tmp_path / "rates.csv"
        write_rates_csv(path, series)
        cfg = ExperimentConfig(data_path=str(path), currencies=("NZD",),
                               models=("mars", "cart", "hybrid"),
                               out_dir=str(tmp_path / "out"))
        report = run_experiment(cfg)
        loaders = {"mars": mars.load_model, "cart": cart.load_tree,
                   "hybrid": hybrid.load_hybrid}
        for cell in report.cells:
            loaded = loaders[cell.model](cell.dump)
            assert loaded is not None


def _arrays(obj):
    """Every array reachable through an engine's dataclass fields and tuples."""
    if isinstance(obj, np.ndarray):
        return [obj]
    if isinstance(obj, tuple):
        return [a for item in obj for a in _arrays(item)]
    if hasattr(obj, "__dataclass_fields__"):
        return [a for name in obj.__dataclass_fields__ for a in _arrays(getattr(obj, name))]
    return []


def _node_lines_rewritten(text, variant):
    """``text`` with every CART node line's fields reversed, its spaces
    doubled, or, below the root, one more space of indent (2·depth + 1,
    which still reads as depth)."""
    out = []
    for line in text.splitlines():
        body = line.lstrip(" ")
        kind, *fields = body.split(" ")
        indent = len(line) - len(body)
        if kind in ("leaf", "split") and fields and all("=" in f for f in fields):
            fields = fields[::-1] if "reordered" in variant else fields
            if indent and "indent" in variant:
                indent += 1
            line = " " * indent + ("  " if "spaced" in variant else " ").join([kind, *fields])
        out.append(line)
    return "\n".join(out) + "\n"


def _number_rows_rewritten(text, variant):
    """``text`` with every line of numbers only (mlp weight and bias rows,
    ANFIS consequent rows) split by doubled spaces or by tabs."""
    out = []
    for line in text.splitlines():
        tokens = line.split()
        try:
            [float(tok) for tok in tokens]
        except ValueError:
            out.append(line)
            continue
        out.append("  ".join(tokens) if variant == "spaced" else "\t" + "\t".join(tokens))
    return "\n".join(out) + "\n"


class TestLayoutsStillAccepted:
    """The loaders read dump_tree's node lines and the numeric row blocks
    fastest as written, but still accept any field order and spacing."""

    def _same_as_canonical(self, p, edited, series):
        text = save_predictor(p)
        assert edited != text
        canonical, loaded = load_predictor(text), load_predictor(edited)
        assert save_predictor(loaded) == text
        pairs = list(zip(_arrays(canonical.engine), _arrays(loaded.engine), strict=True))
        assert pairs and all(a.dtype == b.dtype and a.shape == b.shape
                             and a.tobytes() == b.tobytes() for a, b in pairs)
        (m0, f0), (m1, f1) = predict_rates(canonical, series), predict_rates(loaded, series)
        assert m0.tobytes() == m1.tobytes() and f0.tobytes() == f1.tobytes()

    @pytest.mark.parametrize("variant", ["reordered", "spaced", "indented",
                                         "reordered-spaced-indented"])
    @pytest.mark.parametrize("kind", ["cart", "hybrid"])
    def test_node_fields_in_any_order_and_spacing(self, kind, variant, predictors, series):
        p = predictors[kind]
        self._same_as_canonical(p, _node_lines_rewritten(save_predictor(p), variant), series)

    @pytest.mark.parametrize("variant", ["spaced", "tabbed"])
    @pytest.mark.parametrize("kind", ["mlp", "anfis"])
    def test_number_rows_with_any_spacing(self, kind, variant, predictors, series):
        p = predictors[kind]
        self._same_as_canonical(p, _number_rows_rewritten(save_predictor(p), variant), series)
