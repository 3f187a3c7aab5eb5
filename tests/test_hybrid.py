"""Tree-guided spline hybrid: augmentation, fitting, composition."""

import numpy as np
import pytest

from forexkit import cart, hybrid, mars
from forexkit.cart import CartConfig, grow
from forexkit.data import Dataset
from forexkit.hybrid import augment, dump_hybrid, fit_hybrid, load_hybrid
from forexkit.mars import MarsConfig


def _dataset(x, y, provenance=None):
    x = np.asarray(x, dtype=float)
    X = x[:, None] if x.ndim == 1 else x
    return Dataset(("x",)[: X.shape[1]] or ("x",), X, np.asarray(y, dtype=float),
                   provenance=provenance)


def _steps_problem(seed=11):
    """Three plateau segments plus a ramp on the last one."""
    rng = np.random.default_rng(seed)
    x = np.sort(rng.uniform(0, 3, 120))
    y = np.where(x < 1.0, 0.5, 2.0) + np.where(x > 2.0, 1.5 * (x - 2.0), 0.0)
    train = _dataset(x[:84], y[:84])
    test = _dataset(x[84:], y[84:])
    return train, test


def _three_leaf_tree(seed=0):
    rng = np.random.default_rng(seed)
    x = np.sort(rng.uniform(0, 3, 90))
    y = np.where(x < 1.0, 0.0, np.where(x < 2.0, 1.0, 2.0))
    ds = _dataset(x, y)
    tree = grow(ds, CartConfig(min_node_size=5))
    assert tree.n_leaves == 3
    return ds, tree


class TestAugment:
    def test_one_hot_adds_leaf_indicator_columns(self):
        ds, tree = _three_leaf_tree()
        out = augment(ds, tree)
        assert out.n_features == 1 + 3
        assert out.feature_names == ("x", "leaf_0", "leaf_1", "leaf_2")
        extra = out.features[:, 1:]
        np.testing.assert_array_equal(extra.sum(axis=1), np.ones(len(ds.targets)))
        hot = extra.argmax(axis=1)
        for row, k in zip(ds.features, hot):
            assert cart.node_id(tree, row) == k

    def test_targets_and_original_columns_bit_exact(self):
        ds, tree = _three_leaf_tree(1)
        out = augment(ds, tree)
        assert out.features[:, 0].tobytes() == ds.features[:, 0].tobytes()
        assert out.targets.tobytes() == ds.targets.tobytes()

    def test_provenance_preserved(self):
        rng = np.random.default_rng(2)
        x = np.sort(rng.uniform(0, 3, 40))
        y = np.where(x < 1.5, 0.0, 1.0)
        ds = _dataset(x, y, provenance=np.arange(100, 140))
        tree = grow(ds, CartConfig(min_node_size=5))
        out = augment(ds, tree)
        np.testing.assert_array_equal(out.provenance, ds.provenance)

    def test_augment_twice_is_identical(self):
        ds, tree = _three_leaf_tree(4)
        a = augment(ds, tree)
        b = augment(ds, tree)
        assert a.features.tobytes() == b.features.tobytes()

    def test_dimension_mismatch_rejected(self):
        ds, tree = _three_leaf_tree(5)
        wide = Dataset(("a", "b"), np.zeros((4, 2)), np.zeros(4))
        with pytest.raises(ValueError, match="tree expects"):
            augment(wide, tree)


class TestFitHybrid:
    def test_exact_on_plateaus_with_small_spline_budget(self):
        # Indicator columns turn three plateaus into a linear problem.  The
        # greedy forward pass spends two slots on an x hinge pair first, then
        # one slot per indicator; pruning keeps only the indicators.
        ds, _ = _three_leaf_tree(7)
        model = fit_hybrid(ds, ds, CartConfig(min_node_size=5),
                           MarsConfig(max_basis_functions=5))
        resid = hybrid.predict(model, ds.features) - ds.targets
        assert float(np.sqrt(np.mean(resid ** 2))) < 1e-8
        vars_used = {model.augmented_names[h.var]
                     for b in model.mars.bases for h in b.factors}
        assert vars_used & {"leaf_0", "leaf_1", "leaf_2"}

    def test_linear_data_not_worse_than_plain_spline(self):
        rng = np.random.default_rng(8)
        x = np.sort(rng.uniform(0, 1, 100))
        y = 2.0 * x + 1.0
        train = _dataset(x[:70], y[:70])
        test = _dataset(x[70:], y[70:])
        h = fit_hybrid(train, test, CartConfig(min_node_size=5),
                       MarsConfig(max_basis_functions=10))
        m = mars.fit(train, MarsConfig(max_basis_functions=10))
        rh = hybrid.predict(h, test.features) - test.targets
        rm = mars.predict(m, test.features) - test.targets
        assert np.sqrt(np.mean(rh ** 2)) <= np.sqrt(np.mean(rm ** 2)) * 1.05 + 1e-12

    def test_beats_both_parents_on_plateau_plus_ramp(self):
        train, test = _steps_problem()
        cart_cfg = CartConfig(min_node_size=5)
        mars_cfg = MarsConfig(max_basis_functions=10)
        h = fit_hybrid(train, test, cart_cfg, mars_cfg)
        m = mars.fit(train, mars_cfg)
        seq = cart.prune_sequence(cart.grow(train, cart_cfg), train)
        t = cart.select_min_cost(seq, test)

        def rmse(pred):
            return float(np.sqrt(np.mean((pred - test.targets) ** 2)))

        r_h = rmse(hybrid.predict(h, test.features))
        r_m = rmse(mars.predict(m, test.features))
        r_t = rmse(cart.predict(t, test.features))
        assert r_h <= min(r_m, r_t) + 1e-9

    def test_empty_train_rejected(self):
        empty = Dataset(("x",), np.zeros((0, 1)), np.zeros(0))
        test = _dataset(np.array([1.0]), np.array([1.0]))
        with pytest.raises(ValueError, match="empty"):
            fit_hybrid(empty, test)

    def test_only_the_one_hot_encoding_is_accepted(self):
        train, test = _steps_problem()
        with pytest.raises(ValueError, match="'leaf_prediction'"):
            fit_hybrid(train, test, CartConfig(), MarsConfig(), "leaf_prediction")


class TestComposition:
    def test_predict_equals_spline_on_augmented_features(self):
        train, test = _steps_problem(12)
        model = fit_hybrid(train, test, CartConfig(min_node_size=5),
                           MarsConfig(max_basis_functions=8))
        X = np.random.default_rng(13).uniform(-0.5, 3.5, size=(100, 1))
        direct = hybrid.predict(model, X)
        via_parts = mars.predict(
            model.mars, hybrid._augment_features(X, model.cart))
        assert direct.tobytes() == via_parts.tobytes()

    def test_single_vector_form(self):
        train, test = _steps_problem(14)
        model = fit_hybrid(train, test)
        single = hybrid.predict(model, np.array([1.5]))
        batch = hybrid.predict(model, np.array([[1.5]]))
        assert isinstance(single, float)
        assert single == batch[0]

    def test_dimension_mismatch(self):
        train, test = _steps_problem(15)
        model = fit_hybrid(train, test)
        with pytest.raises(ValueError, match="expected 1 features"):
            hybrid.predict(model, np.zeros((5, 2)))

    def test_scalar_and_3d_input_get_the_tree_shape_error(self):
        train, test = _steps_problem(15)
        model = fit_hybrid(train, test)
        for x in (2.0, np.zeros((2, 3, 1))):
            with pytest.raises(ValueError, match=r"expected an array of shape \(n, 1\)"):
                hybrid.predict(model, x)


class TestSerialization:
    def test_round_trip_bit_identical(self):
        train, test = _steps_problem(16)
        model = fit_hybrid(train, test, CartConfig(min_node_size=5),
                           MarsConfig(max_basis_functions=8))
        clone = load_hybrid(dump_hybrid(model))
        assert clone.augmented_names == model.augmented_names
        X = np.random.default_rng(17).uniform(0, 3, size=(100, 1))
        assert hybrid.predict(model, X).tobytes() == hybrid.predict(clone, X).tobytes()
        assert dump_hybrid(clone) == dump_hybrid(model)

    def test_one_hot_leaf_round_trips(self):
        train, test = _steps_problem(18)
        model = fit_hybrid(train, test)
        text = dump_hybrid(model)
        assert text.splitlines()[1] == "encoding one_hot_leaf"
        clone = load_hybrid(text)
        x = np.array([0.7])
        assert hybrid.predict(model, x) == hybrid.predict(clone, x)

    def test_load_rejects_bad_header(self):
        with pytest.raises(ValueError, match="hybrid-cart-mars"):
            load_hybrid("encoding one_hot_leaf\n")

    def test_load_rejects_missing_sections(self):
        with pytest.raises(ValueError, match="encoding"):
            load_hybrid("hybrid-cart-mars v1\nnot-encoding x\n")
