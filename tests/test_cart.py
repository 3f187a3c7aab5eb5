"""Regression trees: growing, cost-complexity pruning, selection, dumps."""

import io

import numpy as np
import pytest

from forexkit import cart, data, hybrid, synth
from forexkit.bench import ExperimentConfig, prepare_cell
from forexkit.cart import (CartConfig, best_split, dump_tree, evaluate_sequence,
                           grow, load_tree, prune_sequence, relative_error_curve,
                           select_min_cost)
from forexkit.data import Dataset
from forexkit.kinds import KINDS

from oracles import ReferenceCart, brute_force_best_split, sse_of


def _dataset(X, y, names=None):
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        X = X[:, None]
    names = tuple(names or (f"x{i}" for i in range(X.shape[1])))
    return Dataset(names, X, np.asarray(y, dtype=float))


def _plateau_dataset(n_per=30, levels=(1.0, 2.0, 3.0, 4.0), seed=0):
    rng = np.random.default_rng(seed)
    xs, ys = [], []
    for i, level in enumerate(levels):
        xs.append(rng.uniform(i, i + 1, n_per))
        ys.append(np.full(n_per, level))
    return _dataset(np.concatenate(xs), np.concatenate(ys))


class TestCartConfig:
    @pytest.mark.parametrize("gain", [-1.0, float("nan")])
    def test_min_split_gain_must_be_nonnegative(self, gain):
        with pytest.raises(ValueError, match="min_split_gain"):
            CartConfig(min_split_gain=gain)

    def test_max_depth_must_be_nonnegative(self):
        with pytest.raises(ValueError, match="max_depth"):
            CartConfig(max_depth=-1)
        assert CartConfig(max_depth=0).max_depth == 0


class TestBestSplit:
    def test_matches_exhaustive_on_seeded_samples(self):
        cfg = CartConfig(min_node_size=1)
        for seed in range(25):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(5, 80))
            d = int(rng.integers(1, 4))
            X = rng.normal(size=(n, d))
            if seed % 3 == 0:  # force duplicate feature values
                X = np.round(X, 1)
            y = rng.normal(size=n)
            got = best_split(_dataset(X, y), cfg)
            want = brute_force_best_split(X, y, min_node_size=1)
            assert got == pytest.approx(want), f"seed {seed}"

    def test_known_four_point_split(self):
        ds = _dataset([1.0, 2.0, 3.0, 4.0], [0.0, 0.0, 1.0, 1.0])
        var, threshold, reduction = best_split(ds, CartConfig(min_node_size=1))
        assert var == 0
        assert threshold == pytest.approx(2.5)
        assert reduction == pytest.approx(1.0)

    def test_constant_target_yields_none(self):
        ds = _dataset([1.0, 2.0, 3.0], [5.0, 5.0, 5.0])
        assert best_split(ds, CartConfig(min_node_size=1)) is None

    def test_single_row_yields_none(self):
        assert best_split(_dataset([1.0], [2.0]), CartConfig(min_node_size=1)) is None

    def test_constant_feature_yields_none(self):
        ds = _dataset([2.0, 2.0, 2.0, 2.0], [1.0, 2.0, 3.0, 4.0])
        assert best_split(ds, CartConfig(min_node_size=1)) is None

    def test_min_node_size_filters_thresholds(self):
        # Only the middle threshold leaves two rows on each side.
        ds = _dataset([1.0, 2.0, 3.0, 4.0], [0.0, 10.0, 20.0, 30.0])
        var, threshold, _ = best_split(ds, CartConfig(min_node_size=2))
        assert (var, threshold) == (0, pytest.approx(2.5))

    def test_threshold_is_midpoint_of_distinct_values(self):
        ds = _dataset([0.0, 0.0, 1.0, 1.0], [0.0, 0.0, 4.0, 4.0])
        _, threshold, reduction = best_split(ds, CartConfig(min_node_size=1))
        assert threshold == pytest.approx(0.5)
        assert reduction == pytest.approx(16.0)

    def test_tie_prefers_lower_variable_index(self):
        X = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 1.0], [1.0, 1.0]])
        y = np.array([0.0, 0.0, 1.0, 1.0])
        var, _, _ = best_split(_dataset(X, y), CartConfig(min_node_size=1))
        assert var == 0


class TestGrow:
    def test_plateaus_recovered_exactly(self):
        ds = _plateau_dataset()
        tree = grow(ds, CartConfig(min_node_size=5))
        assert tree.n_leaves == 4
        assert sorted(tree.mean[tree.var < 0]) == [1.0, 2.0, 3.0, 4.0]
        np.testing.assert_array_equal(cart.predict(tree, ds.features), ds.targets)

    def test_rejects_non_finite_training_data(self):
        """Only training rows must be finite; rows routed through a grown
        tree send NaN right (TestRouting)."""
        with pytest.raises(ValueError, match="training row 2, target is nan"):
            grow(_dataset([1.0, 2.0, 3.0, 4.0], [1.0, 2.0, np.nan, 4.0]))

    def test_constant_target_is_single_leaf(self):
        ds = _dataset([1.0, 2.0, 3.0, 4.0, 5.0], [7.0] * 5)
        tree = grow(ds, CartConfig(min_node_size=1))
        assert tree.n_leaves == 1
        assert tree.mean.tolist() == [7.0]

    def test_two_rows_split_at_min_node_size_one(self):
        tree = grow(_dataset([1.0, 2.0], [0.0, 1.0]), CartConfig(min_node_size=1))
        assert tree.n_leaves == 2

    def test_max_depth_limits_tree(self):
        ds = _plateau_dataset()
        tree = grow(ds, CartConfig(min_node_size=1, max_depth=1))
        assert tree.n_leaves == 2

    def test_min_split_gain_blocks_weak_splits(self):
        rng = np.random.default_rng(2)
        ds = _dataset(rng.uniform(0, 1, 40), rng.normal(scale=0.01, size=40))
        tree = grow(ds, CartConfig(min_node_size=5, min_split_gain=1.0))
        assert tree.n_leaves == 1

    def test_leaf_counts_partition_training_rows(self):
        ds = _plateau_dataset(seed=3)
        tree = grow(ds, CartConfig(min_node_size=5))
        assert tree.count[tree.var < 0].sum() == len(ds.targets)

    def test_leaf_ids_are_dense_left_to_right(self):
        ds = _plateau_dataset(seed=4)
        tree = grow(ds, CartConfig(min_node_size=5))
        ids = cart.node_id(tree, np.sort(ds.features, axis=0))
        assert np.all(np.diff(ids) >= 0)
        assert sorted(set(ids.tolist())) == list(range(tree.n_leaves))

    def test_node_indices_are_preorder(self):
        ds = _plateau_dataset(seed=5)
        tree = grow(ds, CartConfig(min_node_size=5))
        seen, stack = [], [0]
        while stack:  # children of node i: i + 1 and end[i + 1]
            i = stack.pop()
            seen.append(int(tree.index[i]))
            if tree.var[i] >= 0:
                stack += [int(tree.end[i + 1]), i + 1]
        assert seen == sorted(seen) == list(range(len(tree.var)))


def _grow_fit(seed):
    """A small growth problem: features and targets rounded so runs of equal
    values and pure nodes occur, with every size, depth and gain limit.  In
    every fourth seed the targets are 1e8 higher where x0 < 0, so a node's
    running sums must not carry those of the nodes before it."""
    rng = np.random.default_rng(500 + seed)
    n, d = int(rng.integers(1, 160)), int(rng.integers(1, 5))
    X = np.round(rng.normal(size=(n, d)), int(rng.integers(0, 3)))
    y = np.round(X[:, 0] + rng.normal(size=n), int(rng.integers(0, 3)))
    if seed % 4 == 1:
        y = y + 1e8 * (X[:, 0] < 0)
    cfg = CartConfig(min_node_size=int(rng.integers(1, 6)),
                     min_split_gain=(0.0, 0.05, 0.5)[seed % 3],
                     max_depth=(None, 0, 1, 3, 6)[seed % 5])
    return _dataset(X, y), cfg


class TestGrowMatchesReference:
    """Growing level by level from one sort per variable gives the tree that
    searching each node on its own and recursing gives
    (``ReferenceCart.grow``): every array, dtype and dumped float."""

    @staticmethod
    def _assert_same(train, cfg):
        got, want = grow(train, cfg), ReferenceCart.grow(train, cfg)
        for name in ("var", "threshold", "mean", "count", "sse", "index", "end"):
            a, b = getattr(got, name), getattr(want, name)
            assert (a.dtype, a.shape) == (b.dtype, b.shape), name
            assert a.tobytes() == b.tobytes(), name
        assert dump_tree(got) == dump_tree(want)

    @pytest.mark.parametrize("recipe", ["mp1", "mp5"])
    @pytest.mark.parametrize("months", [244, 976, 2440])
    def test_forex5(self, months, recipe):
        series = synth.forex5_series(7, months)
        cfg = ExperimentConfig(data_path="unused.csv", cart_recipe=recipe)
        for code in series:
            _, train, _ = prepare_cell(cfg, series, code, "cart")
            self._assert_same(train, cfg.cart_cfg)

    @pytest.mark.parametrize("seed", range(45))
    def test_random_fits_with_ties(self, seed):
        self._assert_same(*_grow_fit(seed))


class TestPredict:
    def test_boundary_goes_left(self):
        ds = _dataset([1.0, 2.0, 3.0, 4.0], [0.0, 0.0, 1.0, 1.0])
        tree = grow(ds, CartConfig(min_node_size=1))
        assert tree.threshold[0] == pytest.approx(2.5)
        assert cart.predict(tree, np.array([[2.5]]))[0] == 0.0
        assert cart.predict(tree, np.array([[2.5000001]]))[0] == 1.0

    def test_node_id_matches_leaf_of_prediction(self):
        ds = _plateau_dataset(seed=6)
        tree = grow(ds, CartConfig(min_node_size=5))
        X = np.linspace(0, 4, 23)[:, None]
        preds = cart.predict(tree, X)
        leaves = dict(enumerate(tree.mean[tree.var < 0]))
        for row, pred in zip(X, preds):
            assert leaves[cart.node_id(tree, row)] == pred

    def test_dimension_mismatch(self):
        tree = grow(_dataset([1.0, 2.0], [0.0, 1.0]), CartConfig(min_node_size=1))
        with pytest.raises(ValueError, match="expected 1 features"):
            cart.predict(tree, np.zeros((3, 2)))

    @pytest.mark.parametrize("x", [2.0, np.zeros((2, 3, 2))], ids=["scalar", "3-d"])
    @pytest.mark.parametrize("fn", [cart.predict, cart.node_id], ids=["predict", "node_id"])
    def test_bad_shape_names_expected_shapes(self, fn, x):
        rng = np.random.default_rng(14)
        tree = grow(_dataset(rng.normal(size=(30, 2)), rng.normal(size=30)))
        with pytest.raises(ValueError, match=r"shape \(n, 2\) or \(2,\), got shape"):
            fn(tree, x)


class TestRouting:
    """Vectorised predict and node_id agree with routing one row at a time."""

    @staticmethod
    def _tree():
        rng = np.random.default_rng(15)
        X = np.round(rng.uniform(0, 1, size=(80, 3)), 1)
        return grow(_dataset(X, X[:, 0] + 2 * X[:, 1] + rng.normal(size=80)),
                    CartConfig(min_node_size=2))

    def _assert_rows_agree(self, tree, X):
        root = ReferenceCart.nodes(tree)
        want = [ReferenceCart.route(root, row) for row in X]
        got_mean, got_id = cart.predict(tree, X), cart.node_id(tree, X)
        assert got_mean.dtype == float and got_id.dtype == int
        assert got_mean.tolist() == [node.mean for node in want]
        assert got_id.tolist() == [node.leaf_id for node in want]

    def test_rows_at_thresholds(self):
        tree = self._tree()
        internal = np.flatnonzero(tree.var >= 0)
        X = np.full((len(internal), 3), 0.5)
        X[np.arange(len(internal)), tree.var[internal]] = tree.threshold[internal]
        self._assert_rows_agree(tree, X)
        self._assert_rows_agree(tree, np.nextafter(X, np.inf))

    def test_nan_goes_right(self):
        tree = self._tree()
        X = np.random.default_rng(16).uniform(0, 1, size=(40, 3))
        X[::2, 0] = np.nan
        X[::3, 1] = np.nan
        X[5] = np.nan
        self._assert_rows_agree(tree, X)
        rightmost = 0
        while tree.var[rightmost] >= 0:
            rightmost = tree.end[rightmost + 1]
        assert cart.predict(tree, X[5]) == tree.mean[rightmost]

    def test_zero_rows(self):
        tree = self._tree()
        self._assert_rows_agree(tree, np.zeros((0, 3)))

    def test_one_row_returns_python_scalars(self):
        tree = self._tree()
        x = np.array([0.3, 0.7, 0.1])
        mean, leaf = cart.predict(tree, x), cart.node_id(tree, x)
        assert type(mean) is float and type(leaf) is int
        node = ReferenceCart.route(ReferenceCart.nodes(tree), x)
        assert (mean, leaf) == (node.mean, node.leaf_id)


class TestPruneSequence:
    def _noisy_tree(self, seed=1):
        rng = np.random.default_rng(seed)
        x = rng.uniform(0, 3, 90)
        y = np.where(x < 1.0, 0.0, np.where(x < 2.0, 1.0, 2.0))
        y = y + 0.15 * rng.normal(size=90)
        ds = _dataset(x, y)
        return ds, grow(ds, CartConfig(min_node_size=5))

    def test_sequence_starts_full_and_ends_at_root(self):
        ds, tree = self._noisy_tree()
        seq = prune_sequence(tree, ds)
        assert seq.entries[0].tree.n_leaves == tree.n_leaves
        assert seq.entries[0].alpha == 0.0
        assert seq.entries[-1].tree.n_leaves == 1

    def test_leaf_counts_strictly_decrease(self):
        ds, tree = self._noisy_tree(2)
        counts = [e.tree.n_leaves for e in prune_sequence(tree, ds).entries]
        assert all(a > b for a, b in zip(counts, counts[1:]))

    def test_alphas_nondecreasing(self):
        ds, tree = self._noisy_tree(3)
        alphas = [e.alpha for e in prune_sequence(tree, ds).entries]
        assert all(b >= a - 1e-12 for a, b in zip(alphas, alphas[1:]))

    def test_subtrees_are_nested(self):
        ds, tree = self._noisy_tree(4)
        seq = prune_sequence(tree, ds)
        index_sets = [set(e.tree.node_indices()) for e in seq.entries]
        for bigger, smaller in zip(index_sets, index_sets[1:]):
            assert smaller <= bigger

    def test_train_sse_nondecreasing_along_sequence(self):
        ds, tree = self._noisy_tree(5)
        seq = prune_sequence(tree, ds)
        sses = []
        for e in seq.entries:
            resid = cart.predict(e.tree, ds.features) - ds.targets
            sses.append(float(resid @ resid))
        assert all(b >= a - 1e-9 for a, b in zip(sses, sses[1:]))

    def test_weakest_link_matches_enumeration(self):
        # First collapse must be the internal node with the smallest
        # per-leaf SSE increase, checked against direct enumeration.
        ds, tree = self._noisy_tree(6)
        seq = prune_sequence(tree, ds)
        first = seq.entries[1].tree
        collapsed = set(tree.node_indices()) - set(first.node_indices())

        best_g, best = None, None
        for i in np.flatnonzero(tree.var >= 0):
            leaves = np.flatnonzero(tree.var[i:tree.end[i]] < 0) + i
            g = (tree.sse[i] - sum(tree.sse[leaves].tolist())) / (len(leaves) - 1)
            if best_g is None or g < best_g - 1e-12:
                best_g, best = g, i
        # The weakest node survives as a leaf; its descendants are removed.
        assert tree.index[best + 1] in collapsed
        assert tree.index[tree.end[best + 1]] in collapsed
        survivors = dict(zip(first.index.tolist(), first.var.tolist()))
        assert survivors[tree.index[best]] == -1
        assert seq.entries[1].alpha == pytest.approx(best_g)


class TestSelection:
    def _split_problem(self, seed=7):
        rng = np.random.default_rng(seed)
        x = rng.uniform(0, 3, 150)
        y = np.where(x < 1.5, 0.0, 2.0) + 0.4 * rng.normal(size=150)
        train = _dataset(x[:100], y[:100])
        test = _dataset(x[100:], y[100:])
        return train, test

    def test_selected_tree_minimizes_test_cost(self):
        train, test = self._split_problem()
        seq = prune_sequence(grow(train, CartConfig(min_node_size=5)), train)
        scored = evaluate_sequence(seq, test)
        chosen = select_min_cost(seq, test)
        resid = cart.predict(chosen, test.features) - test.targets
        best = min(e.test_cost for e in scored.entries)
        assert float(resid @ resid) == pytest.approx(best)

    def test_ties_prefer_fewer_leaves(self):
        # A constant-target test set costs the same for every subtree.
        train, _ = self._split_problem(8)
        test = _dataset(np.full(10, 1.0), np.full(10, 1.0))
        seq = prune_sequence(grow(train, CartConfig(min_node_size=5)), train)
        costs = [float(np.sum((cart.predict(e.tree, test.features)
                               - test.targets) ** 2)) for e in seq.entries]
        chosen = select_min_cost(seq, test)
        tied = [e.tree.n_leaves for e, c in zip(seq.entries, costs)
                if c <= min(costs) + 1e-15]
        assert chosen.n_leaves == min(tied)

    def test_sequence_scored_on_a_test_set_is_not_scored_again(self):
        train, test = self._split_problem()
        seq = prune_sequence(grow(train, CartConfig(min_node_size=5)), train)
        scored = evaluate_sequence(seq, test)
        assert scored.scored_on is test and seq.scored_on is None
        assert evaluate_sequence(scored, test) is scored
        # another test set, even with the same rows, is scored afresh
        again = evaluate_sequence(scored, _dataset(test.features[:, 0], test.targets))
        assert again is not scored
        assert [e.test_cost for e in again] == [e.test_cost for e in scored]
        assert dump_tree(select_min_cost(scored, test)) == dump_tree(select_min_cost(seq, test))
        assert relative_error_curve(scored, test) == relative_error_curve(seq, test)

    def test_cart_cell_routes_its_selection_rows_once(self, monkeypatch):
        train, test = self._split_problem()
        routed = []
        route = cart._route

        def counted(tree, X):
            routed.append(len(X))
            return route(tree, X)

        monkeypatch.setattr(cart, "_route", counted)
        cfg = ExperimentConfig(data_path="rates.csv", cart_cfg=CartConfig(min_node_size=5))
        tree, extras = KINDS["cart"].fit(cfg, train, test, None)
        assert routed == [test.n_rows]
        seq = evaluate_sequence(prune_sequence(grow(train, cfg.cart_cfg), train), test)
        assert dump_tree(tree) == dump_tree(select_min_cost(seq, test))
        assert extras["error_curves"] == relative_error_curve(seq, test)

    def test_single_entry_sequence(self):
        ds = _dataset([1.0, 2.0, 3.0], [4.0, 4.0, 4.0])
        seq = prune_sequence(grow(ds, CartConfig(min_node_size=1)), ds)
        assert len(seq.entries) == 1
        assert select_min_cost(seq, ds).n_leaves == 1


def _forex5_gbp_976():
    ds = data.build_supervised(synth.forex5_series(7, 976), data.FeatureSpec("GBP", "mp1"))
    train, test = data.split(ds, 0.7, 7)
    scaler = data.fit_scaler(train)
    return data.apply_scaler(train, scaler), data.apply_scaler(test, scaler)


def _forex5_hybrid_augmented():
    train, test = _forex5_gbp_976()
    tree = select_min_cost(prune_sequence(grow(train), train), test)
    return hybrid.augment(train, tree), hybrid.augment(test, tree)


def _random_fit(seed):
    """A small fit with duplicate features and targets in some seeds, and a
    test sample with NaN features in others."""
    rng = np.random.default_rng(100 + seed)
    n, d = int(rng.integers(8, 120)), int(rng.integers(1, 4))
    X = rng.normal(size=(n + 40, d))
    y = X[:, 0] + np.sin(3 * X[:, -1]) + 0.5 * rng.normal(size=n + 40)
    if seed % 3 == 0:
        X = np.round(X, 1)
    if seed % 4 == 0:
        y = np.round(y)
    if seed % 5 == 0:
        X[n + 1::7, 0] = np.nan
    depth = None if seed % 2 else int(rng.integers(2, 7))
    cfg = CartConfig(min_node_size=int(rng.integers(1, 7)), max_depth=depth)
    return _dataset(X[:n], y[:n]), _dataset(X[n:], y[n:]), cfg


class TestExactPruning:
    """The array pruning and single-pass scoring give what copying the tree
    after every collapse and routing every row through every subtree gives
    (``ReferenceCart``), bit for bit."""

    @staticmethod
    def _assert_same(train, test, cfg=CartConfig()):
        tree = grow(train, cfg)
        seq, ref = prune_sequence(tree, train), ReferenceCart(tree)
        assert [e.alpha for e in seq] == [alpha for _, alpha in ref.entries]
        assert [e.n_leaves for e in seq] == [ref.n_leaves(t) for t, _ in ref.entries]
        assert [e.tree.n_leaves for e in seq] == [e.n_leaves for e in seq]
        assert [e.tree.node_indices() for e in seq] == [
            ref.node_indices(t) for t, _ in ref.entries]
        assert [dump_tree(e.tree) for e in seq] == [ref.dump(t) for t, _ in ref.entries]
        assert [e.test_cost for e in evaluate_sequence(seq, test)] == ref.test_costs(test)
        assert dump_tree(select_min_cost(seq, test)) == ref.dump(ref.select(test))
        assert relative_error_curve(seq, test) == ref.curve(test)
        return seq

    def test_weakest_link_ties_collapse_first_in_preorder(self):
        ds = _dataset(np.arange(1.0, 9.0), [0, 0, 1, 1, 5, 5, 6, 6])
        seq = self._assert_same(ds, ds, CartConfig(min_node_size=1))
        assert [e.alpha for e in seq][1:3] == [1.0, 1.0]
        assert seq.entries[1].collapsed == (1,)

    def test_constant_target(self):
        ds = _dataset(np.arange(6.0), [2.5] * 6)
        assert len(self._assert_same(ds, _plateau_dataset(), CartConfig(min_node_size=1))) == 1

    def test_min_node_size_one(self):
        train, test = TestSelection()._split_problem(17)
        self._assert_same(train, test, CartConfig(min_node_size=1))

    def test_max_depth(self):
        train, test = TestSelection()._split_problem(18)
        self._assert_same(train, test, CartConfig(min_node_size=2, max_depth=3))

    @pytest.mark.parametrize("seed", range(30))
    def test_random_small_fits(self, seed):
        self._assert_same(*_random_fit(seed))

    @pytest.mark.parametrize("make", [_forex5_gbp_976, _forex5_hybrid_augmented],
                             ids=["cart", "hybrid-augmented"])
    def test_forex5_gbp_976_months(self, make):
        assert len(self._assert_same(*make())) > 50


class TestPreorderArrays:
    """Every subtree of a pruning sequence survives a dump and reload array
    for array.  The dump does not carry positions in the maximal tree, so a
    reloaded tree numbers its nodes 0..n-1, in the order ``index`` keeps."""

    _FIELDS = ("var", "threshold", "mean", "count", "sse", "end")

    @pytest.mark.parametrize("seed", [None, *range(30)])  # None: forex5 GBP, 976 months
    def test_entries_survive_dump_and_load(self, seed):
        train, _, cfg = (*_forex5_gbp_976(), CartConfig()) if seed is None else _random_fit(seed)
        seq = prune_sequence(grow(train, cfg), train)
        for k, entry in enumerate(seq):
            tree, clone = entry.tree, load_tree(dump_tree(entry.tree))
            assert (clone.n_features, clone.feature_names) == (
                tree.n_features, tree.feature_names)
            for name in self._FIELDS:
                np.testing.assert_array_equal(getattr(clone, name), getattr(tree, name),
                                              err_msg=f"entry {k}: {name}")
                assert getattr(clone, name).dtype == getattr(tree, name).dtype
            np.testing.assert_array_equal(clone.index, np.arange(len(tree.var)))
            assert np.all(np.diff(tree.index) > 0)
            if k == 0:
                np.testing.assert_array_equal(tree.index, clone.index)

    def test_arrays_are_read_only(self):
        ds = _plateau_dataset(seed=19)
        seq = prune_sequence(grow(ds, CartConfig(min_node_size=2)), ds)
        for tree in (seq.entries[0].tree, seq.entries[1].tree,
                     load_tree(dump_tree(seq.entries[0].tree))):
            for name in self._FIELDS + ("index",):
                with pytest.raises(ValueError, match="read-only"):
                    getattr(tree, name)[0] = 0


class TestRelativeErrorCurve:
    def test_root_entry_has_relative_error_one(self):
        rng = np.random.default_rng(9)
        x = rng.uniform(0, 2, 120)
        y = np.where(x < 1.0, 0.0, 3.0) + 0.2 * rng.normal(size=120)
        train = _dataset(x[:80], y[:80])
        test = _dataset(x[80:], y[80:])
        seq = prune_sequence(grow(train, CartConfig(min_node_size=5)), train)
        curve = relative_error_curve(seq, test)
        assert curve[-1][1] == pytest.approx(1.0)
        assert all(r >= 0.0 for _, r in curve)
        assert curve[0][0] == seq.entries[0].tree.n_leaves

    def test_perfect_tree_scores_zero(self):
        ds = _plateau_dataset(seed=10)
        seq = prune_sequence(grow(ds, CartConfig(min_node_size=5)), ds)
        curve = relative_error_curve(seq, ds)
        assert curve[0][1] == pytest.approx(0.0)


class TestSerialization:
    def test_round_trip_bit_identical(self):
        ds = _plateau_dataset(seed=11)
        tree = grow(ds, CartConfig(min_node_size=5))
        text = dump_tree(tree)
        clone = load_tree(io.StringIO(text).read())
        X = np.random.default_rng(12).uniform(-1, 5, size=(100, 1))
        np.testing.assert_array_equal(cart.predict(tree, X), cart.predict(clone, X))
        assert dump_tree(clone) == text

    def test_dump_header_and_indentation(self):
        ds = _dataset([1.0, 2.0, 3.0, 4.0], [0.0, 0.0, 1.0, 1.0], names=("rate",))
        tree = grow(ds, CartConfig(min_node_size=1))
        lines = dump_tree(tree).splitlines()
        assert lines[0] == "cart-tree v1"
        assert lines[1] == "features 1"
        assert lines[2] == "names rate"
        assert lines[3].startswith("split var=0 threshold=2.5")
        assert lines[4].startswith("  leaf id=0")

    def test_load_rejects_bad_header(self):
        with pytest.raises(ValueError, match="cart-tree"):
            load_tree("cart-tree v2\nfeatures 1\nnames x\nleaf id=0 mean=0 count=1 sse=0")

    def test_sse_fields_survive_round_trip(self):
        ds = _plateau_dataset(seed=13)
        tree = grow(ds, CartConfig(min_node_size=5))
        clone = load_tree(dump_tree(tree))
        assert clone.sse[0] == tree.sse[0] == pytest.approx(
            sse_of(ds.targets), abs=1e-9)
