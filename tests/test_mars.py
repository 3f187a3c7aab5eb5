"""Adaptive regression splines: hinges, forward search, GCV pruning."""

import numpy as np
import pytest

from forexkit import cart, data, hybrid, mars, marsrank, synth
from forexkit.data import Dataset
from forexkit.mars import (Hinge, HingeBasis, MarsConfig, MarsModel,
                           backward_prune, eval_hinge, fit, forward_pass, gcv)

from oracles import ReferenceMars, gcv_score, normal_equations


def _dataset(x, y, names=("x",)):
    x = np.asarray(x, dtype=float)
    X = x[:, None] if x.ndim == 1 else x
    return Dataset(names[: X.shape[1]], X, np.asarray(y, dtype=float))


def _knots(model):
    return [(h.var, h.knot, h.direction) for b in model.bases for h in b.factors]


class TestHinge:
    def test_positive_and_mirror_values(self):
        assert eval_hinge(3.0, 1.0, "positive") == 2.0
        assert eval_hinge(0.5, 1.0, "positive") == 0.0
        assert eval_hinge(0.5, 1.0, "negative") == 0.5
        assert eval_hinge(3.0, 1.0, "negative") == 0.0

    def test_zero_exactly_at_knot(self):
        assert eval_hinge(1.0, 1.0, "positive") == 0.0
        assert eval_hinge(1.0, 1.0, "negative") == 0.0

    def test_vectorized(self):
        np.testing.assert_array_equal(
            eval_hinge(np.array([0.0, 1.0, 2.0]), 1.0, "positive"),
            np.array([0.0, 0.0, 1.0]))

    def test_rejects_unknown_direction(self):
        with pytest.raises(ValueError, match="direction"):
            eval_hinge(1.0, 0.0, "sideways")


class TestHingeBasis:
    def test_constant_basis_column(self):
        X = np.zeros((4, 2))
        np.testing.assert_array_equal(HingeBasis().column(X), np.ones(4))

    def test_product_of_factors(self):
        X = np.array([[2.0, 5.0], [0.0, 7.0]])
        b = HingeBasis((Hinge(0, 1.0, "positive"), Hinge(1, 4.0, "positive")))
        np.testing.assert_array_equal(b.column(X), np.array([1.0 * 1.0, 0.0]))
        assert [f.var for f in b.factors] == [0, 1]

    def test_variable_may_appear_once(self):
        with pytest.raises(ValueError, match="at most once"):
            HingeBasis((Hinge(0, 1.0, "positive"), Hinge(0, 2.0, "negative")))


class TestForwardPass:
    def test_capacity_counts_nonconstant_bases(self):
        rng = np.random.default_rng(0)
        x = rng.uniform(0, 1, 50)
        ds = _dataset(x, np.sin(6 * x))
        for cap in (2, 4, 6):
            model = forward_pass(ds, MarsConfig(max_basis_functions=cap))
            assert len(model.bases) - 1 <= cap

    def test_cap_one_leaves_constant_model(self):
        rng = np.random.default_rng(1)
        x = rng.uniform(0, 1, 30)
        model = forward_pass(_dataset(x, x ** 2), MarsConfig(max_basis_functions=1))
        assert len(model.bases) == 1
        assert model.bases[0].factors == ()

    def test_constant_target_stays_constant(self):
        x = np.linspace(0, 1, 20)
        model = forward_pass(_dataset(x, np.full(20, 2.5)), MarsConfig())
        assert len(model.bases) == 1
        assert model.coefficients[0] == pytest.approx(2.5, abs=1e-12)

    def test_trace_is_nonincreasing(self):
        rng = np.random.default_rng(5)
        X = rng.uniform(-1, 1, size=(60, 2))
        y = np.maximum(0, X[:, 0] - 0.2) - 2 * np.maximum(0, 0.1 - X[:, 1]) \
            + 0.05 * rng.normal(size=60)
        model = forward_pass(Dataset(("a", "b"), X, y), MarsConfig(max_basis_functions=10))
        trace = model.forward_trace
        assert len(trace) >= 2
        for prev, cur in zip(trace, trace[1:]):
            assert cur <= prev * (1 + 1e-12)

    def test_degree_capped_at_max_interaction(self):
        """The search is additive: a target that is the product of its three
        features still gets forward bases of one factor each."""
        rng = np.random.default_rng(10)
        X = rng.uniform(0, 1, size=(80, 3))
        y = X[:, 0] * X[:, 1] * X[:, 2]
        model = forward_pass(Dataset(("a", "b", "c"), X, y),
                             MarsConfig(max_basis_functions=12))
        assert len(model.bases) > 1
        assert all(len(b.factors) <= 1 for b in model.bases)


class TestKnotRecovery:
    def test_single_hinge_recovered_exactly(self):
        x = np.linspace(0, 1, 81)  # 0.5 is an observed value
        y = 2.0 * np.maximum(0.0, x - 0.5)
        model = fit(_dataset(x, y), MarsConfig(max_basis_functions=6))
        assert (0, 0.5, "positive") in _knots(model)
        resid = mars.predict(model, x[:, None]) - y
        assert float(np.sqrt(np.mean(resid ** 2))) < 1e-10

    def test_linear_data_keeps_no_interior_knots(self):
        rng = np.random.default_rng(3)
        x = rng.uniform(0, 1, 64)
        y = 3.0 * x + 1.0
        model = fit(_dataset(x, y), MarsConfig(max_basis_functions=6))
        interior = [k for _, k, _ in _knots(model) if x.min() < k < x.max()]
        assert interior == []
        resid = mars.predict(model, x[:, None]) - y
        assert float(np.sqrt(np.mean(resid ** 2))) < 1e-10

    def test_mirror_pair_spans_a_vee(self):
        x = np.linspace(-1, 1, 41)  # 0.0 observed
        y = np.abs(x)
        model = fit(_dataset(x, y), MarsConfig(max_basis_functions=4))
        directions = {d for _, k, d in _knots(model) if k == 0.0}
        assert directions == {"positive", "negative"}
        resid = mars.predict(model, x[:, None]) - y
        assert np.max(np.abs(resid)) < 1e-10


class TestGcvAndPruning:
    def test_gcv_matches_oracle(self):
        for mse, n, r in [(0.5, 100, 1), (0.25, 50, 5), (1.0, 30, 7)]:
            assert gcv(mse, n, r, 3.0) == pytest.approx(gcv_score(mse, n, r, 3.0))

    def test_gcv_saturated_model_is_infinite(self):
        assert gcv(0.1, 10, 10, 3.0) == float("inf")

    def test_prune_drops_pure_noise_basis(self):
        rng = np.random.default_rng(8)
        x = np.linspace(0, 1, 101)
        y = 2.0 * np.maximum(0.0, x - 0.5) + 0.01 * rng.normal(size=101)
        grown = forward_pass(_dataset(x, y), MarsConfig(max_basis_functions=12))
        pruned = backward_prune(grown, _dataset(x, y), MarsConfig(max_basis_functions=12))
        assert len(pruned.bases) < len(grown.bases)
        scores = [s for _, s in pruned.pruning_trace]
        best = min(scores)
        full_cols_mse = pruned.training_mse
        assert gcv(full_cols_mse, 101, len(pruned.bases), 3.0) == pytest.approx(best)

    def test_prune_trace_covers_every_subset_size(self):
        rng = np.random.default_rng(12)
        x = rng.uniform(0, 1, 60)
        y = np.sin(5 * x)
        model = fit(_dataset(x, y), MarsConfig(max_basis_functions=8))
        sizes = [size for size, _ in model.pruning_trace]
        assert sizes[0] >= sizes[-1] == 1
        assert sizes == sorted(sizes, reverse=True)

    def test_coefficients_match_normal_equations(self):
        rng = np.random.default_rng(6)
        x = rng.uniform(0, 2, 70)
        y = np.maximum(0, x - 1.0) + 0.1 * rng.normal(size=70)
        model = fit(_dataset(x, y), MarsConfig(max_basis_functions=6))
        B = model.design_matrix(x[:, None])
        np.testing.assert_allclose(model.coefficients, normal_equations(B, y),
                                   rtol=1e-8, atol=1e-10)


class TestPredict:
    def test_scalar_and_batch_forms(self):
        model = MarsModel((HingeBasis(), HingeBasis((Hinge(0, 1.0, "positive"),))),
                          np.array([1.0, 2.0]), 1, 0.0)
        assert mars.predict(model, np.array([3.0])) == 5.0
        np.testing.assert_array_equal(
            mars.predict(model, np.array([[0.0], [2.0]])), np.array([1.0, 3.0]))

    def test_dimension_mismatch(self):
        model = MarsModel((HingeBasis(),), np.array([1.0]), 2, 0.0)
        with pytest.raises(ValueError, match="expected 2 features"):
            mars.predict(model, np.array([1.0]))

    @pytest.mark.parametrize("x", [2.0, np.zeros((2, 3, 2))], ids=["scalar", "3-d"])
    def test_bad_shape_names_expected_shapes(self, x):
        model = MarsModel((HingeBasis(),), np.array([1.0]), 2, 0.0)
        with pytest.raises(ValueError, match=r"shape \(n, 2\) or \(2,\), got shape"):
            mars.predict(model, x)


class TestValidation:
    def test_config_bounds(self):
        with pytest.raises(ValueError):
            MarsConfig(max_basis_functions=0)

    @pytest.mark.parametrize("penalty", [-1.0, float("nan"), float("inf")])
    def test_gcv_penalty_must_be_nonnegative(self, penalty):
        with pytest.raises(ValueError, match="gcv_penalty"):
            MarsConfig(gcv_penalty=penalty)

    def test_forward_needs_rows(self):
        with pytest.raises(ValueError, match="2 rows"):
            forward_pass(_dataset(np.array([1.0]), np.array([1.0])), MarsConfig())

    @pytest.mark.parametrize("where,value,message", [
        ("target", np.inf, "training row 3, target is inf"),
        ("feature", np.nan, "training row 3, feature 'x' is nan")])
    def test_fit_rejects_non_finite_training_data(self, where, value, message):
        x = np.linspace(0, 1, 20)
        y = x ** 2
        (y if where == "target" else x)[3] = value
        with pytest.raises(ValueError, match=message):
            fit(_dataset(x, y))


def _scaled_split(series, code, recipe="mp1"):
    ds = data.build_supervised(series, data.FeatureSpec(code, recipe))
    train, test = data.split(ds, 0.7, 7)
    scaler = data.fit_scaler(train)
    return data.apply_scaler(train, scaler), data.apply_scaler(test, scaler)


def _synthetic(seed, n, kinds):
    """Features of the given kinds and a target with hinges, an interaction
    and noise; 'ties' columns hold one-decimal values, so runs of equal x."""
    rng = np.random.default_rng(seed)
    cols = {"uniform": lambda: rng.uniform(0, 1, n),
            "ties": lambda: np.round(rng.uniform(0, 1, n), 1),
            "binary": lambda: (rng.uniform(size=n) < 0.3).astype(float),
            "constant": lambda: np.full(n, 0.7)}
    X = np.column_stack([cols[k]() for k in kinds])
    y = np.maximum(0, X[:, 0] - 0.4) - X[:, 0] * X[:, -1] + 0.1 * rng.normal(size=n)
    names = tuple(f"x{i}" for i in range(len(kinds)))
    return Dataset(names, X[: 2 * n // 3], y[: 2 * n // 3]), \
        Dataset(names, X[2 * n // 3:], y[2 * n // 3:])


def _exact_grid():
    for kinds in (("uniform", "ties", "ties"), ("ties", "binary", "constant", "uniform")):
        yield (f"{'-'.join(kinds)}-i1-gcv",
               lambda kinds=kinds: _synthetic(len(kinds), 240, kinds), MarsConfig())
    yield ("step7-i1-gcv", lambda: _scaled_split(synth.make_recipe("step7"), "STEP"),
           MarsConfig())


def _hybrid_forex5(months, code):
    """The hybrid's MARS input: features plus one-hot leaf columns, each a
    block of two knots."""
    train, test = _scaled_split(synth.forex5_series(7, months), code)
    tree = cart.select_min_cost(cart.prune_sequence(cart.grow(train), train), test)
    return hybrid.augment(train, tree), hybrid.augment(test, tree)


_GRID = list(_exact_grid()) + [
    ("hybrid-forex5-976-i1-gcv", lambda: _hybrid_forex5(976, "GBP"), MarsConfig())]


class TestExactSearch:
    """The sweep-ranked forward search and the QR-ranked pruning re-score
    their winners exactly, so they pick what scoring every candidate densely
    picks: the same dump and traces, float for float."""

    @staticmethod
    def _assert_same(train, cfg):
        got = fit(train, cfg)
        want = ReferenceMars(cfg).fit(train)
        assert mars.dump_model(got) == mars.dump_model(want)
        assert got.forward_trace == want.forward_trace
        assert got.pruning_trace == want.pruning_trace

    @pytest.mark.parametrize("name,make,cfg", _GRID, ids=[g[0] for g in _GRID])
    def test_grid_matches_reference(self, name, make, cfg):
        train, _ = make()
        self._assert_same(train, cfg)

    def test_random_small_fits_match_reference(self):
        rng = np.random.default_rng(2024)
        kinds = ("uniform", "ties", "binary", "constant")
        for seed in range(30):
            picked = tuple(rng.choice(kinds, size=int(rng.integers(1, 4))))
            train, _ = _synthetic(seed, int(rng.integers(12, 120)), ("uniform",) + picked)
            cfg = MarsConfig(max_basis_functions=int(rng.integers(2, 20)))
            self._assert_same(train, cfg)

    @pytest.mark.parametrize("seed", range(6))
    def test_inf_gcv_subsets_drop_the_first_column(self, seed):
        """Eight rows: every subset of three or more bases has GCV inf, so
        each of those steps drops column 1, near the lowest SSE or not."""
        rng = np.random.default_rng(seed)
        x = rng.uniform(0, 1, 8)
        train = _dataset(x, np.sin(6 * x) + 0.1 * rng.normal(size=8))
        cfg = MarsConfig(max_basis_functions=6)
        self._assert_same(train, cfg)
        assert [s for _, s in fit(train, cfg).pruning_trace[:4]] == [float("inf")] * 4

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="with one x orders of magnitude beyond the rest, the grown Q "
                              "can judge a hinge dependent that a fresh QR keeps")
    def test_far_outlier_forward_pass_matches_reference(self):
        """x uniform on (0, 1) but its largest value at 1e4, 1e5 or 1e6: a
        known divergence from the dense search.  A change that mends it makes
        this test pass, which the strict mark reports."""
        cfg, differ = MarsConfig(max_basis_functions=10), []
        for seed in range(6):
            for far in (1e4, 1e5, 1e6):
                rng = np.random.default_rng(seed)
                x = np.sort(rng.uniform(0, 1, 120))
                y = np.maximum(0.0, x - 0.5) + 0.05 * rng.normal(size=120)
                x[-1], y[-1] = far, 3.0
                train = _dataset(x, y)
                if mars.dump_model(forward_pass(train, cfg)) != \
                        mars.dump_model(ReferenceMars(cfg).forward_pass(train)):
                    differ.append((seed, far))
        assert not differ


def _block_terms(block, Q, r, qr):
    """A sweep block's (a, b, c, rp, rm, |u+|^2, |u-|^2, det, num) at every
    knot, without the extras its gains use."""
    return block._terms(Q, r, qr)[0]


def _dense(x, knots, Q, r):
    """The dense gains of one variable x's knots."""
    return mars._pair_gains(x[:, None], np.zeros(len(knots), int), knots, Q, r)


def _shaky(x, knots, Q):
    """Knots whose dense a or c, scaled by how collinear the pair is, keep
    at most 1e-6 of |u+|^2 or |u-|^2: their fast terms lost that share of
    their digits to cancellation."""
    up = np.maximum(0.0, x[:, None] - knots)
    um = np.maximum(0.0, knots - x[:, None])
    vp, vm = up - Q @ (Q.T @ up), um - Q @ (Q.T @ um)
    a, b, c = (vp * vp).sum(0), (vp * vm).sum(0), (vm * vm).sum(0)
    norm_p, norm_m = (up * up).sum(0), (um * um).sum(0)
    det = a * c - b * b
    paired = (a > 0) & (c > 0) & (det > 1e-12 * a * c)
    collinear = np.where(paired, det / np.where(paired, a * c, 1.0), 1.0)
    return (a * collinear <= 1e-6 * norm_p) & (norm_p > 0) \
        | (c * collinear <= 1e-6 * norm_m) & (norm_m > 0)


class TestClosedForms:
    """The sweep blocks' running-sum terms and the drop ranker's SSEs against
    the dense projections and explicit refits they replace."""

    @staticmethod
    def _assert_block_matches_dense(block, x, knots, Q, r):
        """Every term near the dense one, and every fast gain within its
        bound err of the dense gain."""
        terms = _block_terms(block, Q, r, Q.T @ r)
        up = np.maximum(0.0, x[:, None] - knots)
        um = np.maximum(0.0, knots - x[:, None])
        vp, vm = up - Q @ (Q.T @ up), um - Q @ (Q.T @ um)
        a, b, c = (vp * vp).sum(0), (vp * vm).sum(0), (vm * vm).sum(0)
        rp, rm = vp.T @ r, vm.T @ r
        dense = (a, b, c, rp, rm, (up * up).sum(0), (um * um).sum(0),
                 a * c - b * b, c * rp ** 2 - 2 * b * rp * rm + a * rm ** 2)
        shaky = _shaky(x, knots, Q)
        assert shaky.mean() < 0.2
        for name, fast, want in zip("a b c rp rm norm_p norm_m det num".split(), terms, dense):
            np.testing.assert_allclose(fast[~shaky], want[~shaky], rtol=1e-9, err_msg=name)
            np.testing.assert_allclose(fast, want, rtol=0, atol=1e-9 * np.abs(want).max(),
                                       err_msg=name)
        fast, err = block.gains(Q, r, Q.T @ r)
        want = _dense(x, knots, Q, r)
        assert np.all(np.abs(fast - want) <= err)
        assert np.isfinite(err).mean() > 0.8

    @pytest.mark.parametrize("seed", range(6))
    def test_sweep_terms_match_dense_projections(self, seed):
        rng = np.random.default_rng(seed)
        n, m = 150, 1 + seed
        z = rng.uniform(0, 1, n)
        # odd seeds: Q also spans a hinge of another variable, zero on about
        # 40% of the rows
        cols = [np.ones(n)] + [np.maximum(0.0, z - 0.4)] * (seed % 2)
        Q, _ = np.linalg.qr(np.column_stack(cols + [rng.normal(size=(n, m - len(cols)))]))
        x = np.round(rng.uniform(0, 1, n), 2)  # ties
        r = rng.normal(size=n)  # need not be orthogonal to Q
        orders = marsrank.knot_order(x[:, None])
        block = marsrank.SweepBlock(x[:, None], [0], orders, m)
        self._assert_block_matches_dense(block, x, orders[0][1], Q, r)

    def test_sweep_block_tracks_appended_columns(self):
        """One block kept while Q gains eleven columns, one or two at a time,
        matches the dense projections at every step."""
        rng = np.random.default_rng(11)
        n = 160
        hinge = np.maximum(0.0, rng.uniform(0, 1, n) - 0.3)  # of another variable
        Q, _ = np.linalg.qr(np.column_stack([np.ones(n), hinge, rng.normal(size=(n, 10))]))
        x = np.round(rng.uniform(0, 1, n), 2)  # ties
        orders = marsrank.knot_order(x[:, None])
        block = marsrank.SweepBlock(x[:, None], [0], orders, 12)
        for m in (1, 3, 5, 6, 8, 10, 11, 12):
            r = rng.normal(size=n)
            self._assert_block_matches_dense(block, x, orders[0][1], Q[:, :m], r)
            assert block.m == m

    def test_stacked_block_matches_single_variable_blocks(self):
        """A block over three variables of 160, 79 and 11 knots, the last two
        with ties, gives each variable the terms and bounds of a block of it
        alone, as Q grows and the search appends some of its hinges.  err is
        hi - fast, so it rounds in ulps of fast."""
        rng = np.random.default_rng(13)
        n = 160
        X = np.column_stack([rng.uniform(0, 1, n), np.round(rng.uniform(0, 1, n), 2),
                             np.round(rng.uniform(0, 1, n), 1)])
        hinge = np.maximum(0.0, rng.uniform(0, 1, n) - 0.3)  # of another variable
        Q, _ = np.linalg.qr(np.column_stack([np.ones(n), hinge, rng.normal(size=(n, 6))]))
        orders = marsrank.knot_order(X)
        assert len({len(k) for _, k, _ in orders}) == 3
        stacked = marsrank.SweepBlock(X, [0, 1, 2], orders, 8)
        single = [marsrank.SweepBlock(X, [v], orders, 8) for v in range(3)]
        for m in (1, 4, 8):
            if m == 8:  # hinges that became columns of the design
                for v, (_, knots, _) in enumerate(orders):
                    stacked.appended(v, knots[3], v % 2)
                    single[v].appended(v, knots[3], v % 2)
            r = rng.normal(size=n)
            qr = Q[:, :m].T @ r
            terms = _block_terms(stacked, Q[:, :m], r, qr)
            gains = stacked.gains(Q[:, :m], r, qr)
            for v, block in enumerate(single):
                span = stacked.spans[v]
                for got, want in zip(terms, _block_terms(block, Q[:, :m], r, qr)):
                    np.testing.assert_allclose(got[span], want, rtol=1e-9)
                (fast, err), (want_fast, want_err) = gains, block.gains(Q[:, :m], r, qr)
                np.testing.assert_allclose(fast[span], want_fast, rtol=1e-9)
                close = np.isclose(err[span], want_err, rtol=1e-9,
                                   atol=8 * np.spacing(np.abs(want_fast)))
                assert close.all(), (err[span][~close], want_err[~close])

    @staticmethod
    def _refit_sse(B, y):
        return np.sum((y - B @ np.linalg.lstsq(B, y, rcond=None)[0]) ** 2)

    @staticmethod
    def _hinge_design(seed, m):
        rng = np.random.default_rng(seed)
        n = 80
        x = rng.uniform(0, 1, (n, 1))
        knots = np.linspace(0.1, 0.9, m - 1) + rng.uniform(-0.02, 0.02, m - 1)
        B = np.column_stack([np.ones(n), np.maximum(0.0, x - knots)])
        return B, np.sin(4 * x[:, 0]) + 0.1 * rng.normal(size=n)

    @pytest.mark.parametrize("seed", range(6))
    def test_drop_one_sse_matches_refits(self, seed):
        B, y = self._hinge_design(seed, 2 + 3 * seed)
        want = [self._refit_sse(np.delete(B, j, 1), y) for j in range(B.shape[1])]
        got = marsrank.DropRanker(B, y).drop_one_sse()
        assert got is not None
        np.testing.assert_allclose(got, want, rtol=1e-9)

    @pytest.mark.parametrize("seed", range(3))
    def test_drop_one_sse_matches_refits_through_an_elimination(self, seed):
        """Downdated column by column down to one, the ranker's SSEs match
        refits of the retained columns at every step."""
        B, y = self._hinge_design(seed, 16)
        rng = np.random.default_rng(seed)
        ranker = marsrank.DropRanker(B, y)
        retained = list(range(B.shape[1]))
        while len(retained) > 1:
            sub = B[:, retained]
            np.testing.assert_allclose(ranker.sse, self._refit_sse(sub, y), rtol=1e-9)
            want = [self._refit_sse(np.delete(sub, j, 1), y) for j in range(len(retained))]
            np.testing.assert_allclose(ranker.drop_one_sse(), want, rtol=1e-9)
            j = int(rng.integers(len(retained)))
            ranker.drop(j)
            del retained[j]
        np.testing.assert_allclose(ranker.sse, self._refit_sse(B[:, retained], y), rtol=1e-9)

    def test_drop_one_sse_declines_ill_conditioned(self):
        """An all but collinear pair is declined; once one of it is dropped,
        the downdated R ranks the rest again."""
        x = np.linspace(0, 1, 30)
        B = np.column_stack([np.ones(30), x, x + 1e-12 * x ** 2])
        y = np.sin(x)
        ranker = marsrank.DropRanker(B, y)
        assert ranker.drop_one_sse() is None
        ranker.drop(2)
        want = [self._refit_sse(B[:, [j]], y) for j in (1, 0)]
        np.testing.assert_allclose(ranker.drop_one_sse(), want, rtol=1e-9)

    def test_pair_gains_of_joined_blocks_match_single_blocks(self):
        """One projection of several blocks side by side gives each block's
        gains as scoring it alone does, and as the reference's projection
        of both members at every knot does.  The blocks: a binary column,
        ties, three levels, a one-hot leaf column and a block of all the
        knots of a continuous column, whose end knots sit at its extremes,
        so one member there is zero on every row and is left out."""
        rng = np.random.default_rng(5)
        n = 120
        z = rng.uniform(0, 1, n)
        X = np.column_stack([(rng.uniform(size=n) < 0.3).astype(float),
                             np.round(rng.uniform(0, 1, n), 1),
                             rng.integers(0, 3, n).astype(float),
                             ((z > 0.2) & (z <= 0.6)).astype(float),
                             rng.uniform(-1, 1, n)])
        hinge = np.maximum(0.0, rng.uniform(0, 1, n) - 0.3)  # of another variable
        Q, _ = np.linalg.qr(np.column_stack([np.ones(n), hinge, rng.normal(size=(n, 2))]))
        r = rng.normal(size=n)
        r -= Q @ (Q.T @ r)
        knots = [np.unique(X[:, v]) for v in range(5)]
        cols = np.repeat(np.arange(5), [len(k) for k in knots])
        joined = mars._pair_gains(X, cols, np.concatenate(knots), Q, r)
        single = np.concatenate([_dense(X[:, v], knots[v], Q, r) for v in range(5)])
        reference = ReferenceMars(MarsConfig())
        want = np.concatenate([reference._pair_gains(
            np.maximum(0.0, X[:, [v]] - knots[v]),
            np.maximum(0.0, knots[v] - X[:, [v]]), Q, r) for v in range(5)])
        assert joined.shape == (len(cols),) and np.all(single > 0.0)
        np.testing.assert_allclose(joined, single, rtol=1e-12)
        np.testing.assert_allclose(joined, want, rtol=1e-12)


class TestSweepBound:
    """SweepBlock.gains bounds each fast gain's distance from the dense
    gain, and the search re-scores only the knots whose bound reaches the
    step's surely reached gain."""

    @staticmethod
    def _watch_blocks(monkeypatch, check):
        """Run check(x, r, Q, knots, fast, err) at every many-knot variable
        of the sweep block at each step of a forward pass, before the step
        is searched."""
        sweep = mars._sweep

        def watched(X, r, qr, Q, block):
            fast, err = sweep(X, r, qr, Q, block)
            for var, span in zip(block.variables, block.spans) if block else ():
                check(X[:, var], r, Q, block.knots[span], fast[span], err[span])
            return fast, err

        monkeypatch.setattr(mars, "_sweep", watched)

    def test_bound_holds_at_every_block_of_a_forex5_fit(self, monkeypatch):
        """|fast - dense| <= err at every knot of the block at every step,
        with a finite err for over nine in ten knots of each variable."""
        train, _ = _scaled_split(synth.forex5_series(7, 976), "GBP")
        assert train.n_rows == 682
        seen = []

        def check(x, r, Q, knots, fast, err):
            dense = _dense(x, knots, Q, r)
            assert np.all(np.abs(fast - dense) <= err)
            seen.append(np.isfinite(err).mean())

        self._watch_blocks(monkeypatch, check)
        forward_pass(train, MarsConfig())
        assert len(seen) > 20 and min(seen) > 0.9

    def test_shaky_winner_beside_an_inflated_shaky_knot(self, monkeypatch):
        """x in [0, 1] and one row at 1e5, so every knot's fast terms cancel.
        At some step the dense winner is shaky, and another shaky knot's
        fast gain, inflated by cancellation, lies more than 1e-3 above the
        winner's dense gain, so a band set from fast gains would drop the
        winner.  The fit is still the reference's."""
        rng = np.random.default_rng(4)
        x = np.sort(rng.uniform(0, 1, 120))
        x[-1] = 1e5
        y = np.maximum(0, x - 0.5) * (x < 2) + 0.05 * rng.normal(size=120)
        y[-1] = 3.0
        train = _dataset(x, y)
        cfg = MarsConfig(max_basis_functions=10)
        trapped = []

        def check(x, r, Q, knots, fast, err):
            dense = _dense(x, knots, Q, r)
            shaky = _shaky(x, knots, Q)
            win = int(np.argmax(dense))
            inflated = shaky & (fast > (1 + 1e-3) * dense[win])
            inflated[win] = False
            trapped.append(bool(shaky[win] and inflated.any() and fast[win] < fast.max()))

        self._watch_blocks(monkeypatch, check)
        got = fit(train, cfg)
        assert any(trapped)
        want = ReferenceMars(cfg).fit(train)
        assert mars.dump_model(got) == mars.dump_model(want)
        assert got.forward_trace == want.forward_trace
        assert got.pruning_trace == want.pruning_trace

    def test_one_block_per_forward_pass(self, monkeypatch):
        """Over the forex5 GBP mp5 forward pass, one SweepBlock is made, over
        all six variables, and every step sweeps it."""
        train, _ = _scaled_split(synth.forex5_series(7, 244), "GBP", "mp5")
        made, swept = [], []
        block, sweep = mars.SweepBlock, mars._sweep

        def counted(*args):
            made.append(block(*args))
            return made[-1]

        def watched(X, r, qr, Q, block):
            swept.append(block)
            return sweep(X, r, qr, Q, block)

        monkeypatch.setattr(mars, "SweepBlock", counted)
        monkeypatch.setattr(mars, "_sweep", watched)
        forward_pass(train, MarsConfig())
        assert len(made) == 1 and made[0].variables == list(range(6))
        assert len(swept) > 2 and all(b is made[0] for b in swept)

    @staticmethod
    def _dense_count(monkeypatch, train, cfg):
        """Knots a forward pass scores densely."""
        scored = []
        dense = mars._pair_gains

        def counted(X, cols, knots, Q, r):
            scored.append(len(knots))
            return dense(X, cols, knots, Q, r)

        monkeypatch.setattr(mars, "_pair_gains", counted)
        forward_pass(train, cfg)
        return sum(scored)

    @pytest.mark.parametrize("recipe, most", [("mp1", 170), ("mp5", 150)], ids=["mp1", "mp5"])
    def test_dense_rescores_stay_under_the_recorded_count(self, monkeypatch, recipe, most):
        """The 682-row forex5 GBP forward pass scores 158 knots densely with
        numpy 2.4 and OpenBLAS on x86-64 (185 with a line per block, 1,884
        when every shaky knot was re-scored); over mp5's six-variable block,
        135."""
        train, _ = _scaled_split(synth.forex5_series(7, 976), "GBP", recipe)
        assert 0 < self._dense_count(monkeypatch, train, MarsConfig()) <= most
