"""Scaled conjugate gradients and the feedforward network it trains."""

import numpy as np
import pytest

from forexkit import scg
from forexkit.bench import cell_seed
from forexkit.data import (Dataset, FeatureSpec, apply_scaler, build_supervised,
                           fit_scaler, split)
from forexkit.scg import (MlpNetwork, ScgDivergence, dump_network, error, forward,
                          get_params, gradient, init_network, load_network,
                          scg_minimize, scg_train, set_params)
from forexkit.synth import forex5_series

from oracles import ReferenceMlp, central_difference_gradient, hessian_vector_approx


def _net(weights, biases, sizes):
    return MlpNetwork(tuple(sizes),
                      tuple(np.asarray(w, dtype=float) for w in weights),
                      tuple(np.asarray(b, dtype=float) for b in biases))


def _quadratic(A, b):
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)

    def fun(w):
        return 0.5 * w @ A @ w - b @ w

    def grad(w):
        return A @ w - b

    return fun, grad


def _spd(n, seed):
    rng = np.random.default_rng(seed)
    M = rng.normal(size=(n, n))
    return M @ M.T + n * np.eye(n)


class TestForward:
    def test_zero_weights_yield_bias(self):
        net = _net([np.zeros((1, 1))], [[0.75]], (1, 1))
        assert forward(net, np.array([3.0])) == 0.75

    def test_single_tanh_unit(self):
        net = _net([np.array([[0.5]]), np.array([[1.0]])],
                   [[0.0], [0.0]], (1, 1, 1))
        out = forward(net, np.array([1.0]))
        assert out == pytest.approx(0.46211715726000974, abs=1e-15)

    def test_output_layer_is_linear(self):
        net = _net([np.array([[100.0]])], [[0.0]], (1, 1))
        assert forward(net, np.array([2.0])) == 200.0  # no squashing

    def test_batch_matches_row_by_row(self):
        net = init_network((2, 3, 1), seed=0)
        X = np.random.default_rng(1).normal(size=(6, 2))
        batch = forward(net, X)
        singles = np.array([forward(net, row) for row in X])
        np.testing.assert_allclose(batch, singles, rtol=1e-12, atol=1e-14)

    def test_input_width_checked(self):
        net = init_network((2, 3, 1), seed=0)
        with pytest.raises(ValueError, match="expected 2 inputs"):
            forward(net, np.array([1.0]))

    @pytest.mark.parametrize("x", [2.0, np.zeros((2, 3, 2))], ids=["scalar", "3-d"])
    def test_bad_shape_names_expected_shapes(self, x):
        net = init_network((2, 3, 1), seed=0)
        with pytest.raises(ValueError, match=r"shape \(n, 2\) or \(2,\), got shape"):
            forward(net, x)


class TestInitAndParams:
    def test_init_bounds_scale_with_fan_in(self):
        net = init_network((4, 9, 1), seed=3)
        assert np.max(np.abs(net.weights[0])) <= 1.0 / np.sqrt(4)
        assert np.max(np.abs(net.weights[1])) <= 1.0 / np.sqrt(9)

    def test_init_is_deterministic(self):
        a = init_network((3, 5, 1), seed=11)
        b = init_network((3, 5, 1), seed=11)
        np.testing.assert_array_equal(get_params(a), get_params(b))

    def test_params_round_trip(self):
        net = init_network((2, 4, 3, 1), seed=5)
        flat = get_params(net)
        assert flat.size == net.n_params == (2 * 4 + 4) + (4 * 3 + 3) + (3 * 1 + 1)
        clone = set_params(net, flat)
        np.testing.assert_array_equal(get_params(clone), flat)

    def test_set_params_checks_length(self):
        net = init_network((2, 2, 1), seed=0)
        with pytest.raises(ValueError, match="parameters"):
            set_params(net, np.zeros(3))

    def test_network_shape_validation(self):
        with pytest.raises(ValueError):
            MlpNetwork((1,), (), ())
        with pytest.raises(ValueError, match="weight 0 shape"):
            _net([np.zeros((2, 2))], [np.zeros(1)], (1, 1))


class TestGradient:
    def test_zero_at_perfect_fit(self):
        net = _net([np.array([[2.0]])], [[1.0]], (1, 1))
        x = np.linspace(-1, 1, 9)
        batch = Dataset(("x",), x[:, None], 2.0 * x + 1.0)
        assert error(net, batch) < 1e-28
        assert np.linalg.norm(gradient(net, batch)) < 1e-12

    def test_matches_central_differences(self):
        net = init_network((2, 4, 1), seed=7)
        rng = np.random.default_rng(8)
        batch = Dataset(("a", "b"), rng.normal(size=(12, 2)), rng.normal(size=12))
        w0 = get_params(net)
        analytic = gradient(net, batch)
        numeric = central_difference_gradient(
            lambda w: error(set_params(net, w), batch), w0, 1e-6)
        assert np.max(np.abs(analytic - numeric)) < 1e-7

    def test_linear_net_gradient_analytic(self):
        # E = 0.5 (w x + b - t)^2 -> dE/dw = (wx+b-t) x, dE/db = (wx+b-t)
        net = _net([np.array([[3.0]])], [[0.5]], (1, 1))
        batch = Dataset(("x",), np.array([[2.0]]), np.array([1.5]))
        resid = 3.0 * 2.0 + 0.5 - 1.5
        np.testing.assert_allclose(gradient(net, batch),
                                   [resid * 2.0, resid], atol=1e-14)

    @pytest.mark.parametrize("evaluate", [error, gradient], ids=["error", "gradient"])
    def test_batch_width_checked(self, evaluate):
        batch = Dataset(("a", "b", "c"), np.zeros((4, 3)), np.zeros(4))
        with pytest.raises(ValueError, match="^expected 2 inputs, got 3$"):
            evaluate(init_network((2, 3, 1), seed=0), batch)

    def test_empty_batch_rejected(self):
        net = init_network((1, 1), seed=0)
        empty = Dataset(("x",), np.zeros((0, 1)), np.zeros(0))
        with pytest.raises(ValueError, match="empty"):
            error(net, empty)
        with pytest.raises(ValueError, match="empty"):
            gradient(net, empty)


class TestHessianVector:
    def test_exact_on_linear_network(self):
        # With identity activations the error is quadratic, so the finite
        # difference of gradients is exact for any sigma (up to rounding).
        net = _net([np.array([[1.0]])], [[0.0]], (1, 1))
        batch = Dataset(("x",), np.array([[1.0], [2.0]]), np.array([0.0, 0.0]))
        p = np.array([1.0, 1.0])
        # Hessian of 0.5*sum((w x + b)^2) is [[sum x^2, sum x], [sum x, n]]
        H = np.array([[5.0, 3.0], [3.0, 2.0]])
        got = hessian_vector_approx(net, batch, p, sigma_k=1e-5, lambda_k=0.0)
        np.testing.assert_allclose(got, H @ p, rtol=1e-6)

    def test_lambda_adds_scaled_direction(self):
        net = _net([np.array([[1.0]])], [[0.0]], (1, 1))
        batch = Dataset(("x",), np.array([[1.0]]), np.array([0.0]))
        p = np.array([2.0, 0.0])
        base = hessian_vector_approx(net, batch, p, sigma_k=1e-5, lambda_k=0.0)
        shifted = hessian_vector_approx(net, batch, p, sigma_k=1e-5, lambda_k=0.5)
        np.testing.assert_allclose(shifted - base, 0.5 * p, atol=1e-12)

    def test_error_shrinks_with_sigma(self):
        net = init_network((1, 6, 1), seed=2)
        rng = np.random.default_rng(3)
        x = rng.uniform(-1, 1, 20)
        batch = Dataset(("x",), x[:, None], np.sin(3 * x))
        p = rng.normal(size=net.n_params)

        def exact_times_p():
            eps = 1e-7
            w = get_params(net)
            gp = gradient(set_params(net, w + eps * p), batch)
            gm = gradient(set_params(net, w - eps * p), batch)
            return (gp - gm) / (2 * eps)

        ref = exact_times_p()
        err_big = np.linalg.norm(
            hessian_vector_approx(net, batch, p, sigma_k=1e-2, lambda_k=0.0) - ref)
        err_small = np.linalg.norm(
            hessian_vector_approx(net, batch, p, sigma_k=1e-4, lambda_k=0.0) - ref)
        assert err_small < err_big

    def test_argument_validation(self):
        net = init_network((1, 1), seed=0)
        batch = Dataset(("x",), np.array([[1.0]]), np.array([1.0]))
        with pytest.raises(ValueError, match="sigma_k"):
            hessian_vector_approx(net, batch, np.ones(net.n_params), sigma_k=0.0,
                                  lambda_k=0.0)
        with pytest.raises(ValueError, match="non-zero"):
            hessian_vector_approx(net, batch, np.zeros(net.n_params), sigma_k=1e-4,
                                  lambda_k=0.0)


class TestScgMinimize:
    def test_quadratic_surrogate(self):
        fun, grad = _quadratic([[4.0, 1.0], [1.0, 3.0]], [1.0, 2.0])
        res = scg_minimize(fun, grad, np.zeros(2), max_iterations=20)
        expected = np.linalg.solve([[4.0, 1.0], [1.0, 3.0]], [1.0, 2.0])
        np.testing.assert_allclose(res.w, expected, atol=1e-8)
        assert res.converged

    @pytest.mark.parametrize("n", [2, 5, 10])
    def test_conjugate_gradient_property_on_spd(self, n):
        A = _spd(n, seed=n)
        b = np.arange(1.0, n + 1.0)
        fun, grad = _quadratic(A, b)
        # exact conjugate gradients reach the minimizer in n steps; rounding
        # can leave |E'(w)| above GRAD_TOL (3e-10 at n = 10), so a larger
        # budget would go on stepping
        res = scg_minimize(fun, grad, np.zeros(n), max_iterations=n, freeze_lambda=True)
        np.testing.assert_allclose(res.w, np.linalg.solve(A, b), atol=1e-8)
        assert len(res.trace) - 1 == n

    def test_trace_is_monotone_nonincreasing(self):
        fun, grad = _quadratic(_spd(6, seed=1), np.ones(6))
        res = scg_minimize(fun, grad, np.full(6, 3.0), max_iterations=40)
        assert all(b <= a + 1e-12 for a, b in zip(res.trace, res.trace[1:]))

    def test_rejects_zero_iterations(self):
        fun, grad = _quadratic(np.eye(2), np.zeros(2))
        with pytest.raises(ValueError, match=">= 1"):
            scg_minimize(fun, grad, np.zeros(2), max_iterations=0)

    def test_rejects_a_w0_that_is_not_1d_or_2d(self):
        fun, grad = _quadratic(np.eye(2), np.zeros(2))
        with pytest.raises(ValueError, match=r"^w0 must be 1-D or 2-D, got shape \(1, 1, 2\)$"):
            scg_minimize(fun, grad, np.zeros((1, 1, 2)), max_iterations=5)

    def test_divergence_raises_with_epoch(self):
        calls = {"n": 0}

        def fun(w):
            return float(w @ w)

        def grad(w):
            calls["n"] += 1
            if calls["n"] > 1:
                return np.array([np.nan, np.nan])
            return 2 * w

        with pytest.raises(ScgDivergence) as exc:
            scg_minimize(fun, grad, np.array([1.0, 1.0]), max_iterations=50)
        assert exc.value.epoch >= 1

    def test_nonfinite_trial_point_is_rejected_not_fatal(self):
        # A cliff beyond w=10 must not kill the run: the step is rejected,
        # lambda grows, and the minimizer still lands at the optimum.
        def fun(w):
            if w[0] > 10.0:
                return float("inf")
            return float((w[0] - 3.0) ** 2)

        def grad(w):
            return np.array([2.0 * (w[0] - 3.0)])

        res = scg_minimize(fun, grad, np.array([0.0]), max_iterations=100)
        assert abs(res.w[0] - 3.0) < 1e-6

    @pytest.mark.parametrize("scalar", [np.float64, np.float32])
    def test_numpy_scalar_values(self, scalar):
        # fun may return numpy scalars, non-finite ones at a rejected trial point
        def fun(w):
            return scalar("inf") if w[0] > 10.0 else scalar((w[0] - 3.0) ** 2)

        def grad(w):
            return np.array([2.0 * (w[0] - 3.0)])

        res = scg_minimize(fun, grad, np.array([0.0]), max_iterations=100)
        assert abs(res.w[0] - 3.0) < 1e-3
        assert all(type(f) is float for f in res.trace)
        with pytest.raises(ScgDivergence, match="epoch 0"):
            scg_minimize(lambda w: scalar("nan"), grad, np.array([0.0]), max_iterations=5)


class TestScgTrain:
    def test_sin_fit_reaches_small_rmse(self):
        rng = np.random.default_rng(7)
        x = np.sort(rng.uniform(-np.pi, np.pi, 80))
        train = Dataset(("x",), x[:, None], np.sin(x))
        net = init_network((1, 8, 1), seed=7)
        net, trace = scg_train(net, train, epochs=500)
        resid = forward(net, x[:, None]) - np.sin(x)
        assert float(np.sqrt(np.mean(resid ** 2))) < 0.02
        assert all(b <= a + 1e-12 for a, b in zip(trace, trace[1:]))

    def test_seed_reinitializes_deterministically(self):
        rng = np.random.default_rng(1)
        x = rng.uniform(-1, 1, 30)
        train = Dataset(("x",), x[:, None], x ** 2)
        base = init_network((1, 4, 1), seed=99)
        a, _ = scg_train(base, train, epochs=25, seed=5)
        b, _ = scg_train(init_network((1, 4, 1), seed=0), train, epochs=25, seed=5)
        np.testing.assert_array_equal(get_params(a), get_params(b))

    def test_rejects_non_finite_training_data(self):
        X = np.linspace(-1, 1, 10)[:, None].repeat(2, axis=1)
        X[4, 1] = np.nan
        train = Dataset(("a", "b"), X, X[:, 0] ** 2)
        with pytest.raises(ValueError, match="training row 4, feature 'b' is nan"):
            scg_train(init_network((2, 3, 1), seed=0), train, epochs=5)

    @pytest.mark.parametrize("n_outputs", [5, 2])
    def test_rejects_a_multi_output_network(self, n_outputs):
        """A Dataset has one target, so a network has one output: building
        or loading a (2, 3, n) or (3, 4, n) net for n > 1 fails, and the
        loader names the layers line."""
        message = f"a network has one output, not {n_outputs}"
        for sizes in ((2, 3, n_outputs), (3, 4, n_outputs)):
            with pytest.raises(ValueError, match=message):
                init_network(sizes, seed=0)
            with pytest.raises(ValueError, match=message):
                _net([np.zeros((sizes[1], sizes[0])), np.zeros((n_outputs, sizes[1]))],
                     [np.zeros(sizes[1]), np.zeros(n_outputs)], sizes)
        lines = dump_network(init_network((2, 3, 1), seed=4)).splitlines()
        lines[1] = f"layers 2 3 {n_outputs}"
        with pytest.raises(ValueError, match=rf"^line 2: {message}"):
            load_network("\n".join(lines))

    def test_rejects_a_dataset_of_another_width(self):
        train = Dataset(("a", "b", "c"), np.zeros((6, 3)), np.zeros(6))
        with pytest.raises(ValueError, match="^expected 2 inputs, got 3$"):
            scg_train(init_network((2, 3, 1), seed=0), train, epochs=5)

    def test_epochs_validation(self):
        net = init_network((1, 1), seed=0)
        train = Dataset(("x",), np.array([[1.0]]), np.array([1.0]))
        with pytest.raises(ValueError, match="epochs"):
            scg_train(net, train, epochs=0)


class TestReferenceEquality:
    """The engine performs ReferenceMlp's floating-point operations in the
    same order, so results are compared for exact equality."""

    def test_scg_train_matches_minimizer_on_reference(self):
        series = forex5_series(seed=7)
        train, _ = split(build_supervised(series, FeatureSpec("JPY", "mp5")), 0.7, 7)
        train = apply_scaler(train, fit_scaler(train))
        self._assert_train_matches_reference(train, (train.n_features, 14, 14, 1),
                                             key=cell_seed(7, "JPY", "mlp"), epochs=250)

    @staticmethod
    def _batch(n_rows, n_features, seed):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(n_rows, n_features))
        y = np.sin(X.sum(axis=1)) + 0.1 * rng.normal(size=n_rows)
        return Dataset(tuple(f"x{j}" for j in range(n_features)), X, y)

    @staticmethod
    def _assert_train_matches_reference(train, sizes, key, epochs):
        net, trace = scg_train(init_network(sizes, seed=0), train, epochs=epochs, seed=key)
        ref = ReferenceMlp(sizes, train.features, train.targets)
        res = scg_minimize(ref.error, ref.gradient, get_params(init_network(sizes, key)),
                           max_iterations=epochs)
        np.testing.assert_array_equal(get_params(net), res.w)
        np.testing.assert_array_equal(trace, res.trace)
        return net

    # a width-1 layer's bias sum is pairwise and a wider one's in row order;
    # the width-1 hidden layers check that the width, not the position,
    # picks the sum
    @pytest.mark.parametrize("sizes, n_rows", [((3, 1), 40), ((4, 6, 5, 1), 40),
                                               ((2, 4, 1), 1), ((4, 6, 5, 1), 1),
                                               ((2, 1, 1), 5), ((2, 1, 1), 40),
                                               ((2, 4, 1, 1), 5), ((2, 4, 1, 1), 40),
                                               ((6, 14, 14, 1), 170)],
                             ids=["no-hidden", "deeper", "one-row", "deeper-one-row",
                                  "width-1-hidden-5", "width-1-hidden-40",
                                  "width-1-second-hidden-5", "width-1-second-hidden-40",
                                  "paper-shape"])
    def test_scg_train_matches_minimizer_across_shapes(self, sizes, n_rows):
        train = self._batch(n_rows, sizes[0], seed=n_rows + len(sizes))
        self._assert_train_matches_reference(train, sizes, key=11, epochs=120)

    def test_back_to_back_fits_share_no_state(self):
        # same sizes and row count, so a leaked workspace would be reusable
        sizes = (3, 5, 1)
        a, b = self._batch(30, 3, seed=1), self._batch(30, 3, seed=2)
        first = self._assert_train_matches_reference(a, sizes, key=4, epochs=80)
        self._assert_train_matches_reference(b, sizes, key=5, epochs=80)
        again = self._assert_train_matches_reference(a, sizes, key=4, epochs=80)
        np.testing.assert_array_equal(get_params(again), get_params(first))

    @pytest.mark.parametrize("sizes", [(3, 5, 1), (4, 6, 5, 1), (3, 1)])
    def test_error_gradient_forward_at_random_points(self, sizes):
        rng = np.random.default_rng(sum(sizes))
        X = rng.normal(size=(23, sizes[0]))
        y = rng.normal(size=23)
        batch = Dataset(tuple("abcd"[:sizes[0]]), X, y)
        ref = ReferenceMlp(sizes, X, y)
        base = init_network(sizes, seed=1)
        for _ in range(4):
            w = rng.normal(scale=0.8, size=base.n_params)
            net = set_params(base, w)
            np.testing.assert_array_equal(forward(net, X), ref.activations(w)[-1][:, 0])
            assert error(net, batch) == ref.error(w)
            np.testing.assert_array_equal(gradient(net, batch), ref.gradient(w))

    def test_gradient_keeps_the_references_sign_of_zero(self):
        # with a zero output weight, np.multiply's back product gives its
        # hidden unit -0.0 deltas where the reference's matrix product gives
        # +0.0; the sums over them start at +0.0, so the gradient's bytes
        # still match (assert_array_equal would take -0.0 for +0.0)
        rng = np.random.default_rng(5)
        sizes = (2, 3, 1)
        batch = Dataset(("a", "b"), rng.normal(size=(9, 2)), 10.0 + rng.random(9))
        ref = ReferenceMlp(sizes, batch.features, batch.targets)
        w = get_params(init_network(sizes, seed=2))
        w[2 * 3 + 3] = 0.0  # the first output weight
        net = set_params(init_network(sizes, seed=2), w)
        assert (ref.activations(w)[-1][:, 0] < batch.targets).all()
        assert gradient(net, batch).tobytes() == ref.gradient(w).tobytes()

    def test_hessian_vector_unchanged(self):
        rng = np.random.default_rng(4)
        batch = Dataset(("a", "b"), rng.normal(size=(19, 2)), rng.normal(size=19))
        net = init_network((2, 5, 1), seed=4)
        p = rng.normal(size=net.n_params)
        ref = ReferenceMlp((2, 5, 1), batch.features, batch.targets)
        w = get_params(net)
        expected = (ref.gradient(w + 1e-3 * p) - ref.gradient(w)) / 1e-3 + 0.25 * p
        np.testing.assert_array_equal(
            hessian_vector_approx(net, batch, p, sigma_k=1e-3, lambda_k=0.25), expected)


class TestActivationMemo:
    @staticmethod
    def _batch(seed):
        rng = np.random.default_rng(seed)
        return Dataset(("a", "b"), rng.normal(size=(15, 2)), rng.normal(size=15))

    def test_returned_networks_see_in_place_edits(self):
        batch = self._batch(0)
        trained, _ = scg_train(init_network((2, 4, 1), seed=3), batch, epochs=20)
        for net in (trained, set_params(trained, get_params(trained)),
                    init_network((2, 4, 1), seed=3), load_network(dump_network(trained))):
            e_before, g_before = error(net, batch), gradient(net, batch)
            net.weights[0][0, 0] += 0.5
            fresh = set_params(net, get_params(net))
            assert error(net, batch) != e_before
            assert error(net, batch) == error(fresh, batch)
            assert not np.array_equal(gradient(net, batch), g_before)
            np.testing.assert_array_equal(gradient(net, batch), gradient(fresh, batch))

    @pytest.mark.parametrize("count", [1, 3], ids=["single", "stack-of-three"])
    def test_scg_train_reuses_a_forward_pass_only_at_the_same_bits(self, monkeypatch,
                                                                    count):
        """One forward pass (two tanh calls, one per hidden layer) per run of
        evaluations at the same parameter bits: the gradient at an accepted
        point reuses the pass fun just made there, and new bits never do."""
        sizes = (2, 4, 3, 1)
        nets = [init_network(sizes, seed=5 + i) for i in range(count)]
        trains = [self._batch(i) for i in range(count)]
        real_tanh, real_error, real_gradient = np.tanh, scg.error, scg.gradient
        tanh_calls, evaluated = [0], []

        def tanh(*args, **kwargs):
            tanh_calls[0] += 1
            return real_tanh(*args, **kwargs)

        def params(net):
            return b"".join(a.tobytes() for a in (*net.weights, *net.biases))

        def counting_error(net, batch):
            evaluated.append(params(net))
            return real_error(net, batch)

        def counting_gradient(net, batch):
            evaluated.append(params(net))
            return real_gradient(net, batch)

        monkeypatch.setattr(np, "tanh", tanh)
        monkeypatch.setattr(scg, "error", counting_error)
        monkeypatch.setattr(scg, "gradient", counting_gradient)
        if count == 1:
            _, trace = scg_train(nets[0], trains[0], epochs=40)
            rejected = sum(a == b for a, b in zip(trace, trace[1:]))
        else:
            _, traces = scg_train(nets, trains, epochs=40)
            rejected = sum(a == b for t in traces for a, b in zip(t, t[1:]))
        changes = 1 + sum(a != b for a, b in zip(evaluated, evaluated[1:]))
        assert tanh_calls[0] == 2 * changes
        assert changes < len(evaluated)  # some gradient did reuse a pass
        assert rejected > 0  # and some step was rejected, so new bits followed it


class TestTrainingEvaluations:
    """scg_train evaluates only through the module attributes scg.error and
    scg.gradient, which is where a tracer wraps them."""

    @staticmethod
    def _counting(monkeypatch):
        calls = {"error": 0, "gradient": 0, "returned": []}
        real_error, real_gradient = scg.error, scg.gradient

        def counting_error(net, batch):
            calls["error"] += 1
            return real_error(net, batch)

        def counting_gradient(net, batch):
            calls["gradient"] += 1
            g = real_gradient(net, batch)
            calls["returned"].append((g, g.copy()))
            return g

        monkeypatch.setattr(scg, "error", counting_error)
        monkeypatch.setattr(scg, "gradient", counting_gradient)
        return calls

    @staticmethod
    def _train():
        rng = np.random.default_rng(6)
        return Dataset(("a", "b"), rng.normal(size=(25, 2)), rng.normal(size=25))

    def test_every_evaluation_goes_through_module_attributes(self, monkeypatch):
        train, sizes = self._train(), (2, 4, 1)
        ref = ReferenceMlp(sizes, train.features, train.targets)
        ref_calls = {"error": 0, "gradient": 0}

        def ref_error(w):
            ref_calls["error"] += 1
            return ref.error(w)

        def ref_gradient(w):
            ref_calls["gradient"] += 1
            return ref.gradient(w)

        scg_minimize(ref_error, ref_gradient, get_params(init_network(sizes, 3)),
                     max_iterations=60)
        calls = self._counting(monkeypatch)
        scg_train(init_network(sizes, seed=3), train, epochs=60)
        assert ref_calls["error"] > 0 and ref_calls["gradient"] > 0
        assert (calls["error"], calls["gradient"]) == (ref_calls["error"],
                                                       ref_calls["gradient"])

    def test_returned_gradients_are_never_overwritten(self, monkeypatch):
        calls = self._counting(monkeypatch)
        scg_train(init_network((2, 4, 1), seed=3), self._train(), epochs=60)
        returned = calls["returned"]
        assert len(returned) > 2
        for g, at_return in returned:
            np.testing.assert_array_equal(g, at_return)
        for (g, _), (h, _) in zip(returned, returned[1:]):
            assert not np.shares_memory(g, h)


def _huber(center):
    """Pseudo-Huber loss: from far away, SCG's quadratic model overshoots
    and the step is rejected."""
    center = np.asarray(center, dtype=float)

    def fun(w):
        return float(np.sum(np.sqrt(1.0 + (w - center) ** 2)))

    def grad(w):
        return (w - center) / np.sqrt(1.0 + (w - center) ** 2)

    return fun, grad


def _stacked(funs, grads):
    """fun and grad of a lockstep stack whose row i is (funs[i], grads[i])."""
    return (lambda W: [f(w) for f, w in zip(funs, W)],
            lambda W: np.array([g(w) for g, w in zip(grads, W)]))


def _rejections(trace):
    """Iterations whose step was rejected: a rejection keeps the error."""
    return [k for k in range(1, len(trace)) if trace[k] == trace[k - 1]]


class TestLockstep:
    """scg_minimize on a (K, n) w0: each row is bit for bit its own run."""

    @staticmethod
    def _assert_rows_match_solo(funs, grads, W0, **kw):
        results = scg_minimize(*_stacked(funs, grads), W0, **kw)
        assert len(results) == len(funs)
        for fun, grad, w0, res in zip(funs, grads, W0, results):
            solo = scg_minimize(fun, grad, w0, **kw)
            np.testing.assert_array_equal(res.w, solo.w)
            assert res.trace == solo.trace
            assert res.converged == solo.converged
        return results

    def test_a_row_that_converges_early_stops_alone(self):
        n = 6
        b = np.arange(1.0, n + 1.0)
        quadratics = [_quadratic(3.0 * np.eye(n), b), _quadratic(_spd(n, seed=1), b),
                      _quadratic(_spd(n, seed=2), -b)]
        results = self._assert_rows_match_solo(
            [f for f, _ in quadratics], [g for _, g in quadratics], np.zeros((3, n)),
            max_iterations=n, freeze_lambda=True)
        early, *rest = results
        # a multiple of the identity is solved by the first step
        assert early.converged and len(early.trace) == 2
        assert all(len(res.trace) >= len(early.trace) + 3 for res in rest)
        np.testing.assert_allclose(early.w, b / 3.0, atol=1e-12)

    def test_only_one_row_rejects_a_step(self):
        far = 8.0

        def huber_grad(w, grad=_huber([1.0, -2.0])[1]):
            # never asked for at the far, rejected trial points
            return np.full(2, np.nan) if np.abs(w).max() > far else grad(w)

        quadratic = _quadratic([[4.0, 1.0], [1.0, 3.0]], [1.0, 2.0])
        smooth = _huber([0.5, 0.5])
        results = self._assert_rows_match_solo(
            [_huber([1.0, -2.0])[0], quadratic[0], smooth[0]],
            [huber_grad, quadratic[1], smooth[1]],
            np.array([[6.0, 4.0], [0.0, 0.0], [0.7, 0.2]]), max_iterations=30)
        rejecting, *others = results
        assert _rejections(rejecting.trace) == [1, 2, 3, 14]
        assert all(_rejections(res.trace) == [] for res in others)

    def test_divergence_names_the_row_and_its_epoch(self):
        fun, grad = _huber([1.0, -2.0])

        def failing_grad(w):
            return np.full(2, np.nan) if fun(w) < 2.2 else grad(w)

        with pytest.raises(ScgDivergence) as alone:
            scg_minimize(fun, failing_grad, np.array([6.0, 4.0]), max_iterations=30)
        assert alone.value.epoch == 8 and alone.value.row == 0
        quadratic = _quadratic(_spd(2, seed=3), [1.0, 1.0])
        with pytest.raises(ScgDivergence, match="gradient diverged at epoch 8") as stacked:
            scg_minimize(*_stacked([quadratic[0], fun, _huber([0.0, 0.0])[0]],
                                   [quadratic[1], failing_grad, _huber([0.0, 0.0])[1]]),
                         np.array([[1.0, 1.0], [6.0, 4.0], [3.0, -3.0]]), max_iterations=30)
        assert (stacked.value.epoch, stacked.value.row) == (8, 1)

    def test_non_finite_start_names_the_row(self):
        fun, grad = _quadratic(np.eye(2), np.zeros(2))
        with pytest.raises(ScgDivergence, match="training error diverged at epoch 0") as exc:
            scg_minimize(lambda W: [fun(W[0]), np.inf], lambda W: W.copy(),
                         np.ones((2, 2)), max_iterations=5)
        assert exc.value.row == 1
        with pytest.raises(ScgDivergence, match="gradient diverged at epoch 0") as exc:
            scg_minimize(lambda W: [fun(w) for w in W],
                         lambda W: np.array([grad(W[0]), [1.0, np.nan]]),
                         np.ones((2, 2)), max_iterations=5)
        assert exc.value.row == 1


class TestTrainingStack:
    """scg_train on sequences of networks and datasets."""

    # (2, 1) makes no back product, (2, 4, 1) only the output layer's outer
    # product, and (2, 5, 3, 1) a hidden layer's np.matmul one as well; the
    # width-1 hidden layers take the output layer's pairwise bias sum
    SIZES = pytest.mark.parametrize(
        "sizes, n_rows",
        [((2, 1), 25), ((2, 4, 1), 25), ((2, 5, 3, 1), 25), ((2, 1, 1), 5), ((2, 1, 1), 40),
         ((2, 4, 1, 1), 5), ((2, 4, 1, 1), 40), ((6, 14, 14, 1), 170)],
        ids=["no-hidden", "one-hidden", "two-hidden", "width-1-hidden-5", "width-1-hidden-40",
             "width-1-second-hidden-5", "width-1-second-hidden-40", "paper-shape"])

    @staticmethod
    def _batches(n_rows=25, count=3, width=2):
        rng = np.random.default_rng(9)
        return [Dataset(tuple(f"x{j}" for j in range(width)), rng.normal(size=(n_rows, width)),
                        rng.normal(size=n_rows))
                for _ in range(count)]

    @staticmethod
    def _nets(count=3, sizes=(2, 4, 1)):
        return [init_network(sizes, seed=20 + i) for i in range(count)]

    @SIZES
    def test_each_network_matches_its_own_fit(self, sizes, n_rows):
        trains, nets = self._batches(n_rows, width=sizes[0]), self._nets(sizes=sizes)
        trained, traces = scg_train(nets, trains, epochs=60)
        assert isinstance(trained, list) and isinstance(traces, list)
        for net, train, got, trace in zip(nets, trains, trained, traces):
            alone, alone_trace = scg_train(net, train, epochs=60)
            np.testing.assert_array_equal(get_params(got), get_params(alone))
            assert trace == alone_trace

    @SIZES
    def test_stacked_evaluations_are_one_call_each(self, monkeypatch, sizes, n_rows):
        """One scg.error / scg.gradient call per stacked evaluation, as many
        as the lockstep minimizer makes on the reference evaluations, and no
        returned gradient is written afterwards."""
        trains, nets = self._batches(n_rows, width=sizes[0]), self._nets(sizes=sizes)
        refs = [ReferenceMlp(sizes, t.features, t.targets) for t in trains]
        ref_calls = {"error": 0, "gradient": 0}

        def ref_error(W):
            ref_calls["error"] += 1
            return [ref.error(w) for ref, w in zip(refs, W)]

        def ref_gradient(W):
            ref_calls["gradient"] += 1
            return np.array([ref.gradient(w) for ref, w in zip(refs, W)])

        expected = scg_minimize(ref_error, ref_gradient,
                                np.array([get_params(n) for n in nets]), max_iterations=60)
        calls = TestTrainingEvaluations._counting(monkeypatch)
        trained, traces = scg_train(nets, trains, epochs=60)
        assert ref_calls["error"] == 61
        assert (calls["error"], calls["gradient"]) == (ref_calls["error"],
                                                       ref_calls["gradient"])
        for got, trace, res in zip(trained, traces, expected):
            np.testing.assert_array_equal(get_params(got), res.w)
            assert trace == list(res.trace)
        returned = calls["returned"]
        for g, at_return in returned:
            assert g.shape == (3, nets[0].n_params)
            np.testing.assert_array_equal(g, at_return)
        for (g, _), (h, _) in zip(returned, returned[1:]):
            assert not np.shares_memory(g, h)

    @pytest.mark.parametrize("nets, trains, message", [
        (2, 3, "2 networks for 3 datasets"),
        (0, 0, "0 networks for 0 datasets"),
        ("sizes", 2, "share their layer sizes"),
        (2, "rows", "row count"),
        (2, "width", "row count and width"),
    ])
    def test_stack_shape_checked(self, nets, trains, message):
        nets = ([init_network((2, 4, 1), 0), init_network((2, 5, 1), 0)] if nets == "sizes"
                else self._nets(nets))
        if trains == "rows":
            trains = self._batches(25, 1) + self._batches(30, 1)
        elif trains == "width":
            trains = self._batches(25, 1) + [Dataset(("a", "b", "c"), np.zeros((25, 3)),
                                                     np.zeros(25))]
        else:
            trains = self._batches(25, trains)
        with pytest.raises(ValueError, match=message):
            scg_train(nets, trains, epochs=5)


class TestSerialization:
    def test_round_trip_bit_identical(self):
        net = init_network((2, 5, 3, 1), seed=13)
        clone = load_network(dump_network(net))
        assert clone.layer_sizes == net.layer_sizes
        X = np.random.default_rng(14).normal(size=(50, 2))
        np.testing.assert_array_equal(forward(net, X), forward(clone, X))
        assert dump_network(clone) == dump_network(net)

    def test_dump_header(self):
        net = init_network((2, 3, 1), seed=0)
        lines = dump_network(net).splitlines()
        assert lines[0] == "mlp-network v1"
        assert lines[1] == "layers 2 3 1"

    def test_load_rejects_bad_header(self):
        with pytest.raises(ValueError, match="mlp-network"):
            load_network("weights 0\n")

    def test_every_truncation_names_the_missing_line(self):
        lines = dump_network(init_network((2, 3, 1), seed=4)).splitlines()
        for cut in range(len(lines)):
            with pytest.raises(ValueError, match=rf"^line {cut + 1}: "):
                load_network("\n".join(lines[:cut]))

    @pytest.mark.parametrize("index, token, message", [
        (3, "nan", "non-finite"),      # a weight
        (4, "inf", "non-finite"),
        (7, "-inf", "non-finite"),     # a bias
        (5, "0.5x", "not a number"),
        (5, None, "expected 2 values"),
        (1, "3.5", "layers"),
        (2, "4", "expected 'weights 0 3 2'"),
        (6, "2", "expected 'biases 0 3'"),
    ])
    def test_bad_token_names_its_line(self, index, token, message):
        lines = dump_network(init_network((2, 3, 1), seed=4)).splitlines()
        tokens = lines[index].split()
        if token is None:
            tokens.pop()
        else:
            tokens[-1] = token
        lines[index] = " ".join(tokens)
        with pytest.raises(ValueError, match=rf"^line {index + 1}: .*{message}"):
            load_network("\n".join(lines))

    def test_line_numbers_count_blank_lines(self):
        lines = dump_network(init_network((2, 3, 1), seed=4)).splitlines()
        with pytest.raises(ValueError, match=r"^line 14: trailing"):
            load_network("\n".join(lines) + "\n\nextra\n")
