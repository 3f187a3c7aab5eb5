"""Acceptance gate: ten end-to-end guarantees, one verdict line each.

Every test prints ``[criterion NN] PASS`` or ``... FAIL`` to the real stdout
(capture temporarily disabled) so the verdicts always appear in the session
log, then asserts.  Tolerances are pinned here and nowhere else; loosening
them is an API break.
"""

import time

import numpy as np
import pytest

from forexkit import anfis, cart, charts, hybrid, mars, scg
from forexkit.bench import ExperimentConfig, run_bench
from forexkit.cart import CartConfig, best_split, grow, prune_sequence, select_min_cost
from forexkit.data import (Dataset, FeatureSpec, apply_scaler,
                           build_supervised, fit_scaler, split)
from forexkit.hybrid import fit_hybrid
from forexkit.mars import MarsConfig
from forexkit.predictor import Predictor, load_predictor, predict_scaled, save_predictor
from forexkit.scg import scg_minimize
from forexkit.synth import STEP7_LEVELS, forex5_series, step7_series, write_rates_csv

from oracles import (brute_force_best_split, central_difference_gradient,
                     hessian_vector_approx, normal_equations, stack_of_one,
                     with_consequents)


@pytest.fixture
def verdict(capfd):
    def _report(num: int, ok: bool, detail: str = ""):
        line = f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'}"
        if detail:
            line += f"  ({detail})"
        with capfd.disabled():
            print(line, flush=True)
        assert ok, line

    return _report


def _rmse(pred, targets) -> float:
    return float(np.sqrt(np.mean((np.asarray(pred) - targets) ** 2)))


# --- 01: split search equals exhaustive enumeration ------------------------------

def test_criterion_01_split_search_matches_enumeration(verdict):
    started = time.perf_counter()
    mismatches = []
    for seed in range(50):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(10, 201))
        d = int(rng.integers(1, 5))
        X = rng.normal(size=(n, d))
        if seed % 2 == 0:
            X = np.round(X, 1)  # force duplicate values and midpoint ties
        y = rng.normal(size=n)
        min_node = 1 if seed % 3 else 5
        got = best_split(Dataset(tuple(f"x{i}" for i in range(d)), X, y),
                         CartConfig(min_node_size=min_node))
        want = brute_force_best_split(X, y, min_node_size=min_node)
        if (got is None) != (want is None):
            mismatches.append((seed, got, want))
        elif got is not None:
            var_ok = got[0] == want[0] and got[1] == want[1]
            red_ok = abs(got[2] - want[2]) <= 1e-9 * max(1.0, abs(want[2]))
            if not (var_ok and red_ok):
                mismatches.append((seed, got, want))
    elapsed = time.perf_counter() - started
    ok = not mismatches and elapsed < 10.0
    verdict(1, ok, f"50 seeded datasets, {elapsed:.2f}s"
             + (f", first mismatch {mismatches[0]}" if mismatches else ""))


# --- 02: seven plateaus recovered end to end --------------------------------------

def test_criterion_02_seven_plateaus_recovered(verdict):
    series = {"STEP": step7_series()}
    ds = build_supervised(series, FeatureSpec("STEP", "mp1"))
    train, test = split(ds, 0.7, 7)
    seq = prune_sequence(grow(train, CartConfig(min_node_size=5)), train)
    tree = select_min_cost(seq, test)
    means = sorted(tree.mean[tree.var < 0].tolist())
    ok = (tree.n_leaves == 7
          and len(means) == len(STEP7_LEVELS)
          and all(abs(m - lv) <= 1e-10 for m, lv in zip(means, STEP7_LEVELS)))
    verdict(2, ok, f"{tree.n_leaves} leaves, means {[round(m, 4) for m in means]}")


# --- 03: hinge knot recovery / no spurious knots ----------------------------------

def test_criterion_03_knot_recovery_and_linear_data(verdict):
    x = np.linspace(0.0, 1.0, 81)  # 0.5 is an observed value
    hinge_ds = Dataset(("x",), x[:, None], 2.0 * np.maximum(0.0, x - 0.5))
    model = mars.fit(hinge_ds, MarsConfig(max_basis_functions=6))
    knots = [(h.knot, h.direction) for b in model.bases for h in b.factors]
    hinge_ok = ((0.5, "positive") in knots
                and _rmse(mars.predict(model, x[:, None]), hinge_ds.targets) < 1e-8)

    rng = np.random.default_rng(3)
    xl = rng.uniform(0.0, 1.0, 64)
    linear_ds = Dataset(("x",), xl[:, None], 3.0 * xl + 1.0)
    linear = mars.fit(linear_ds, MarsConfig(max_basis_functions=6))
    interior = [h.knot for b in linear.bases for h in b.factors
                if xl.min() < h.knot < xl.max()]
    linear_ok = interior == []
    verdict(3, hinge_ok and linear_ok,
             f"hinge knots {sorted(set(k for k, _ in knots))}, "
             f"interior on linear data {interior}")


# --- 04: forward pass never increases training error ------------------------------

def test_criterion_04_forward_pass_monotone(verdict):
    violations = []
    for seed in range(20):
        rng = np.random.default_rng(1000 + seed)
        n = int(rng.integers(30, 121))
        d = int(rng.integers(1, 4))
        X = rng.uniform(-1, 1, size=(n, d))
        y = (np.maximum(0, X[:, 0] - 0.1)
             - 1.5 * np.maximum(0, -0.2 - X[:, 0])
             + (X[:, 1] if d > 1 else 0.0)
             + 0.1 * rng.normal(size=n))
        model = mars.forward_pass(Dataset(tuple(f"x{i}" for i in range(d)), X, y),
                                  MarsConfig(max_basis_functions=10))
        trace = model.forward_trace
        for prev, cur in zip(trace, trace[1:]):
            if cur > prev * (1.0 + 1e-12):
                violations.append((seed, prev, cur))
    verdict(4, not violations, "20 seeded problems"
             + (f", first violation {violations[0]}" if violations else ""))


# --- 05: conjugate descent solves quadratics; curvature products check out --------

def test_criterion_05_conjugate_descent_quadratics(verdict):
    details = []
    quad_ok = True
    for n in (2, 5, 10):
        rng = np.random.default_rng(n)
        M = rng.normal(size=(n, n))
        A = M @ M.T + n * np.eye(n)
        b = np.arange(1.0, n + 1.0)
        res = scg_minimize(lambda w: float(0.5 * w @ A @ w - b @ w),
                           lambda w: A @ w - b,
                           np.zeros(n), max_iterations=n + 2,
                           freeze_lambda=True)
        err = float(np.max(np.abs(res.w - np.linalg.solve(A, b))))
        details.append(f"n={n}:{err:.1e}")
        quad_ok = quad_ok and err <= 1e-8

    # exact curvature products on a quadratic error surface (linear network)
    net = scg.MlpNetwork((2, 1), (np.array([[0.3, -0.2]]),), (np.array([0.1]),))
    rng = np.random.default_rng(0)
    X = rng.uniform(-1, 1, size=(20, 2))
    batch = Dataset(("a", "b"), X, rng.uniform(-1, 1, 20))
    D = np.concatenate([X, np.ones((20, 1))], axis=1)
    H = D.T @ D
    p = rng.normal(size=3)
    hv = hessian_vector_approx(net, batch, p, sigma_k=1e-3, lambda_k=0.0)
    hv_err = float(np.max(np.abs(hv - H @ p)))
    hv_ok = hv_err <= 1e-10

    # first-order convergence in sigma on a curved (tanh) network
    mlp = scg.init_network((1, 6, 1), seed=2)
    xs = rng.uniform(-1, 1, 20)
    curved = Dataset(("x",), xs[:, None], np.sin(3 * xs))
    pm = rng.normal(size=mlp.n_params)
    w0 = scg.get_params(mlp)

    def exact(p_vec):
        eps = 1e-7
        gp = scg.gradient(scg.set_params(mlp, w0 + eps * p_vec), curved)
        gm = scg.gradient(scg.set_params(mlp, w0 - eps * p_vec), curved)
        return (gp - gm) / (2 * eps)

    ref = exact(pm)
    err_s = np.linalg.norm(
        hessian_vector_approx(mlp, curved, pm, sigma_k=1e-2, lambda_k=0.0) - ref)
    err_h = np.linalg.norm(
        hessian_vector_approx(mlp, curved, pm, sigma_k=5e-3, lambda_k=0.0) - ref)
    ratio = err_h / err_s
    order_ok = 0.4 <= ratio <= 0.6
    verdict(5, quad_ok and hv_ok and order_ok,
             f"{' '.join(details)}, hv_err={hv_err:.1e}, sigma ratio={ratio:.3f}")


# --- 06: analytic gradients agree with central differences ------------------------

def test_criterion_06_gradients_match_finite_differences(verdict):
    net = scg.init_network((2, 4, 1), seed=7)
    rng = np.random.default_rng(8)
    batch = Dataset(("a", "b"), rng.normal(size=(12, 2)), rng.normal(size=12))
    w0 = scg.get_params(net)
    numeric = central_difference_gradient(
        lambda w: scg.error(scg.set_params(net, w), batch), w0, 1e-6)
    analytic = scg.gradient(net, batch)
    mlp_rel = float(np.max(np.abs(analytic - numeric))
                    / max(1.0, float(np.max(np.abs(numeric)))))

    X = rng.uniform(0, 1, size=(40, 2))
    ds = Dataset(("a", "b"), X, np.sin(3 * X[:, 0]) + X[:, 1] ** 2)
    model = anfis.init_model(ds, anfis.AnfisConfig(mfs_per_input=2))
    cons = rng.normal(size=model.consequents.shape)
    model = with_consequents(model, anfis.LseResult(cons[None], (cons.size,), 0))
    k = model.centers[0].size

    def sse_from_flat(flat):
        m = anfis.AnfisModel(centers=(flat[:k], flat[k:2 * k]),
                             widths=(flat[2 * k:3 * k], flat[3 * k:]),
                             consequents=model.consequents,
                             consequent=model.consequent)
        resid = anfis.predict(m, ds.features) - ds.targets
        return float(resid @ resid)

    flat0 = np.concatenate(model.centers + model.widths)
    fd = central_difference_gradient(sse_from_flat, flat0, 1e-6)
    grad_c, grad_s = anfis.premise_gradient(*stack_of_one(model, ds))
    analytic = np.concatenate([g[0] for g in (*grad_c, *grad_s)])
    anfis_rel = float(np.max(np.abs(analytic - fd))
                      / max(1.0, float(np.max(np.abs(fd)))))
    ok = mlp_rel < 1e-4 and anfis_rel < 1e-4
    verdict(6, ok, f"mlp rel={mlp_rel:.1e}, premise rel={anfis_rel:.1e}")


# --- 07: rule grid size, batch LSE, normalization ---------------------------------

def test_criterion_07_rule_grid_and_lse(verdict):
    n = 400
    rng = np.random.default_rng(11)
    X = rng.uniform(0, 1, size=(n, 2))
    y = 0.8 * X[:, 0] - 1.2 * X[:, 1] + 0.4 + 0.05 * rng.normal(size=n)
    ds = Dataset(("a", "b"), X, y)
    model = anfis.init_model(ds, anfis.AnfisConfig(mfs_per_input=4))
    rules_ok = model.n_rules == 16

    # Half-width memberships keep the rule design well conditioned, so the
    # textbook normal equations are trustworthy to well below the tolerance.
    narrow = anfis.AnfisModel(centers=model.centers,
                              widths=tuple(0.5 * s for s in model.widths),
                              consequents=model.consequents,
                              consequent=model.consequent)
    res = anfis.lse_consequents(*stack_of_one(narrow, ds))
    w = anfis._normalized_batch(narrow, X)
    base = np.concatenate([X, np.ones((n, 1))], axis=1)
    design = (w[:, :, None] * base[:, None, :]).reshape(n, -1)
    oracle = normal_equations(design, y)
    lse_err = float(np.max(np.abs(res.consequents.ravel() - oracle)))
    lse_ok = lse_err <= 1e-8

    probe = np.random.default_rng(12).uniform(-0.5, 1.5, size=(10_000, 2))
    sums = anfis._normalized_batch(model, probe).sum(axis=1)
    sum_err = float(np.max(np.abs(sums - 1.0)))
    sums_ok = sum_err <= 1e-12
    verdict(7, rules_ok and lse_ok and sums_ok,
             f"rules={model.n_rules}, lse_err={lse_err:.1e}, sum_err={sum_err:.1e}")


# --- 08: the hybrid beats or matches its parents ----------------------------------

def _plateau_ramp(seed: int, noise: float, n: int = 160):
    rng = np.random.default_rng(seed)
    x = np.sort(rng.uniform(0, 3, n))
    y = np.where(x < 1.0, 0.5, 2.0) + np.where(x > 2.0, 2.5 * (x - 2.0), 0.0)
    y = y + noise * rng.normal(size=x.size)
    idx = rng.permutation(n)
    k = int(round(0.7 * n))
    tr, te = np.sort(idx[:k]), np.sort(idx[k:])
    return (Dataset(("x",), x[tr][:, None], y[tr]),
            Dataset(("x",), x[te][:, None], y[te]))


def _fit_three(train, test):
    cart_cfg = CartConfig(min_node_size=8)
    mars_cfg = MarsConfig(max_basis_functions=5)
    h = fit_hybrid(train, test, cart_cfg, mars_cfg)
    m = mars.fit(train, mars_cfg)
    t = select_min_cost(prune_sequence(grow(train, cart_cfg), train), test)
    return (_rmse(hybrid.predict(h, test.features), test.targets),
            _rmse(mars.predict(m, test.features), test.targets),
            _rmse(cart.predict(t, test.features), test.targets))


def test_criterion_08_hybrid_beats_parents(verdict):
    train, test = _plateau_ramp(100, noise=0.0)
    r_h, r_m, r_t = _fit_three(train, test)
    clean_ok = r_h <= min(r_m, r_t) + 1e-9

    wins = 0
    for seed in range(100, 120):
        train, test = _plateau_ramp(seed, noise=0.05)
        r_h, r_m, r_t = _fit_three(train, test)
        wins += r_h < min(r_m, r_t)
    verdict(8, clean_ok and wins >= 12,
             f"noise-free ok={clean_ok}, noisy wins {wins}/20")


# --- 09: full benchmark, reproducible artifacts, bounded wall time -----------------

def test_criterion_09_full_benchmark_reproducible(tmp_path, verdict):
    csv_path = tmp_path / "rates.csv"
    write_rates_csv(csv_path, forex5_series(seed=7))
    started = time.perf_counter()
    outs = []
    for sub in ("run1", "run2"):
        cfg = ExperimentConfig(data_path=str(csv_path),
                               out_dir=str(tmp_path / sub))
        report, written = run_bench(cfg)
        outs.append((tmp_path / sub, report, {p.name for p in written}))
    elapsed = time.perf_counter() - started

    out_dir, report, names = outs[0]
    table = (out_dir / "table.txt").read_text()
    live_rows = [ln for ln in table.splitlines()
                 if ln.split() and ln.split()[0] in report.models]
    grid_ok = (len(report.cells) == 25
               and len(live_rows) >= 5
               and all(len(row.split()) == 6 for row in live_rows[:5]))
    charts_ok = (sum(1 for n in names if n.startswith("pred_")) == 5
                 and "relative_error.svg" in names)
    rules_ok = all(
        len((out_dir / f"anfis_rules_{c}.txt").read_text().strip().splitlines()) == 16
        for c in report.currencies)

    identical = True
    for name in sorted(names):
        a, b = out_dir / name, outs[1][0] / name
        if not a.exists():  # model dumps live under models/
            a, b = out_dir / "models" / name, outs[1][0] / "models" / name
        if name == "report.csv":
            strip = lambda t: [",".join(ln.split(",")[:4]) for ln in t.splitlines()]
            same = strip(a.read_text()) == strip(b.read_text())
        else:
            same = a.read_bytes() == b.read_bytes()
        identical = identical and same

    time_ok = elapsed < 300.0
    verdict(9, grid_ok and charts_ok and rules_ok and identical and time_ok,
             f"25 cells, {elapsed:.1f}s for two runs, "
             f"identical={identical}")


# --- 10: every serialization round-trips to bit-identical predictions --------------

def test_criterion_10_serialization_round_trips(verdict):
    series = forex5_series(seed=7)
    ds = build_supervised(series, FeatureSpec("JPY", "mp1"))
    train, test = split(ds, 0.7, 7)
    scaler = fit_scaler(train)
    strain, stest = apply_scaler(train, scaler), apply_scaler(test, scaler)
    probe = np.random.default_rng(99).uniform(0, 1, size=(100, strain.n_features))

    engines = {}
    engines["mars"] = mars.fit(strain, MarsConfig(max_basis_functions=10))
    seq = prune_sequence(grow(strain, CartConfig(min_node_size=5)), strain)
    engines["cart"] = select_min_cost(seq, stest)
    engines["hybrid"] = fit_hybrid(strain, stest,
                                   mars_cfg=MarsConfig(max_basis_functions=10))
    net = scg.init_network((strain.n_features, 6, 1), seed=5)
    engines["mlp"], _ = scg.scg_train(net, strain, epochs=50)
    engines["anfis"], _ = anfis.hybrid_train(
        strain, anfis.AnfisConfig(mfs_per_input=3, epochs=3))

    pairs = {
        "mars": (mars.dump_model, mars.load_model, mars.predict),
        "cart": (cart.dump_tree, cart.load_tree, cart.predict),
        "hybrid": (hybrid.dump_hybrid, hybrid.load_hybrid, hybrid.predict),
        "mlp": (scg.dump_network, scg.load_network, scg.forward),
        "anfis": (anfis.dump_model, anfis.load_model, anfis.predict),
    }
    bad = []
    for kind, (dump, load, predict) in pairs.items():
        clone = load(dump(engines[kind]))
        before = np.asarray(predict(engines[kind], probe))
        after = np.asarray(predict(clone, probe))
        if before.tobytes() != after.tobytes():
            bad.append(kind)
        p = Predictor(kind, "JPY", "mp1", scaler, engines[kind])
        p2 = load_predictor(save_predictor(p))
        if predict_scaled(p, probe).tobytes() != predict_scaled(p2, probe).tobytes():
            bad.append(f"predictor[{kind}]")
    verdict(10, not bad, "5 formats x 100 inputs"
             + (f", failures {bad}" if bad else ""))
