"""Feedforward tanh MLP trained by scaled conjugate gradient.

The optimizer is Moller's SCG: conjugate directions with the line search
replaced by a one-sided finite-difference estimate of the Hessian-vector
product, s_k = (E'(w_k + sigma_k p_k) - E'(w_k)) / sigma_k + lambda_k p_k,
where lambda_k is raised or lowered from the comparison parameter so that
the local quadratic model stays positive definite.  The core minimizer is
generic over (fun, grad) callables; `scg_train` binds it to the batch
half-SSE error of an MlpNetwork, whose one output is scored against a
Dataset's one target.  SIGMA0 and LAMBDA0 sit at the bounds Moller
recommends (sigma <= 1e-4, lambda_1 <= 1e-6).

With `scg_minimize(..., freeze_lambda=True)` the regulator is pinned at
zero, which on a quadratic makes every step an exact line minimum and the
direction update plain conjugate gradient — handy for convergence tests.
The number of iterations a run took is len(result.trace) - 1.

The minimizer runs a stack of K problems of one size in lockstep, each row
with its own scalar state, so each row takes exactly the steps it would
take alone; one problem is the K = 1 case.  `scg_train` given sequences of
networks and datasets trains them as such a stack: K networks of one
layer-size tuple in one (K, n_params) buffer, evaluated on K datasets of one
row count, with each layer's product run as one np.matmul over the stack.
That call makes, network by network, the BLAS call a single fit makes, so
each network gets its solo bits, while the stack pays numpy's per-call cost
and the loop's Python once per iteration instead of once per network.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .data import Batches, Dataset, as_rows, require_finite
from .dumpfmt import Lines, expect, floats, fmt


class ScgDivergence(RuntimeError):
    """Raised when the training error or gradient turns non-finite.  ``row``
    is the problem's row in a lockstep stack, 0 for a single problem."""

    def __init__(self, epoch: int, message: str, row: int = 0):
        super().__init__(message)
        self.epoch = epoch
        self.row = row


SIGMA0 = 1e-4      # finite-difference step along p, over |p|
LAMBDA0 = 1e-6     # starting regulator
GRAD_TOL = 1e-10   # converged once |E'(w)| falls below this


@dataclass(frozen=True)
class ScgResult:
    w: np.ndarray
    trace: tuple  # fun value before iteration 1, then after each iteration
    converged: bool


def scg_minimize(fun, grad, w0, *, max_iterations: int, freeze_lambda: bool = False):
    """Minimize fun(w) from w0; one iteration = one candidate step.

    The state is the weights w, the search direction p, the negative
    gradient r and the regulator pair (lam, lam_bar).  The direction
    restarts along r every w.size iterations.  When every step is accepted,
    grad gets the very array fun was evaluated at, so a (fun, grad) pair may
    share work done at the same point.

    A (K, n) w0 runs K problems in lockstep and returns one ScgResult per
    row: fun(W) gives K values and grad(W) a (K, n) array, one row per
    problem.  Each row keeps its own scalar state as Python floats, so it
    takes exactly the steps it would take alone and stops on its own.  An
    evaluation covers every row.  A row that needs no value from it sits at
    its current w (up to the sign of a zero once it has stopped), where fun
    and grad were finite, and the values it gets there are never read, so
    they never raise.  A 1-D w0 is the K = 1 case, with fun and grad taking
    1-D arrays."""
    if max_iterations < 1:
        raise ValueError("max_iterations must be >= 1 (epochs >= 1)")
    w0 = np.asarray(w0, dtype=float)
    if w0.ndim not in (1, 2):
        raise ValueError(f"w0 must be 1-D or 2-D, got shape {w0.shape}")
    if w0.ndim == 1:
        [result] = scg_minimize(lambda W: (fun(W[0]),),
                                lambda W: np.asarray(grad(W[0]), dtype=float)[None],
                                w0[None], max_iterations=max_iterations,
                                freeze_lambda=freeze_lambda)
        return result
    W = w0.copy()
    K, n = W.shape
    live = list(range(K))  # rows still stepping, in order
    results = [None] * K
    fw = np.asarray(fun(W), dtype=float).tolist()
    for i in live:
        if not math.isfinite(fw[i]):
            raise ScgDivergence(0, "training error diverged at epoch 0", i)
    # B[j] is (R, P) for the current slot j; an accepted iteration writes
    # the other slot.  Each matmul below gives every row's dot products with
    # one BLAS ddot call per row, the call a 1-D a @ b makes: R.R, R.P, P.R
    # and P.P of a slot; a slot's R with both slots' R; and a slot's P with
    # T, a scratch row per problem.  Their outputs are kept, with flat views
    # to read them through.
    B = np.empty((2, 2, K, n))
    T = np.empty((K, n))
    slots = [tuple(B[j]) for j in (0, 1)]
    slot_dots = [_products(B[j][:, None, :, None, :], B[j][None, :, :, :, None])
                 for j in (0, 1)]
    r_dots = [_products(B[j, 0][None, :, None, :], B[:, 0, :, :, None]) for j in (0, 1)]
    p_dots = [_products(B[j, 1][:, None, :], T[:, :, None]) for j in (0, 1)]
    G = np.asarray(grad(W), dtype=float)
    _check_grad(G, live, [math.nan] * K, 0)  # no dot products yet: scan every row
    np.negative(G, out=B[0, 0])
    B[0, 1] = B[0, 0]
    coef = np.empty((K, 1))  # a step length per row, times P
    lam = [0.0 if freeze_lambda else LAMBDA0] * K
    lam_bar = [0.0] * K
    success = [True] * K
    delta_raw = [0.0] * K
    p_sq = [0.0] * K
    delta, mu = [0.0] * K, [0.0] * K
    traces = [[f] for f in fw]
    j = 0

    for k in range(1, max_iterations + 1):
        R, P = slots[j]
        (r_r, _), (p_r, p_p) = slot_dots[j]()
        sigma = [0.0] * K
        probing = []  # rows that measure curvature at w + sigma p
        for i in live[:]:
            if math.sqrt(r_r[i]) < GRAD_TOL or (success[i] and p_p[i] == 0.0):
                live.remove(i)
                results[i] = ScgResult(w=W[i].copy(), trace=tuple(traces[i]), converged=True)
            elif success[i]:
                p_sq[i] = p_p[i]
                sigma[i] = SIGMA0 / math.sqrt(p_p[i])
                probing.append(i)
        if not live:
            break
        if probing:
            coef[:, 0] = sigma
            G = np.asarray(grad(_step(W, coef, P)), dtype=float)
            np.add(G, R, out=T)  # g_there - E'(w), E'(w) = -r
            p_g = p_dots[j]()
            _check_grad(G, probing, p_g, k)
        alpha = [0.0] * K
        for i in live:
            if sigma[i]:
                delta_raw[i] = p_g[i] / sigma[i]
            d = delta_raw[i] + (lam[i] - lam_bar[i]) * p_sq[i]
            if d <= 0.0 and not freeze_lambda:
                # raise lambda until the quadratic model is positive definite
                lam_bar[i] = 2.0 * (lam[i] - d / p_sq[i])
                d = -d + lam[i] * p_sq[i]
                lam[i] = lam_bar[i]
            delta[i], mu[i] = d, p_r[i]
            alpha[i] = p_r[i] / d
        coef[:, 0] = alpha
        W_new = _step(W, coef, P)
        f_new = np.asarray(fun(W_new), dtype=float).tolist()
        accepted, rejected = [], []
        for i in live:
            if math.isfinite(f_new[i]):
                comparison = 2.0 * delta[i] * (fw[i] - f_new[i]) / (mu[i] * mu[i])
            else:
                comparison = -1.0  # force rejection; lambda will rise
            if comparison >= 0.0:
                fw[i] = f_new[i]
                lam_bar[i] = 0.0
                success[i] = True
                accepted.append(i)
                if comparison >= 0.75 and not freeze_lambda:
                    lam[i] = 0.25 * lam[i]
            else:
                lam_bar[i] = lam[i]
                success[i] = False
                rejected.append(i)
            if comparison < 0.25 and not freeze_lambda:
                lam[i] = lam[i] + delta[i] * (1.0 - comparison) / p_sq[i]
            traces[i].append(fw[i])
        if accepted:
            if rejected:  # grad never sees a rejected point
                W_new = W_new.copy()
                W_new[rejected] = W[rejected]
            R_new, P_new = slots[1 - j]
            G = np.asarray(grad(W_new), dtype=float)
            np.negative(G, out=R_new)
            new_r = r_dots[1 - j]()
            new_new, new_old = new_r[1 - j], new_r[j]
            _check_grad(G, accepted, new_new, k)
            if k % n == 0:
                P_new[:] = R_new
            else:
                beta = [0.0] * K
                for i in accepted:
                    beta[i] = (new_new[i] - new_old[i]) / mu[i]
                coef[:, 0] = beta
                np.add(R_new, np.multiply(P, coef, out=P_new), out=P_new)
            if rejected:
                B[1 - j][:, rejected] = B[j][:, rejected]
            W, j = W_new, 1 - j

    for i in live:
        results[i] = ScgResult(w=W[i].copy(), trace=tuple(traces[i]), converged=False)
    return results


def _step(W, coef, P) -> np.ndarray:
    """A new array W + coef * P, with coef * P rounded first."""
    out = np.multiply(coef, P)
    return np.add(W, out, out=out)


def _products(left, right):
    """A call that runs left @ right into one kept array and returns it as
    nested lists of Python floats, without the two trailing unit axes."""
    flat = np.empty(np.broadcast_shapes(left.shape[:-2], right.shape[:-2]))
    out = flat[..., None, None]

    def run() -> list:
        np.matmul(left, right, out=out)
        return flat.tolist()

    return run


def _check_grad(G, rows, dots, epoch):
    """Raise for the first listed row of G that is not finite.  dots[i] is
    the dot product of row i with itself, or of a finite vector with row i
    plus a finite vector.  A non-finite entry makes it non-finite, so only
    rows whose dot is not finite are scanned."""
    for i in rows:
        if not math.isfinite(dots[i]) and not np.isfinite(G[i]).all():
            raise ScgDivergence(epoch, f"gradient diverged at epoch {epoch}", i)


# --- the network ---------------------------------------------------------------


@dataclass(frozen=True)
class MlpNetwork:
    """Dense tanh network with identity output; weights[i] maps layer i to i+1."""

    layer_sizes: tuple
    weights: tuple  # of (out, in) arrays
    biases: tuple   # of (out,) arrays

    def __post_init__(self):
        sizes = tuple(int(s) for s in self.layer_sizes)
        if len(sizes) < 2 or any(s < 1 for s in sizes):
            raise ValueError("need at least input and output layers, all sizes >= 1")
        if sizes[-1] != 1:
            raise ValueError(f"a network has one output, not {sizes[-1]}")
        if len(self.weights) != len(sizes) - 1 or len(self.biases) != len(sizes) - 1:
            raise ValueError("one weight matrix and bias vector per layer transition")
        for i, (wm, bv) in enumerate(zip(self.weights, self.biases)):
            if wm.shape != (sizes[i + 1], sizes[i]):
                raise ValueError(f"weight {i} shape {wm.shape} != {(sizes[i + 1], sizes[i])}")
            if bv.shape != (sizes[i + 1],):
                raise ValueError(f"bias {i} shape {bv.shape} != {(sizes[i + 1],)}")
        object.__setattr__(self, "layer_sizes", sizes)
        object.__setattr__(self, "weights", tuple(self.weights))
        object.__setattr__(self, "biases", tuple(self.biases))

    @property
    def n_features(self) -> int:
        return self.layer_sizes[0]

    @property
    def n_params(self) -> int:
        return sum(w.size + b.size for w, b in zip(self.weights, self.biases))


def init_network(layer_sizes, seed: int) -> MlpNetwork:
    """Uniform +-1/sqrt(fan-in) weights and biases from the seed."""
    rng = np.random.default_rng(seed)
    sizes = tuple(int(s) for s in layer_sizes)
    weights, biases = [], []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        bound = 1.0 / np.sqrt(fan_in)
        weights.append(rng.uniform(-bound, bound, size=(fan_out, fan_in)))
        biases.append(rng.uniform(-bound, bound, size=fan_out))
    return MlpNetwork(sizes, tuple(weights), tuple(biases))


def get_params(net: MlpNetwork) -> np.ndarray:
    parts = []
    for w, b in zip(net.weights, net.biases):
        parts.append(w.ravel())
        parts.append(b)
    return np.concatenate(parts)


def _unflatten(sizes: tuple, flat: np.ndarray):
    """Per-layer weight and bias views into flat, laid out like get_params
    along its last axis; a (K, n_params) flat gives (K, out, in) and
    (K, out) views."""
    weights, biases, at, lead = [], [], 0, flat.shape[:-1]
    for n_in, n_out in zip(sizes, sizes[1:]):
        weights.append(flat[..., at:at + n_out * n_in].reshape(*lead, n_out, n_in))
        at += n_out * n_in
        biases.append(flat[..., at:at + n_out])
        at += n_out
    return weights, biases


def set_params(net: MlpNetwork, flat: np.ndarray) -> MlpNetwork:
    flat = np.asarray(flat, dtype=float)
    if flat.size != net.n_params:
        raise ValueError(f"expected {net.n_params} parameters, got {flat.size}")
    weights, biases = _unflatten(net.layer_sizes, flat)
    return MlpNetwork(net.layer_sizes, tuple(w.copy() for w in weights),
                      tuple(b.copy() for b in biases))


class _Workspace:
    """Buffers for evaluating a stack of K networks of one layer-size tuple
    on the features X it is built on: a plain network is a stack of one on
    (n_rows, n_features) features, and scg_train's K rows of its parameter
    buffer a stack on (K, n_rows, n_features) features.

    weights[i] is (K, out, in) and biases[i] (K, 1, out); the weights and
    biases given may be views into a buffer that the caller rewrites, and
    whoever rewrites it clears ``fresh``.  acts[0] is X as (K, n_rows,
    n_features) and acts[1:] hold its activations, current while ``fresh``
    is set.  resid holds the output residual.  Every step runs once per
    layer over the whole stack, from per-layer plans made once, so a pass
    makes no view (a tenth of a K = 1 product) and picks no call.
    forward_plan holds each layer's input, transposed weights, bias, output
    and whether tanh follows; backward_plan, top layer first, its bias-sum
    call, gradient blocks, transposed delta (E's derivative at its output),
    input and, above the first layer, a scratch array (one per hidden width)
    and the back-product call.  The first gradient makes it and its buffers,
    so forward alone never allocates them."""

    def __init__(self, sizes: tuple, weights, biases, X: np.ndarray):
        if X.shape[-1] != sizes[0]:
            raise ValueError(f"expected {sizes[0]} inputs, got {X.shape[-1]}")
        self.sizes, self.fresh = sizes, False
        self.weights = [w.reshape(-1, *w.shape[-2:]) for w in weights]
        self.biases = [b.reshape(-1, 1, b.shape[-1]) for b in biases]
        K, n_rows = len(self.weights[0]), X.shape[-2]
        self.acts = [X.reshape(K, n_rows, sizes[0])] + [np.empty((K, n_rows, s))
                                                         for s in sizes[1:]]
        self.resid = np.empty_like(self.acts[-1])
        self.forward_plan = tuple(
            (self.acts[i], np.swapaxes(w, -1, -2), b, self.acts[i + 1], i < len(biases) - 1)
            for i, (w, b) in enumerate(zip(self.weights, self.biases)))
        self.grad = None

    def backward_buffers(self):
        if self.grad is None:
            sizes, (K, n) = self.sizes, self.resid.shape[:2]
            deltas = [np.empty((K, n, s)) for s in sizes[1:-1]] + [self.resid]
            scratch = {s: np.empty((K, n, s)) for s in sizes[1:-1]}
            self.grad = np.empty((K, sum((a + 1) * b for a, b in zip(sizes, sizes[1:]))))
            grad_w, grad_b = _unflatten(sizes, self.grad)
            plan = []
            for i in range(len(deltas) - 1, -1, -1):
                delta, w = deltas[i], self.weights[i]
                # the bias gradient, delta's row sum per network: across a width
                # >= 2 np.add.reduce adds the rows in order, and einsum gives those
                # bits with less overhead; a width-1 delta is one contiguous run,
                # which np.add.reduce sums pairwise and einsum does not
                row_sum = (partial(np.add.reduce, delta, axis=1) if delta.shape[-1] == 1
                           else partial(np.einsum, "knj->kj", delta))
                # delta @ W_i; a one-output layer's is an outer product, with no
                # sum to round, and einsum gives its bits with less overhead
                product = partial(np.einsum, "kni,kij->knj") if w.shape[-2] == 1 else np.matmul
                back = ((scratch[sizes[i]], partial(product, delta, w, out=deltas[i - 1]))
                        if i > 0 else (None, None))
                plan.append((row_sum, grad_b[i], grad_w[i], np.swapaxes(delta, -1, -2),
                             self.acts[i], *back))
            self.backward_plan = tuple(plan)
        return self


def _forward_cached(net, X: np.ndarray) -> _Workspace:
    """The workspace holding the activations on X of net, a network or a
    workspace built on X; hidden layers tanh, final layer identity.  A
    network gets a fresh workspace per call, so it never reuses activations;
    a workspace runs the forward pass only when it is not fresh.  Each
    layer's product is one np.matmul over the stack, which runs the BLAS
    call np.dot makes for one network on each network in turn."""
    if not isinstance(net, _Workspace):
        net = _Workspace(net.layer_sizes, net.weights, net.biases, X)
    if not net.fresh:
        for a_in, w_t, b, a, hidden in net.forward_plan:
            np.matmul(a_in, w_t, out=a)
            np.add(a, b, out=a)
            if hidden:
                np.tanh(a, out=a)
        net.fresh = True
    return net


def forward(net: MlpNetwork, x):
    """Network output; a float for a single sample."""
    out = _forward_cached(net, as_rows(x, net.n_features, "inputs")).acts[-1][0]
    return float(out[0, 0]) if np.ndim(x) == 1 else out[:, 0].copy()


def error(net, batch: Dataset):
    """E = half the summed squared error over the batch.  For a workspace
    over a stack of batches, as scg_train passes, an array of one E per
    network."""
    if batch.n_rows == 0:
        raise ValueError("batch is empty")
    work = _forward_cached(net, batch.features)
    sq = np.subtract(work.acts[-1], batch.targets[..., None], out=work.resid)
    np.multiply(sq, sq, out=sq)
    E = 0.5 * np.add.reduce(sq, axis=(1, 2))
    return E if batch.features.ndim == 3 else float(E[0])


def gradient(net, batch: Dataset) -> np.ndarray:
    """Exact backpropagation gradient of E, flattened like get_params; for a
    stack of batches, one row per network.

    Each layer's block is written straight into the workspace's flat
    gradient, and the caller gets a copy of it."""
    if batch.n_rows == 0:
        raise ValueError("batch is empty")
    work = _forward_cached(net, batch.features).backward_buffers()
    np.subtract(work.acts[-1], batch.targets[..., None], out=work.resid)
    for row_sum, grad_b, grad_w, delta_t, a, scratch, product in work.backward_plan:
        row_sum(out=grad_b)
        np.matmul(delta_t, a, out=grad_w)
        if product:
            # delta @ W_i times (1 - a_i ** 2), numpy squaring as a_i * a_i; for a
            # zero residual a one-output layer's einsum gives +0.0, as np.matmul does
            np.multiply(a, a, out=scratch)
            np.subtract(1.0, scratch, out=scratch)
            delta = product()
            np.multiply(delta, scratch, out=delta)
    return work.grad.copy() if batch.features.ndim == 3 else work.grad[0].copy()


def scg_train(net, train, epochs: int, seed: int | None = None):
    """Full-batch SCG training.  With a seed, weights are re-initialized from
    it first, so the whole trajectory is a function of (seed, data, epochs).
    Returns (trained network, per-epoch error trace).

    Given equal-length sequences of networks (of one layer-size tuple) and
    datasets (of one row count) instead, it trains them as one lockstep
    stack and returns (list of networks, list of traces), each bit for bit
    what training that network alone gives.

    Every evaluation runs on one workspace over a (K, n_params) parameter
    buffer and the stacked features, through the module-level error and
    gradient, one call per stacked evaluation; W is copied into the buffer
    only when its bits differ from the buffer's, so grad at an accepted
    point reuses the forward pass that fun just made there.  The workspace,
    allocated once per call, holds every activation, delta and gradient
    buffer of the fit, so the only new array an evaluation makes is the
    gradient copy it hands back."""
    single = isinstance(net, MlpNetwork)
    nets, trains = ([net], [train]) if single else (list(net), list(train))
    if epochs < 1:
        raise ValueError("epochs must be >= 1")
    if not nets or len(nets) != len(trains):
        raise ValueError(f"{len(nets)} networks for {len(trains)} datasets")
    if (len({n.layer_sizes for n in nets}) > 1
            or len({(t.n_rows, t.n_features) for t in trains}) > 1):
        raise ValueError("a stack's networks share their layer sizes, and its "
                         "datasets their row count and width")
    for t in trains:
        if t.n_rows == 0:
            raise ValueError("training set is empty")
        require_finite(t)
    if seed is not None:
        nets = [init_network(n.layer_sizes, seed) for n in nets]
    sizes = nets[0].layer_sizes
    flat = np.full((len(nets), nets[0].n_params), np.nan)  # so the first W is copied in
    batch = Batches(trains)
    work = _Workspace(sizes, *_unflatten(sizes, flat), batch.features)

    def at(W):
        # bitwise, not ==: a reused forward pass must be the one W itself
        # would get, and 0.0 == -0.0
        if W.tobytes() != flat.tobytes():
            flat[:] = W
            work.fresh = False
        return work

    def fun(W):
        return error(at(W), batch)

    def grad(W):
        return gradient(at(W), batch)

    results = scg_minimize(fun, grad, np.stack([get_params(n) for n in nets]),
                           max_iterations=epochs)
    trained = [set_params(n, r.w) for n, r in zip(nets, results)]
    traces = [list(r.trace) for r in results]
    return (trained[0], traces[0]) if single else (trained, traces)


# --- plain-text serialization -------------------------------------------------


def dump_network(net: MlpNetwork) -> str:
    lines = ["mlp-network v1", "layers " + " ".join(str(s) for s in net.layer_sizes)]
    for i, (w, b) in enumerate(zip(net.weights, net.biases)):
        lines.append(f"weights {i} {w.shape[0]} {w.shape[1]}")
        for row in w:
            lines.append(" ".join(fmt(v) for v in row))
        lines.append(f"biases {i} {b.size}")
        lines.append(" ".join(fmt(v) for v in b))
    return "\n".join(lines) + "\n"


def load_network(text: str) -> MlpNetwork:
    """Inverse of dump_network.  Truncated, garbled, misshapen or non-finite
    input raises ValueError naming its 1-based line."""
    lines = Lines(text)
    expect(lines.take("the header"), "mlp-network v1")
    no, line = lines.take("the layers line")
    head = line.split()
    try:
        sizes = tuple(int(tok) for tok in head[1:])
    except ValueError:
        sizes = ()
    if head[0] != "layers" or len(sizes) < 2 or min(sizes) < 1:
        raise ValueError(f"line {no}: expected 'layers' and at least two sizes >= 1")
    if sizes[-1] != 1:
        raise ValueError(f"line {no}: a network has one output, not {sizes[-1]}")
    weights, biases = [], []
    for i, (n_in, n_out) in enumerate(zip(sizes, sizes[1:])):
        expect(lines.take(f"weights {i}"), f"weights {i} {n_out} {n_in}")
        weights.append(lines.rows(n_out, n_in, lambda r: f"row {r} of weights {i}"))
        expect(lines.take(f"biases {i}"), f"biases {i} {n_out}")
        biases.append(floats(lines.take(f"biases {i}"), n_out))
    lines.finish("network body")
    return MlpNetwork(sizes, tuple(weights), tuple(biases))
