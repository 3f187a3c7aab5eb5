"""Feedforward tanh MLP trained by scaled conjugate gradient.

The optimizer is Moller's SCG: conjugate directions with the line search
replaced by a one-sided finite-difference estimate of the Hessian-vector
product, s_k = (E'(w_k + sigma_k p_k) - E'(w_k)) / sigma_k + lambda_k p_k,
where lambda_k is raised or lowered from the comparison parameter so that
the local quadratic model stays positive definite.  The core minimizer is
generic over (fun, grad) callables; `scg_train` binds it to the batch
half-SSE error of an MlpNetwork.

With `freeze_lambda` the regulator is pinned at zero, which on a quadratic
makes every step an exact line minimum and the direction update plain
conjugate gradient — handy for convergence tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset, as_rows
from .dumpfmt import Lines, expect, floats, fmt


class ScgDivergence(RuntimeError):
    """Raised when the training error or gradient turns non-finite."""

    def __init__(self, epoch: int, message: str):
        super().__init__(message)
        self.epoch = epoch


@dataclass(frozen=True)
class ScgConfig:
    sigma0: float = 1e-4
    lambda0: float = 1e-6
    grad_tol: float = 1e-10
    freeze_lambda: bool = False
    restart_every: int | None = None  # None: every |w| iterations

    def __post_init__(self):
        if self.sigma0 <= 0.0:
            raise ValueError("sigma0 must be > 0")
        if self.lambda0 < 0.0:
            raise ValueError("lambda0 must be >= 0")
        if self.restart_every is not None and self.restart_every < 1:
            raise ValueError("restart_every must be >= 1")


@dataclass(frozen=True)
class ScgResult:
    w: np.ndarray
    fun_value: float
    trace: tuple  # fun value before iteration 1, then after each iteration
    iterations: int
    converged: bool


def scg_minimize(fun, grad, w0, *, max_iterations: int,
                 cfg: ScgConfig = ScgConfig()) -> ScgResult:
    """Minimize fun(w) from w0; one iteration = one candidate step.

    The state is the weights w, the search direction p, the negative
    gradient r and the regulator pair (lam, lam_bar).  An accepted step
    passes the very array fun was evaluated at to grad, so a (fun, grad)
    pair may share work done at the same point."""
    if max_iterations < 1:
        raise ValueError("max_iterations must be >= 1 (epochs >= 1)")
    w = np.asarray(w0, dtype=float).copy()
    n = w.size
    restart = cfg.restart_every if cfg.restart_every is not None else n
    lam = 0.0 if cfg.freeze_lambda else cfg.lambda0
    lam_bar = 0.0
    fw = _finite_fun(fun, w, 0)
    r = -_finite_grad(grad, w, 0)
    p = r.copy()
    success = True
    trace = [fw]
    converged = False
    delta_raw = 0.0
    p_sq = 0.0

    for k in range(1, max_iterations + 1):
        if float(np.sqrt(r @ r)) < cfg.grad_tol:
            converged = True
            break
        if success:
            p_sq = float(p @ p)
            if p_sq == 0.0:
                converged = True
                break
            sigma_k = cfg.sigma0 / np.sqrt(p_sq)
            g_there = _finite_grad(grad, w + sigma_k * p, k)
            delta_raw = float(p @ (g_there + r)) / sigma_k  # g_there - E'(w), E'(w) = -r
        delta = delta_raw + (lam - lam_bar) * p_sq
        if delta <= 0.0 and not cfg.freeze_lambda:
            # raise lambda until the quadratic model is positive definite
            lam_bar = 2.0 * (lam - delta / p_sq)
            delta = -delta + lam * p_sq
            lam = lam_bar
        mu = float(p @ r)
        alpha = mu / delta
        w_new = w + alpha * p
        f_new = fun(w_new)
        if np.isfinite(f_new):
            comparison = 2.0 * delta * (fw - f_new) / (mu * mu)
        else:
            comparison = -1.0  # force rejection; lambda will rise
        if comparison >= 0.0:
            w = w_new
            fw = _require_finite(f_new, k)
            r_new = -_finite_grad(grad, w, k)
            lam_bar = 0.0
            success = True
            if k % restart == 0:
                p = r_new.copy()
            else:
                beta = float(r_new @ r_new - r_new @ r) / mu
                p = r_new + beta * p
            r = r_new
            if comparison >= 0.75 and not cfg.freeze_lambda:
                lam = 0.25 * lam
        else:
            lam_bar = lam
            success = False
        if comparison < 0.25 and not cfg.freeze_lambda:
            lam = lam + delta * (1.0 - comparison) / p_sq
        trace.append(fw)

    return ScgResult(w=w, fun_value=fw, trace=tuple(trace),
                     iterations=k, converged=converged)


def _require_finite(value: float, epoch: int) -> float:
    if not np.isfinite(value):
        raise ScgDivergence(epoch, f"training error diverged at epoch {epoch}")
    return float(value)


def _finite_fun(fun, w, epoch):
    return _require_finite(fun(w), epoch)


def _finite_grad(grad, w, epoch):
    g = np.asarray(grad(w), dtype=float)
    if not np.all(np.isfinite(g)):
        raise ScgDivergence(epoch, f"gradient diverged at epoch {epoch}")
    return g


# --- the network ---------------------------------------------------------------


@dataclass(frozen=True)
class MlpNetwork:
    """Dense tanh network with identity output; weights[i] maps layer i to i+1."""

    layer_sizes: tuple
    weights: tuple  # of (out, in) arrays
    biases: tuple   # of (out,) arrays

    # The _Workspace every evaluation writes into.  Only the view built by
    # _training_view carries one; any other network gets a fresh workspace
    # per call, so it never reuses activations.
    _work = None

    def __post_init__(self):
        sizes = tuple(int(s) for s in self.layer_sizes)
        if len(sizes) < 2 or any(s < 1 for s in sizes):
            raise ValueError("need at least input and output layers, all sizes >= 1")
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


def _unflatten(net: MlpNetwork, flat: np.ndarray):
    """Per-layer views into flat, laid out like get_params."""
    weights, biases, at = [], [], 0
    for w, b in zip(net.weights, net.biases):
        weights.append(flat[at:at + w.size].reshape(w.shape))
        at += w.size
        biases.append(flat[at:at + b.size])
        at += b.size
    return weights, biases


def set_params(net: MlpNetwork, flat: np.ndarray) -> MlpNetwork:
    flat = np.asarray(flat, dtype=float)
    if flat.size != net.n_params:
        raise ValueError(f"expected {net.n_params} parameters, got {flat.size}")
    weights, biases = _unflatten(net, flat)
    return MlpNetwork(net.layer_sizes, tuple(w.copy() for w in weights),
                      tuple(b.copy() for b in biases))


class _Workspace:
    """Buffers for evaluating one network on batches of n_rows rows.

    acts[1:] hold the activations of the features X, and acts[0] is X itself;
    X is None while they are stale.  Dataset features are read-only, so the
    same features object means the same activations.  resid holds the output
    residual.  The backward buffers (a delta and a scratch array per hidden
    layer, and the flat gradient with a view per layer block) are made by
    the first gradient that needs them, so forward alone never allocates
    them."""

    def __init__(self, net: MlpNetwork, n_rows: int):
        self.n_rows = n_rows
        self.X = None
        self.acts = [None] + [np.empty((n_rows, s)) for s in net.layer_sizes[1:]]
        self.resid = np.empty_like(self.acts[-1])
        self.grad = None

    def backward_buffers(self, net: MlpNetwork):
        if self.grad is None:
            hidden = net.layer_sizes[1:-1]
            self.deltas = [np.empty((self.n_rows, s)) for s in hidden]
            self.scratch = [np.empty((self.n_rows, s)) for s in hidden]
            self.grad = np.empty(net.n_params)
            self.grad_w, self.grad_b = _unflatten(net, self.grad)
        return self


def _training_view(net: MlpNetwork, n_rows: int):
    """(buffer, network whose layers are views into the buffer) for scg_train.

    The network skips validation and carries one workspace for batches of
    n_rows rows, so it must never reach a caller; whoever writes the buffer
    marks the workspace's activations stale.  The buffer starts as NaN and
    the activations stale, so the first evaluation runs a full forward
    pass."""
    flat = np.full(net.n_params, np.nan)
    weights, biases = _unflatten(net, flat)
    view = object.__new__(MlpNetwork)
    object.__setattr__(view, "layer_sizes", net.layer_sizes)
    object.__setattr__(view, "weights", tuple(weights))
    object.__setattr__(view, "biases", tuple(biases))
    object.__setattr__(view, "_work", _Workspace(view, n_rows))
    return flat, view


def _forward_cached(net: MlpNetwork, X: np.ndarray) -> _Workspace:
    """The workspace holding net's activations on X; hidden layers tanh,
    final layer identity.  A view evaluated on a batch of another height
    gets a fresh workspace, as any other network does.  Products go through
    np.dot, which makes the same BLAS call as np.matmul with less
    dispatch."""
    work = net._work
    if work is None or work.n_rows != X.shape[0]:
        work = _Workspace(net, X.shape[0])
    elif work.X is X:
        return work
    acts = work.acts
    acts[0] = a = X
    last = len(net.weights) - 1
    for i, (w, b) in enumerate(zip(net.weights, net.biases)):
        a = np.dot(a, w.T, out=acts[i + 1])
        np.add(a, b, out=a)
        if i != last:
            np.tanh(a, out=a)
    work.X = X
    return work


def forward(net: MlpNetwork, x):
    """Network output; scalar for a single sample of a single-output net."""
    out = _forward_cached(net, as_rows(x, net.layer_sizes[0], "inputs")).acts[-1]
    if np.ndim(x) == 1:
        return float(out[0, 0]) if out.shape[1] == 1 else out[0].copy()
    return (out[:, 0] if out.shape[1] == 1 else out).copy()


def _batch_targets(net: MlpNetwork, batch: Dataset) -> np.ndarray:
    y = batch.targets
    return y[:, None] if net.layer_sizes[-1] == 1 else y


def error(net: MlpNetwork, batch: Dataset) -> float:
    """E = half the summed squared error over the batch."""
    if batch.n_rows == 0:
        raise ValueError("batch is empty")
    work = _forward_cached(net, batch.features)
    sq = np.subtract(work.acts[-1], _batch_targets(net, batch), out=work.resid)
    np.multiply(sq, sq, out=sq)
    return 0.5 * float(np.add.reduce(sq, axis=None))


def gradient(net: MlpNetwork, batch: Dataset) -> np.ndarray:
    """Exact backpropagation gradient of E, flattened like get_params.

    Each layer's block is written straight into the workspace's flat
    gradient, and the caller gets a copy of it."""
    if batch.n_rows == 0:
        raise ValueError("batch is empty")
    work = _forward_cached(net, batch.features).backward_buffers(net)
    acts = work.acts
    delta = np.subtract(acts[-1], _batch_targets(net, batch), out=work.resid)
    for i in range(len(net.weights) - 1, -1, -1):
        np.add.reduce(delta, axis=0, out=work.grad_b[i])
        np.dot(delta.T, acts[i], out=work.grad_w[i])
        if i > 0:
            # delta @ W_i times (1 - a_i ** 2); numpy squares as a_i * a_i
            scratch = np.multiply(acts[i], acts[i], out=work.scratch[i - 1])
            np.subtract(1.0, scratch, out=scratch)
            delta = np.dot(delta, net.weights[i], out=work.deltas[i - 1])
            np.multiply(delta, scratch, out=delta)
    return work.grad.copy()


def hessian_vector_approx(net: MlpNetwork, batch: Dataset, p: np.ndarray,
                          sigma_k: float, lambda_k: float = 0.0) -> np.ndarray:
    """s_k = (E'(w + sigma_k p) - E'(w)) / sigma_k + lambda_k p."""
    if sigma_k <= 0.0:
        raise ValueError("sigma_k must be > 0")
    p = np.asarray(p, dtype=float)
    if not np.any(p):
        raise ValueError("direction p must be non-zero")
    w = get_params(net)
    g0 = gradient(net, batch)
    g1 = gradient(set_params(net, w + sigma_k * p), batch)
    return (g1 - g0) / sigma_k + lambda_k * p


def scg_train(net: MlpNetwork, train: Dataset, epochs: int,
              seed: int | None = None, cfg: ScgConfig = ScgConfig()):
    """Full-batch SCG training.  With a seed, weights are re-initialized from
    it first, so the whole trajectory is a function of (seed, data, epochs).
    Returns (trained network, per-epoch error trace).

    Every evaluation runs on one training view, through the module-level
    error and gradient; w is copied into the view only when its bits differ
    from the view's, so grad at an accepted point reuses the forward pass
    that fun just made there.  The view's workspace, allocated once per
    call, holds every activation, delta and gradient buffer of the fit, so
    the only new array an evaluation makes is the gradient copy it hands
    back."""
    if epochs < 1:
        raise ValueError("epochs must be >= 1")
    if train.n_rows == 0:
        raise ValueError("training set is empty")
    if seed is not None:
        net = init_network(net.layer_sizes, seed)
    flat, view = _training_view(net, train.n_rows)
    work = view._work

    def view_at(w):
        # bitwise, not ==: a reused forward pass must be the one w itself
        # would get, and 0.0 == -0.0
        if w.tobytes() != flat.tobytes():
            flat[:] = w
            work.X = None
        return view

    def fun(w):
        return error(view_at(w), train)

    def grad(w):
        return gradient(view_at(w), train)

    result = scg_minimize(fun, grad, get_params(net), max_iterations=epochs, cfg=cfg)
    return set_params(net, result.w), list(result.trace)


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
    weights, biases = [], []
    for i, (n_in, n_out) in enumerate(zip(sizes, sizes[1:])):
        expect(lines.take(f"weights {i}"), f"weights {i} {n_out} {n_in}")
        weights.append(np.array([floats(lines.take(f"row {r} of weights {i}"), n_in)
                                 for r in range(n_out)]))
        expect(lines.take(f"biases {i}"), f"biases {i} {n_out}")
        biases.append(floats(lines.take(f"biases {i}"), n_out))
    lines.finish("network body")
    return MlpNetwork(sizes, tuple(weights), tuple(biases))
