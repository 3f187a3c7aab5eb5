"""Independent reference implementations used to cross-check the engines.

Everything here is deliberately written the slow, obvious way — direct
enumeration and textbook formulas, no shared code with the package — so a
bug in an engine cannot hide in its own oracle.
"""

from __future__ import annotations

import numpy as np

SPLIT_TIE_REL = 1e-9  # mirrors the engine's published tie tolerance


def sse_of(y: np.ndarray) -> float:
    return float(np.sum((y - np.mean(y)) ** 2)) if y.size else 0.0


def brute_force_best_split(X: np.ndarray, y: np.ndarray, min_node_size: int = 5,
                           min_split_gain: float = 0.0):
    """Enumerate every (variable, midpoint threshold) and score it directly.

    Tie rule (identical to the engine's contract): reductions within
    SPLIT_TIE_REL * parent SSE count as tied; ties resolve to the lowest
    variable index, then the smallest threshold.
    """
    n = y.size
    if n < 2 or n < 2 * min_node_size or y.max() == y.min():
        return None
    parent = sse_of(y)
    tol = SPLIT_TIE_REL * parent
    best = None
    for var in range(X.shape[1]):
        values = np.unique(X[:, var])
        candidates = []
        for lo, hi in zip(values[:-1], values[1:]):
            thr = 0.5 * (lo + hi)
            mask = X[:, var] <= thr
            n_left = int(mask.sum())
            if n_left < min_node_size or n - n_left < min_node_size:
                continue
            reduction = parent - sse_of(y[mask]) - sse_of(y[~mask])
            if reduction > 0.0 and reduction >= min_split_gain:
                candidates.append((thr, reduction))
        if not candidates:
            continue
        top = max(r for _, r in candidates)
        thr, reduction = next((t, r) for t, r in candidates if r >= top - tol)
        if best is None or reduction > best[2] + tol:
            best = (var, thr, reduction)
    return best


def normal_equations(B: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Textbook least squares via the pseudoinverse of the normal matrix."""
    return np.linalg.pinv(B.T @ B) @ (B.T @ y)


def central_difference_gradient(fun, w: np.ndarray, h: float = 1e-6) -> np.ndarray:
    g = np.zeros_like(w, dtype=float)
    for i in range(w.size):
        step = np.zeros_like(w, dtype=float)
        step[i] = h
        g[i] = (fun(w + step) - fun(w - step)) / (2.0 * h)
    return g


def gcv_score(mse: float, n_rows: int, n_bases: int, penalty: float) -> float:
    """Penalized training MSE with cost n_bases + penalty * (n_bases - 1)."""
    cost = n_bases + penalty * (n_bases - 1)
    denom = 1.0 - cost / n_rows
    return float("inf") if denom <= 0.0 else mse / denom ** 2


class ReferenceMlp:
    """Tanh MLP with identity output, evaluated the way the engine's first
    version did: each point copied into fresh per-layer arrays, activations
    kept in a list, per-layer gradients joined by concatenation.  Each
    floating-point operation matches the engine's, so results must agree
    bit for bit.  ``targets`` is (n,) for a single-output net, else (n, k)."""

    def __init__(self, layer_sizes, features: np.ndarray, targets: np.ndarray):
        self.sizes = tuple(int(s) for s in layer_sizes)
        self.X = features
        self.Y = targets[:, None] if targets.ndim == 1 else targets

    def unflatten(self, flat: np.ndarray):
        weights, biases, at = [], [], 0
        for n_in, n_out in zip(self.sizes[:-1], self.sizes[1:]):
            weights.append(flat[at:at + n_out * n_in].reshape(n_out, n_in).copy())
            at += n_out * n_in
            biases.append(flat[at:at + n_out].copy())
            at += n_out
        return weights, biases

    def activations(self, flat: np.ndarray) -> list:
        weights, biases = self.unflatten(flat)
        acts = [self.X]
        for i, (w, b) in enumerate(zip(weights, biases)):
            z = acts[-1] @ w.T + b
            acts.append(z if i == len(weights) - 1 else np.tanh(z))
        return acts

    def error(self, flat: np.ndarray) -> float:
        resid = self.activations(flat)[-1] - self.Y
        return 0.5 * float(np.sum(resid * resid))

    def gradient(self, flat: np.ndarray) -> np.ndarray:
        weights, _ = self.unflatten(flat)
        acts = self.activations(flat)
        delta = acts[-1] - self.Y
        grads_w, grads_b = [None] * len(weights), [None] * len(weights)
        for i in range(len(weights) - 1, -1, -1):
            grads_w[i] = delta.T @ acts[i]
            grads_b[i] = delta.sum(axis=0)
            if i > 0:
                delta = (delta @ weights[i]) * (1.0 - acts[i] ** 2)
        parts = []
        for gw, gb in zip(grads_w, grads_b):
            parts.append(gw.ravel())
            parts.append(gb)
        return np.concatenate(parts)
