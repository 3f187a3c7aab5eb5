"""Takagi-Sugeno fuzzy inference with Gaussian membership functions.

The rule base is the full Cartesian grid over each input's membership
functions (4 MFs on each of 2 inputs = 16 rules).  Training follows the
two-part hybrid rule: a batch least-squares solve for the linear consequents
with premises held fixed, then one full-batch gradient-descent step on the
premise centers and widths with consequents held fixed, iterated per epoch.

Rule firing strengths are products of Gaussian memberships, accumulated in
log space so normalized strengths stay well-defined far from the data; only
inputs absurdly far outside the training range (max log-strength below the
double-precision underflow point) raise NoRuleFires.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .data import Dataset, as_rows, require_finite
from .dumpfmt import Lines, expect, floats, fmt, integer, keyed

_WIDTH_FLOOR = 1e-6
_LOG_UNDERFLOW = -745.0  # below this, exp() is exactly 0.0 in double precision


class NoRuleFires(ValueError):
    """All rule strengths underflowed to zero for some input."""


@dataclass(frozen=True)
class AnfisConfig:
    mfs_per_input: int = 4
    epochs: int = 30
    rate: float = 0.01
    consequent: str = "linear"  # or "constant"

    def __post_init__(self):
        if self.mfs_per_input < 2:
            raise ValueError("mfs_per_input must be >= 2")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if not self.rate >= 0.0:
            raise ValueError("rate must be >= 0")
        if self.consequent not in ("linear", "constant"):
            raise ValueError("consequent must be 'linear' or 'constant'")


@dataclass(frozen=True)
class AnfisModel:
    """Premises (per-input Gaussian centers/widths), full rule grid, and
    per-rule consequent coefficients of shape (rules, terms) for its one
    output, where terms = n_features+1 for linear consequents ([p1..pd, const])
    or 1 for constant ones.  Rules are ordered lexicographically by per-input
    MF index, first input slowest."""

    centers: tuple   # per input, 1-d array of MF centers
    widths: tuple    # per input, matching array of strictly positive widths
    consequents: np.ndarray
    consequent: str = "linear"
    lse_rank_deficient: bool = False

    def __post_init__(self):
        centers = tuple(np.asarray(c, dtype=float) for c in self.centers)
        widths = tuple(np.asarray(s, dtype=float) for s in self.widths)
        if len(centers) != len(widths) or not centers:
            raise ValueError("need matching centers/widths for >= 1 input")
        for c, s in zip(centers, widths):
            if c.shape != s.shape or c.ndim != 1 or c.size < 1:
                raise ValueError("per-input centers/widths must be matching 1-d arrays")
            if np.any(s <= 0.0):
                raise ValueError("all widths must be strictly positive")
        n_rules = int(np.prod([c.size for c in centers]))
        terms = len(centers) + 1 if self.consequent == "linear" else 1
        cons = np.asarray(self.consequents, dtype=float)
        if cons.shape != (n_rules, terms):
            raise ValueError(f"consequents must have shape ({n_rules}, {terms})")
        object.__setattr__(self, "centers", centers)
        object.__setattr__(self, "widths", widths)
        object.__setattr__(self, "consequents", cons)

    @property
    def n_features(self) -> int:
        return len(self.centers)

    @property
    def n_rules(self) -> int:
        return int(np.prod([c.size for c in self.centers]))

    def rule_grid(self) -> np.ndarray:
        """(n_rules, n_features) array of per-input MF indices."""
        return np.array(list(itertools.product(*(range(c.size) for c in self.centers))),
                        dtype=int)


def _log_strengths(model: AnfisModel, X: np.ndarray) -> np.ndarray:
    """(n, n_rules) log firing strengths."""
    grid = model.rule_grid()
    log_w = np.zeros((X.shape[0], grid.shape[0]))
    for i, (c, s) in enumerate(zip(model.centers, model.widths)):
        log_mf = -((X[:, i, None] - c[None, :]) ** 2) / (2.0 * s[None, :] ** 2)
        log_w += log_mf[:, grid[:, i]]
    return log_w


def _normalized_batch(model: AnfisModel, X: np.ndarray) -> np.ndarray:
    log_w = _log_strengths(model, X)
    peak = log_w.max(axis=1)
    dead = peak < _LOG_UNDERFLOW
    if np.any(dead):
        row = int(np.argmax(dead))
        raise NoRuleFires(f"no rule fires for input {X[row].tolist()}")
    shifted = np.exp(log_w - peak[:, None])
    return shifted / shifted.sum(axis=1, keepdims=True)


def _rule_outputs(model: AnfisModel, X: np.ndarray) -> np.ndarray:
    """(n, n_rules) per-rule linear outputs."""
    if model.consequent == "linear":
        design = np.concatenate([X, np.ones((X.shape[0], 1))], axis=1)
    else:
        design = np.ones((X.shape[0], 1))
    return np.einsum("nt,rt->nr", design, model.consequents)


def predict(model: AnfisModel, x):
    """Convex combination of rule outputs under normalized strengths."""
    X = as_rows(x, model.n_features, "inputs")
    w = _normalized_batch(model, X)
    out = np.einsum("nr,nr->n", w, _rule_outputs(model, X))
    return float(out[0]) if np.ndim(x) == 1 else out


class LseResult(NamedTuple):
    consequents: np.ndarray
    rank: int
    rank_deficient: bool


def lse_consequents(model: AnfisModel, train: Dataset) -> LseResult:
    """Least-squares consequents, shape (rules, terms), for the dataset's
    target with premises fixed; minimum-norm on rank deficiency (flagged)."""
    if train.n_rows == 0:
        raise ValueError("training set is empty")
    X = as_rows(train.features, model.n_features, "inputs")
    w = _normalized_batch(model, X)  # (n, R)
    if model.consequent == "linear":
        base = np.concatenate([X, np.ones((X.shape[0], 1))], axis=1)
    else:
        base = np.ones((X.shape[0], 1))
    terms = base.shape[1]
    design = (w[:, :, None] * base[:, None, :]).reshape(X.shape[0], -1)
    coef, _, rank, _ = np.linalg.lstsq(design, train.targets, rcond=None)
    cons = coef.reshape(model.n_rules, terms)
    return LseResult(cons, int(rank), int(rank) < design.shape[1])


def with_consequents(model: AnfisModel, result: LseResult) -> AnfisModel:
    return replace(model, consequents=result.consequents,
                   lse_rank_deficient=model.lse_rank_deficient or result.rank_deficient)


def premise_gradient(model: AnfisModel, train: Dataset):
    """Gradient of the summed squared error w.r.t. centers and widths, as
    (per-input center grads, per-input width grads)."""
    if train.n_rows == 0:
        raise ValueError("training set is empty")
    X = as_rows(train.features, model.n_features, "inputs")
    w = _normalized_batch(model, X)                     # (n, R)
    F = _rule_outputs(model, X)                         # (n, R)
    yhat = np.einsum("nr,nr->n", w, F)                  # (n,)
    err = yhat - train.targets                          # (n,)
    # dSSE/d log mu_r = 2 err * w_r * (F_r - yhat)
    g = 2.0 * np.einsum("n,nr->nr", err, w * (F - yhat[:, None]))
    grid = model.rule_grid()
    grad_c, grad_s = [], []
    for i, (c, s) in enumerate(zip(model.centers, model.widths)):
        onehot = np.zeros((grid.shape[0], c.size))
        onehot[np.arange(grid.shape[0]), grid[:, i]] = 1.0
        grouped = g @ onehot                            # (n, m_i)
        diff = X[:, i, None] - c[None, :]
        grad_c.append(np.sum(grouped * diff / s[None, :] ** 2, axis=0))
        grad_s.append(np.sum(grouped * diff ** 2 / s[None, :] ** 3, axis=0))
    return grad_c, grad_s


def premise_step(model: AnfisModel, train: Dataset, rate: float) -> AnfisModel:
    """One gradient-descent step on centers/widths; widths clamped >= 1e-6."""
    if rate <= 0.0:
        raise ValueError("rate must be > 0")
    grad_c, grad_s = premise_gradient(model, train)
    centers = tuple(c - rate * gc for c, gc in zip(model.centers, grad_c))
    widths = tuple(np.maximum(s - rate * gs, _WIDTH_FLOOR)
                   for s, gs in zip(model.widths, grad_s))
    return replace(model, centers=centers, widths=widths)


def init_model(train: Dataset, cfg: AnfisConfig) -> AnfisModel:
    """Centers equally spaced over each input's observed range; widths set to
    spacing / sqrt(2 ln 2) so adjacent MFs cross near 0.5; zero consequents."""
    if train.n_rows == 0:
        raise ValueError("training set is empty")
    centers, widths = [], []
    for i in range(train.n_features):
        col = train.features[:, i]
        lo, hi = float(col.min()), float(col.max())
        c = np.linspace(lo, hi, cfg.mfs_per_input)
        spacing = (hi - lo) / (cfg.mfs_per_input - 1)
        s = spacing / np.sqrt(2.0 * np.log(2.0)) if spacing > 0.0 else 1.0
        centers.append(c)
        widths.append(np.full(cfg.mfs_per_input, max(s, _WIDTH_FLOOR)))
    n_rules = cfg.mfs_per_input ** train.n_features
    terms = train.n_features + 1 if cfg.consequent == "linear" else 1
    cons = np.zeros((n_rules, terms))
    return AnfisModel(tuple(centers), tuple(widths), cons, cfg.consequent)


def hybrid_train(train: Dataset, cfg: AnfisConfig = AnfisConfig()):
    """Alternate LSE and premise descent for cfg.epochs, then realign the
    consequents with a final LSE pass so the returned model's consequents are
    optimal for its premises.  The learning rate halves whenever an epoch's
    post-LSE RMSE worsens.  Training is deterministic.  Returns (model,
    per-epoch RMSE trace)."""
    require_finite(train)
    model = init_model(train, cfg)
    rate = cfg.rate
    trace = []
    for _ in range(cfg.epochs):
        model = with_consequents(model, lse_consequents(model, train))
        resid = np.einsum("nr,nr->n", _normalized_batch(model, train.features),
                          _rule_outputs(model, train.features)) - train.targets
        epoch_rmse = float(np.sqrt(np.sum(resid * resid) / train.n_rows))
        if trace and epoch_rmse > trace[-1]:
            rate *= 0.5
        trace.append(epoch_rmse)
        if rate > 0.0:
            model = premise_step(model, train, rate)
    model = with_consequents(model, lse_consequents(model, train))
    return model, trace


# --- rule and model dumps -------------------------------------------------------


def _coef_text(v: float) -> str:
    return format(float(v), ".6g")


def dump_rules(model: AnfisModel) -> str:
    """One 'IF ... THEN ...' line per rule with the fitted numbers."""
    grid = model.rule_grid()
    lines = []
    for r in range(grid.shape[0]):
        ifs = []
        for i in range(model.n_features):
            c = model.centers[i][grid[r, i]]
            s = model.widths[i][grid[r, i]]
            ifs.append(f"x{i + 1} is G({_coef_text(c)}, {_coef_text(s)})")
        coef = model.consequents[r]
        if model.consequent == "linear":
            parts = [f"{_coef_text(coef[i])}*x{i + 1}" for i in range(model.n_features)]
            parts.append(_coef_text(coef[-1]))
        else:
            parts = [_coef_text(coef[0])]
        lines.append("IF " + " AND ".join(ifs) + " THEN y = " + " + ".join(parts))
    return "\n".join(lines) + "\n"


def dump_model(model: AnfisModel) -> str:
    lines = ["anfis-model v1",
             f"inputs {model.n_features} outputs 1 "
             f"consequent {model.consequent} rank_deficient "
             f"{int(model.lse_rank_deficient)}"]
    for i, (c, s) in enumerate(zip(model.centers, model.widths)):
        lines.append(f"input {i} mfs {c.size}")
        lines.append("centers " + " ".join(fmt(v) for v in c))
        lines.append("widths " + " ".join(fmt(v) for v in s))
    lines.append(f"consequents {model.n_rules} {model.consequents.shape[1]}")
    for r in range(model.n_rules):
        lines.append(" ".join(fmt(v) for v in model.consequents[r]))
    return "\n".join(lines) + "\n"


def load_model(text: str) -> AnfisModel:
    """Inverse of dump_model.  Truncated, garbled or non-finite input raises
    ValueError naming its 1-based line."""
    lines = Lines(text)
    expect(lines.take("the header"), "anfis-model v1")
    no, line = lines.take("the shape line")
    head = line.split()
    if (head[::2] != ["inputs", "outputs", "consequent", "rank_deficient"]
            or len(head) != 8 or head[3] != "1" or head[5] not in ("linear", "constant")):
        raise ValueError(f"line {no}: expected 'inputs <n> outputs 1 "
                         "consequent linear|constant rank_deficient 0|1'")
    n_inputs = integer(no, head[1], 1)
    consequent, deficient = head[5], bool(integer(no, head[7], 0, 1))
    centers, widths = [], []
    for i in range(n_inputs):
        no, line = lines.take(f"input {i}")
        head = line.split()
        if head[:3] != ["input", str(i), "mfs"] or len(head) != 4:
            raise ValueError(f"line {no}: expected 'input {i} mfs <count>'")
        mfs = integer(no, head[3], 1)
        centers.append(floats(keyed(lines.take(f"centers of input {i}"), "centers"), mfs))
        no, rest = keyed(lines.take(f"widths of input {i}"), "widths")
        widths.append(floats((no, rest), mfs))
        if np.any(widths[-1] <= 0.0):
            raise ValueError(f"line {no}: widths must be > 0")
    n_rules = int(np.prod([c.size for c in centers]))
    terms = n_inputs + 1 if consequent == "linear" else 1
    expect(lines.take("the consequents block"), f"consequents {n_rules} {terms}")
    rows = [floats(lines.take(f"consequents of rule {r}"), terms)
            for r in range(n_rules)]
    lines.finish("model body")
    return AnfisModel(tuple(centers), tuple(widths), np.stack(rows), consequent, deficient)
