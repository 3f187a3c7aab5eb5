"""Takagi-Sugeno fuzzy inference with Gaussian membership functions.

The rule base is the full Cartesian grid over each input's membership
functions (4 MFs on each of 2 inputs = 16 rules).  Training follows the
two-part hybrid rule: a batch least-squares solve for the linear consequents
with premises held fixed, then one full-batch gradient-descent step on the
premise centers and widths with consequents held fixed, iterated per epoch.

Rule firing strengths are products of Gaussian memberships, accumulated in
log space so normalized strengths stay well-defined far from the data; only
inputs absurdly far outside the training range (max log-strength below the
double-precision underflow point) raise NoRuleFires.  The log strengths are
built rules-first, as (rules, rows): each input's (m_i, rows) membership
block in place, then their broadcast outer sum in grid order, starting from
0.0, which adds in the order a rows-first sum over the grid does.  A row's
peak is 0.0 plus each input's maximum in turn; rounded addition is monotone
in each operand, so this is the max over the rules bit for bit, and a NaN
still gives a NaN peak.  One copy lays the shifted exponentials out as
(rows, rules), so the row sums run over a contiguous last axis as numpy's
pairwise sum did rows-first, and every strength keeps its bits.

`hybrid_train` is the entry point for one model or many: given a sequence
of training sets of one row count and width it trains one model per set as
a lockstep stack, and a single training set is a stack of one, so there is
one code path.  Its steps (`lse_consequents`, `premise_gradient`,
`premise_step`) take only a stack and its Batches.  The stack holds every
model's premises and consequents along a leading axis: elementwise steps,
einsums, row sums and the premise products run once over it, the
least-squares solve once per row, and each row keeps its own rate,
halvings, trace and rank flag, so each model is bit for bit what training
it alone gives.  An epoch computes the normalized strengths once and reuses
them for the LSE, the epoch RMSE and the premise gradient, and the rule
outputs and forecast once for the epoch RMSE and the premise gradient.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .data import Batches, Dataset, as_rows, require_finite
from .dumpfmt import Lines, expect, floats, fmt, integer, keyed

_WIDTH_FLOOR = 1e-6
_LOG_UNDERFLOW = -745.0  # below this, exp() is exactly 0.0 in double precision


class NoRuleFires(ValueError):
    """All rule strengths underflowed to zero for some input.  ``row`` is the
    model's row in a lockstep stack, 0 for a single model."""

    def __init__(self, message: str, row: int = 0):
        super().__init__(message)
        self.row = row


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
        if not 0.0 <= self.rate < np.inf:
            raise ValueError("rate must be finite and >= 0")
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


class _Stack:
    """K models of one shape as one: AnfisModel's fields with a leading
    stack axis (centers[i] and widths[i] are (K, m_i), consequents (K, rules,
    terms)) and a rank flag per row.  The engine's steps take it with a
    Batches of its K training sets.  It keeps its normalized strengths on
    the last features it was evaluated on until a premise step moves it, and
    its rule outputs and forecast on them until new consequents or a premise
    step, so an epoch computes each once."""

    def __init__(self, models):
        self.centers = tuple(np.stack(c) for c in zip(*(m.centers for m in models)))
        self.widths = tuple(np.stack(s) for s in zip(*(m.widths for m in models)))
        self.consequents = np.stack([m.consequents for m in models])
        self.consequent = models[0].consequent
        self.lse_rank_deficient = [m.lse_rank_deficient for m in models]
        self.grid = models[0].rule_grid()
        self.seen = self.strengths = None  # features, and the strengths on them
        self.outputs = None  # (rule outputs, forecast) on seen

    def rule_grid(self) -> np.ndarray:
        return self.grid

    def take(self, result: LseResult):
        """Adopt a stacked LSE's consequents and fold in its rows' rank flags."""
        full = self.consequents[0].size
        self.consequents, self.outputs = result.consequents, None
        self.lse_rank_deficient = [flag or rank < full for flag, rank
                                   in zip(self.lse_rank_deficient, result.rank)]

    def models(self) -> list:
        return [AnfisModel(tuple(c[k].copy() for c in self.centers),
                           tuple(s[k].copy() for s in self.widths),
                           self.consequents[k].copy(), self.consequent, flag)
                for k, flag in enumerate(self.lse_rank_deficient)]


def _normalized_batch(model, X: np.ndarray) -> np.ndarray:
    """(..., n, n_rules) normalized firing strengths; a stack's X is (K, n, d).
    The log strengths are built rules-first, as (..., n_rules, n); the module
    docstring says why every bit is that of a rows-first build."""
    lead, n = X.shape[:-2], X.shape[-2]
    with np.errstate(over="ignore", invalid="ignore"):  # non-finite premises fire no rule
        for i, (c, s) in enumerate(zip(model.centers, model.widths)):
            log_mf = X[..., None, :, i] - c[..., :, None]    # (..., m_i, n)
            np.square(log_mf, out=log_mf)
            np.negative(log_mf, out=log_mf)
            np.divide(log_mf, 2.0 * s[..., :, None] ** 2, out=log_mf)
            if i == 0:
                log_w, peak = 0.0 + log_mf, 0.0 + log_mf.max(axis=-2)
            else:
                rules = log_w.shape[-2] * log_mf.shape[-2]
                log_w = (log_w[..., :, None, :] + log_mf[..., None, :, :]).reshape(
                    lead + (rules, n))
                peak += log_mf.max(axis=-2)
    dead = ~(peak >= _LOG_UNDERFLOW)  # a NaN peak (non-finite premises) fires nothing
    if np.any(dead):
        at = np.unravel_index(np.argmax(dead), dead.shape)
        raise NoRuleFires(f"no rule fires for input {X[at].tolist()}",
                          int(at[0]) if len(at) > 1 else 0)
    log_w -= peak[..., None, :]
    w = np.ascontiguousarray(np.swapaxes(np.exp(log_w, out=log_w), -1, -2))
    w /= w.sum(axis=-1, keepdims=True)
    return w


def _strengths(stack: _Stack, X: np.ndarray) -> np.ndarray:
    """Normalized strengths on X, reusing the stack's last ones on the same X."""
    if stack.seen is not X:
        stack.strengths, stack.seen, stack.outputs = _normalized_batch(stack, X), X, None
    return stack.strengths


def _outputs(stack: _Stack, X: np.ndarray):
    """(K, n, R) rule outputs and (K, n) strength-weighted forecast on X,
    reusing the stack's last ones while its premises and consequents hold."""
    w = _strengths(stack, X)
    if stack.outputs is None:
        F = _rule_outputs(stack, X)
        stack.outputs = F, np.einsum("...nr,...nr->...n", w, F)
    return stack.outputs


def _terms(model, X: np.ndarray) -> np.ndarray:
    """(..., n, terms) consequent regressors: [x, 1] when linear, [1] when constant."""
    ones = np.ones(X.shape[:-1] + (1,))
    return np.concatenate([X, ones], axis=-1) if model.consequent == "linear" else ones


def _rule_outputs(model, X: np.ndarray) -> np.ndarray:
    """(..., n, n_rules) per-rule linear outputs."""
    return np.einsum("...nt,...rt->...nr", _terms(model, X), model.consequents)


def predict(model: AnfisModel, x):
    """Convex combination of rule outputs under normalized strengths."""
    X = as_rows(x, model.n_features, "inputs")
    w = _normalized_batch(model, X)
    out = np.einsum("nr,nr->n", w, _rule_outputs(model, X))
    return float(out[0]) if np.ndim(x) == 1 else out


class LseResult(NamedTuple):
    """Consequents (K, rules, terms), a tuple of per-row ranks, and as
    rank_deficient the number of rank-deficient rows."""

    consequents: np.ndarray
    rank: tuple
    rank_deficient: int


def lse_consequents(stack: _Stack, batch: Batches) -> LseResult:
    """Least-squares consequents for each row's targets with premises fixed,
    one least-squares problem per row; minimum-norm on rank deficiency
    (counted)."""
    X = batch.features
    w = _strengths(stack, X)                              # (K, n, R)
    base = _terms(stack, X)                               # (K, n, T)
    design = (w[..., None] * base[..., None, :]).reshape(*X.shape[:-1], -1)
    full = design.shape[-1]
    fits = [np.linalg.lstsq(d, y, rcond=None) for d, y in zip(design, batch.targets)]
    ranks = tuple(int(fit[2]) for fit in fits)
    coef = np.stack([fit[0] for fit in fits]).reshape(len(fits), w.shape[-1], -1)
    return LseResult(coef, ranks, sum(rank < full for rank in ranks))


def premise_gradient(stack: _Stack, batch: Batches):
    """Gradient of each row's summed squared error w.r.t. centers and widths,
    as (per-input center grads, per-input width grads), (K, m_i) each."""
    X = batch.features
    w = _strengths(stack, X)                              # (K, n, R)
    F, yhat = _outputs(stack, X)                          # (K, n, R), (K, n)
    err = yhat - batch.targets                            # (K, n)
    # dSSE/d log mu_r = 2 err * w_r * (F_r - yhat)
    g = 2.0 * np.einsum("...n,...nr->...nr", err, w * (F - yhat[..., None]))
    grid = stack.rule_grid()
    grad_c, grad_s = [], []
    for i, (c, s) in enumerate(zip(stack.centers, stack.widths)):
        onehot = np.zeros((grid.shape[0], c.shape[-1]))
        onehot[np.arange(grid.shape[0]), grid[:, i]] = 1.0
        grouped = g @ onehot                              # (K, n, m_i)
        diff = X[..., i, None] - c[..., None, :]
        s = s[..., None, :]
        grad_c.append(np.sum(grouped * diff / s ** 2, axis=-2))
        grad_s.append(np.sum(grouped * diff ** 2 / s ** 3, axis=-2))
    return grad_c, grad_s


def premise_step(stack: _Stack, batch: Batches, rates) -> None:
    """One gradient-descent step on centers/widths in place, one rate per
    row; widths clamped >= 1e-6, and a row whose rate is 0 keeps its
    premises."""
    rate = np.array(rates, dtype=float)[:, None]
    grad_c, grad_s = premise_gradient(stack, batch)
    centers = tuple(c - rate * gc for c, gc in zip(stack.centers, grad_c))
    widths = tuple(np.maximum(s - rate * gs, _WIDTH_FLOOR)
                   for s, gs in zip(stack.widths, grad_s))
    held = rate == 0.0
    stack.centers = tuple(np.where(held, old, new) for old, new in zip(stack.centers, centers))
    stack.widths = tuple(np.where(held, old, new) for old, new in zip(stack.widths, widths))
    stack.seen = stack.outputs = None


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


def hybrid_train(train, cfg: AnfisConfig = AnfisConfig()):
    """Alternate LSE and premise descent for cfg.epochs, then realign the
    consequents with a final LSE pass so the returned model's consequents are
    optimal for its premises.  The learning rate halves whenever an epoch's
    post-LSE RMSE worsens.  Training is deterministic.  Returns (model,
    per-epoch RMSE trace).

    Given a sequence of datasets of one row count and width instead, it
    trains them as one lockstep stack (see the module docstring) and returns
    (list of models, list of traces), each bit for bit what training on that
    dataset alone gives; a single dataset is a stack of one."""
    single = isinstance(train, Dataset)
    trains = [train] if single else list(train)
    if not trains:
        raise ValueError("no training sets")
    if len({(t.n_rows, t.n_features) for t in trains}) > 1:
        raise ValueError("a stack's datasets share their row count and width")
    for t in trains:
        require_finite(t)
    stack = _Stack([init_model(t, cfg) for t in trains])
    batch = Batches(trains)
    X, y = batch.features, batch.targets
    rates = [cfg.rate] * len(trains)
    traces = [[] for _ in trains]
    for _ in range(cfg.epochs):
        stack.take(lse_consequents(stack, batch))
        resid = _outputs(stack, X)[1] - y
        epoch_rmse = np.sqrt(np.sum(resid * resid, axis=-1) / batch.n_rows)
        for k, rmse in enumerate(epoch_rmse.tolist()):
            if traces[k] and rmse > traces[k][-1]:
                rates[k] *= 0.5
            traces[k].append(rmse)
        if any(rate > 0.0 for rate in rates):
            premise_step(stack, batch, rates)
    stack.take(lse_consequents(stack, batch))
    models = stack.models()
    return (models[0], traces[0]) if single else (models, traces)


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
    consequents = lines.rows(n_rules, terms, lambda r: f"consequents of rule {r}")
    lines.finish("model body")
    return AnfisModel(tuple(centers), tuple(widths), consequents, consequent, deficient)
