"""Multivariate adaptive regression splines: paired hinge bases, knot search,
least-squares refits, backward pruning.

Forward stage: starting from the constant model, repeatedly add the
primary/mirror hinge pair (optionally multiplied into an existing basis when
interactions are enabled) that most reduces training MSE, refitting every
coefficient by least squares after each addition.  The result deliberately
overfits.  Backward stage: greedy elimination of the basis whose removal
leaves the lowest GCV, returning the best-scoring subset visited.

Knot candidates are every observed training value of a variable.  Ties in
the forward search resolve to the lowest parent index, then lowest variable
index, then smallest knot; near-ties within 1e-10 relative gain count as
ties so float noise cannot flip the deterministic choice.

Search cost.  Each variable is sorted once per forward pass, and a step
scores its candidates in two phases.  Phase 1 (_sweep) gives each knot of a
parent's variables of more than _FEW_KNOTS knots a fast gain from running
sums over the variable's order (Friedman 1991, Ann. Statist. 19, sec. 3.9;
the search state is in forexkit.marsrank), where projecting all K ~ n hinge
columns costs O(n K m) for n rows and m bases.  One block per parent holds
all of those variables side by side, so a step pays numpy's per-call cost
once per parent, not once per (parent, variable).  The block keeps its sums
for the whole forward pass, as Q only gains columns: a step adds the sums of
the new columns, O(n) per variable each, and those that follow the residual,
O(n + K m).  Blocks are kept up to marsrank.SWEEP_CACHE_BYTES; one past that
rebuilds its sums from all of Q, O(n m) per variable, at each step.  Each
fast gain comes with a rounding bound err on its distance from the dense
gain (see forexkit.marsrank), and the largest fast - err of the step is a
gain some knot surely reaches.  Phase 2 (_rescored) makes one dense
projection per parent: every knot of its few-knot variables, such as the
hybrid's one-hot leaf columns, and the swept knots whose fast + err lies
above that gain less _SWEEP_REL of it (above 0 when no gain is sure).  The
members zero on every row, u- at a variable's lowest knot and u+ at its
highest, are left out of it.  A variable with no knot above the line is not
re-scored, and one whose re-scored gains lie outside their bounds is scored
in full.  The tie rule picks among the dense gains.

A knot under the line cannot change the pick.  Its dense gain is at most
its fast + err, so at least _SWEEP_REL (1e-6) of the sure gain below a gain
some knot reaches, far outside the 1e-10 tie window.  Leaving it out can
change only a block whose gain is that far below the best; as the scan
takes a new best only more than 1e-10 above the old, the first near-best
block in scan order replaces any such lower best, and no block that far
below replaces it after.  On the perfbench long workload (two variables of
up to 682 knots on one parent per step, plus 10-19 one-hot columns in the
hybrid) the two phases take run_s from 1.21 to 1.04 s.

The orthonormal basis Q of the design grows by one Gram-Schmidt column per
added basis, not a new QR.  A GCV elimination ranks every drop from R of
the retained columns, which starts as one QR of the forward design and is
downdated by a QR of k x k size as each column goes.  A step refits exactly
only the drops near the lowest SSE, plus the first drop when every subset of
the next size scores inf.  So every pick, and hence every coefficient and
trace, is the one that scoring every candidate densely gives, except where
one x lies orders of magnitude beyond the rest (x on (0, 1) with one value at
1e4 or more): there the grown Q can judge a hinge dependent that a fresh QR
keeps, and the forward pass can pick other bases (a strict xfail test in
tests/test_mars.py pins this).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import Dataset, as_rows, require_finite
from .dumpfmt import Lines, expect, floats, fmt, integer, keyed, number
from .marsrank import DEP_TOL, DropRanker, SweepCache, knot_order, pair_gain

_TIE_REL = 1e-10        # forward-search gains closer than this are tied
_STOP_REL = 1e-12       # relative MSE reduction below this stops the forward pass
_FEW_KNOTS = 8          # blocks with this many knots or fewer are scored densely
_SWEEP_REL = 1e-6       # knots whose fast gain can come this close to a step's sure gain are re-scored
_PRUNE_REL = 1e-6       # drop-one SSEs this close to the lowest are scored exactly
_PRUNE_FLOOR = 1e-10    # ... as are those within this share of |y|^2 of it

POSITIVE = "positive"
NEGATIVE = "negative"


def eval_hinge(x, knot: float, direction: str):
    """Hockey-stick map: max(0, x - knot) or its mirror max(0, knot - x)."""
    x = np.asarray(x, dtype=float)
    if direction == POSITIVE:
        out = np.maximum(0.0, x - knot)
    elif direction == NEGATIVE:
        out = np.maximum(0.0, knot - x)
    else:
        raise ValueError(f"direction must be {POSITIVE!r} or {NEGATIVE!r}")
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class Hinge:
    var: int
    knot: float
    direction: str


@dataclass(frozen=True)
class HingeBasis:
    """Product of hinge factors; the empty product is the constant basis."""

    factors: tuple = ()

    def __post_init__(self):
        seen = [f.var for f in self.factors]
        if len(set(seen)) != len(seen):
            raise ValueError("a basis may use each variable at most once")

    @property
    def degree(self) -> int:
        return len(self.factors)

    def uses(self, var: int) -> bool:
        return any(f.var == var for f in self.factors)

    def column(self, X: np.ndarray) -> np.ndarray:
        out = np.ones(X.shape[0])
        for f in self.factors:
            out = out * eval_hinge(X[:, f.var], f.knot, f.direction)
        return out


@dataclass(frozen=True)
class MarsConfig:
    """Knobs for the forward/backward fit.

    ``max_basis_functions`` caps the non-constant bases; a forward step needs
    room for a full pair, so odd caps leave one slot unused.  Pruning scores
    a subset by GCV with ``gcv_penalty`` per non-constant basis.
    """

    max_basis_functions: int = 30
    max_interaction: int = 1
    gcv_penalty: float = 3.0

    def __post_init__(self):
        if self.max_basis_functions < 1:
            raise ValueError("max_basis_functions must be >= 1")
        if self.max_interaction < 1:
            raise ValueError("max_interaction must be >= 1")
        if not self.gcv_penalty >= 0.0:
            raise ValueError("gcv_penalty must be >= 0")


@dataclass(frozen=True)
class MarsModel:
    bases: tuple                 # HingeBasis, index 0 is the constant term
    coefficients: np.ndarray
    n_features: int
    training_mse: float
    forward_trace: tuple = ()    # training MSE after each accepted forward step
    pruning_trace: tuple = ()    # (subset size, score) per visited subset

    def __post_init__(self):
        coef = np.asarray(self.coefficients, dtype=float)
        object.__setattr__(self, "coefficients", coef)
        object.__setattr__(self, "bases", tuple(self.bases))
        if coef.shape != (len(self.bases),):
            raise ValueError("one coefficient per retained basis required")

    def design_matrix(self, X: np.ndarray) -> np.ndarray:
        return np.column_stack([b.column(X) for b in self.bases])


def predict(model: MarsModel, x):
    """Sum of coefficient times the product of factor hinge values."""
    out = model.design_matrix(as_rows(x, model.n_features)) @ model.coefficients
    return float(out[0]) if np.ndim(x) == 1 else out


def _lstsq(B: np.ndarray, y: np.ndarray):
    coef, _, _, _ = np.linalg.lstsq(B, y, rcond=None)
    resid = y - B @ coef
    return coef, float(resid @ resid)


def _orthonormalize(u: np.ndarray, Q: np.ndarray):
    """Component of u orthogonal to span(Q), or None if u is dependent."""
    norm_u = np.linalg.norm(u)
    if norm_u == 0.0:
        return None
    v = u - Q @ (Q.T @ u)
    v = v - Q @ (Q.T @ v)  # second pass for numerical orthogonality
    norm_v = np.linalg.norm(v)
    if norm_v <= DEP_TOL * norm_u:
        return None
    return v / norm_v


def _sweep(X, r, qr, Q, bases, cfg, orders, sweeps):
    """Phase 1 of a forward step: for each parent that may take another
    factor, (pi, bp, free variables, its SweepBlock or None, fast, err).
    The block holds the parent's free variables of more than _FEW_KNOTS
    knots side by side and gives each knot's fast gain and the bound err on
    its distance from the dense gain (qr = Q'r)."""
    swept = []
    for pi, parent in enumerate(bases):
        if parent.degree >= cfg.max_interaction:
            continue
        bp = parent.column(X)
        free = [var for var in range(X.shape[1]) if not parent.uses(var)]
        many = [var for var in free if len(orders[var][1]) > _FEW_KNOTS]
        block, fast, err = None, np.empty(0), np.empty(0)
        if many:
            block = sweeps.block(pi, bp, X, many, orders, Q.shape[1])
            fast, err = block.gains(Q, r, qr)
        swept.append((pi, bp, free, block, fast, err))
    return swept


def _rescored(X, r, Q, bp, free, orders, block, fast, err, line):
    """Phase 2 for one parent: (var, knots, dense gains) per free variable
    in ascending order, from one dense projection of every knot of its
    few-knot variables and of the block's knots whose fast + err is not at
    or under line.  A variable with no such knot is left out; one whose
    re-scored gains lie outside their bounds is scored again in full."""
    picked = {var: (orders[var][1], None) for var in free}
    for var, span in zip(block.variables, block.spans) if block else ():
        idx = span.start + np.flatnonzero(~(fast[span] + err[span] <= line))
        picked[var] = (block.knots[idx], idx)
    picked = [(var, *picked[var]) for var in free if len(picked[var][0])]
    if not picked:
        return []
    sizes = [len(knots) for _, knots, _ in picked]
    gains = _pair_gains(X, np.repeat([var for var, _, _ in picked], sizes), bp,
                        np.concatenate([knots for _, knots, _ in picked]), Q, r)
    scored = []
    for (var, knots, idx), g in zip(picked, np.split(gains, np.cumsum(sizes)[:-1])):
        if idx is not None and np.any(np.abs(g - fast[idx]) > err[idx]):
            knots = orders[var][1]
            g = _pair_gains(X, np.full(len(knots), var), bp, knots, Q, r)
        scored.append((var, knots, g))
    return scored


def _best_candidate(X, r, Q, bases, cfg, orders, sweeps):
    """Scan every (parent, variable, knot) pair; return the best SSE gain.

    The scan order (parent, variable, ascending knot) breaks ties
    deterministically.  Phase 1 (_sweep) gives every swept knot a fast gain
    and a bound; the largest fast - err over the step is a gain some knot
    surely reaches.  Phase 2 (_rescored) scores densely, per parent, only
    the knots whose fast + err comes within _SWEEP_REL of it, with the
    few-knot variables, so the winner and its gain are the dense ones.
    """
    qr = Q.T @ r
    swept = _sweep(X, r, qr, Q, bases, cfg, orders, sweeps)
    sure = max((float(np.max(fast - err, where=np.isfinite(err), initial=0.0))
                for *_, fast, err in swept), default=0.0)
    line = sure - _SWEEP_REL * sure
    best = (0.0, None)  # (gain, (parent_idx, var, knot))
    for pi, bp, free, block, fast, err in swept:
        for var, knots, gains in _rescored(X, r, Q, bp, free, orders, block, fast, err, line):
            top = float(gains.max())
            if top <= 0.0:
                continue
            # smallest knot among the near-tied best: keeps e.g. exactly
            # linear data on a boundary knot instead of a noise-chosen one
            k = int(np.argmax(gains >= top - _TIE_REL * top))
            gain = float(gains[k])
            if gain > best[0] + _TIE_REL * max(gain, best[0]):
                best = (gain, (pi, var, float(knots[k])))
    return best


def _pair_gains(X, cols, bp, knots, Q, r):
    """SSE reduction from adding each hinge pair bp*(x - t)+, bp*(t - x)+,
    vectorized over the knots t, where knot j splits column cols[j] of X,
    by one dense projection onto span(Q) of the pairs' members.  A member
    zero on every row, u- at its variable's lowest knot or u+ at its
    highest, adds nothing and is left out."""
    k = len(knots)
    plus = np.flatnonzero(knots < X.max(0)[cols])
    minus = np.flatnonzero(knots > X.min(0)[cols])
    split = len(plus)
    u = X[:, np.concatenate((cols[plus], cols[minus]))]
    u[:, :split] -= knots[plus]
    np.subtract(knots[minus], u[:, split:], out=u[:, split:])
    np.maximum(u, 0.0, out=u)
    u *= bp[:, None]
    norm = np.einsum("ij,ij->j", u, u)
    u -= Q @ (Q.T @ u)
    sq, ru = np.einsum("ij,ij->j", u, u), u.T @ r
    terms = np.zeros((7, k))  # a, c, rp, rm, |u+|^2, |u-|^2, b
    a, c, rp, rm, norm_p, norm_m, b = terms
    a[plus], rp[plus], norm_p[plus] = sq[:split], ru[:split], norm[:split]
    c[minus], rm[minus], norm_m[minus] = sq[split:], ru[split:], norm[split:]
    both = np.intersect1d(plus, minus, assume_unique=True)
    b[both] = np.einsum("ij,ij->j", u[:, np.searchsorted(plus, both)],
                        u[:, split + np.searchsorted(minus, both)])
    return pair_gain(a, c, rp, rm, norm_p, norm_m, a * c - b * b,
                     c * rp ** 2 - 2.0 * b * rp * rm + a * rm ** 2)


def forward_pass(train: Dataset, cfg: MarsConfig) -> MarsModel:
    """Grow the deliberately overfit model by repeated best-pair insertion."""
    if train.n_features == 0:
        raise ValueError("no features")
    if train.n_rows < 2:
        raise ValueError("need at least 2 rows")
    require_finite(train)
    X, y = train.features, train.targets
    n = train.n_rows
    orders = knot_order(X)
    sweeps = SweepCache(min(cfg.max_basis_functions + 1, n))  # Q's most columns

    bases = [HingeBasis()]
    B = np.ones((n, 1))
    coef, sse = _lstsq(B, y)
    ss0 = sse  # constant-model SSE sets the noise floor once sse reaches 0
    trace = [sse / n]

    Q, _ = np.linalg.qr(B)  # grown by each added column's orthonormal part
    while len(bases) - 1 + 2 <= cfg.max_basis_functions:
        r = y - Q @ (Q.T @ y)
        gain, pick = _best_candidate(X, r, Q, bases, cfg, orders, sweeps)
        if pick is None or gain <= _STOP_REL * sse + 1e-16 * ss0:
            break
        pi, var, knot = pick
        parent = bases[pi]
        added = False
        for direction in (POSITIVE, NEGATIVE):
            u = parent.column(X) * eval_hinge(X[:, var], knot, direction)
            v = _orthonormalize(u, Q)
            if v is None:
                continue  # drop the linearly dependent member of the pair
            bases.append(HingeBasis(parent.factors + (Hinge(var, knot, direction),)))
            sweeps.appended(pi, var, knot, int(direction == NEGATIVE))
            B = np.column_stack([B, u])
            Q = np.column_stack([Q, v])
            added = True
        if not added:
            break
        coef, sse = _lstsq(B, y)
        trace.append(sse / n)

    return MarsModel(tuple(bases), coef, train.n_features, sse / n,
                     forward_trace=tuple(trace))


def gcv(mse: float, n_rows: int, n_bases: int, penalty: float) -> float:
    """Penalized training MSE: each non-constant basis costs 1 + penalty
    effective parameters.  Returns inf once the model saturates the data."""
    c_eff = n_bases + penalty * (n_bases - 1)
    denom = 1.0 - c_eff / n_rows
    if denom <= 0.0:
        return float("inf")
    return mse / (denom * denom)


def _likely_drops(ranker: DropRanker, y: np.ndarray, penalty: float) -> list:
    """Retained columns 1.. whose removal may leave the lowest GCV: those
    within _PRUNE_REL of the lowest drop-one SSE, plus column 1 when GCV is
    inf at the next subset size, as every drop then ties and the first wins.
    All of them when R is ill-conditioned."""
    k = ranker.R.shape[1]
    sse = ranker.drop_one_sse()
    if sse is None:
        return list(range(1, k))
    sse = sse[1:]
    low = float(sse.min())
    near = 1 + np.flatnonzero(sse <= low + _PRUNE_REL * low + _PRUNE_FLOOR * float(y @ y))
    if gcv(1.0, len(y), k - 1, penalty) == float("inf"):
        return sorted({1, *near.tolist()})
    return near.tolist()


def backward_prune(model: MarsModel, train: Dataset, cfg: MarsConfig) -> MarsModel:
    """Greedy backward elimination; returns the best-scoring visited subset.

    The constant term is never removed.  Ties prefer the smaller subset
    (visited later), so pruning errs toward parsimony.
    """
    X, y = train.features, train.targets
    n = train.n_rows
    full = model.design_matrix(X)

    def score(cols):
        _, sse = _lstsq(full[:, cols], y)
        return gcv(sse / n, n, len(cols), cfg.gcv_penalty)

    retained = list(range(len(model.bases)))
    trace = [(len(retained), score(retained))]
    best_cols, best_score = list(retained), trace[0][1]
    ranker = DropRanker(full, y)
    while len(retained) > 1:
        drops = _likely_drops(ranker, y, cfg.gcv_penalty)
        scored = [(score(retained[:j] + retained[j + 1:]), j) for j in drops]
        s, j = min(scored, key=lambda t: (t[0], t[1]))
        retained = retained[:j] + retained[j + 1:]
        ranker.drop(j)
        trace.append((len(retained), s))
        if s <= best_score:
            best_cols, best_score = list(retained), s

    coef, sse = _lstsq(full[:, best_cols], y)
    return MarsModel(tuple(model.bases[i] for i in best_cols), coef,
                     model.n_features, sse / n,
                     forward_trace=model.forward_trace, pruning_trace=tuple(trace))


def fit(train: Dataset, cfg: MarsConfig = MarsConfig()) -> MarsModel:
    """Forward pass then backward prune."""
    return backward_prune(forward_pass(train, cfg), train, cfg)


# --- plain-text serialization -------------------------------------------------

_DIR_CODE = {POSITIVE: "+", NEGATIVE: "-"}
_CODE_DIR = {"+": POSITIVE, "-": NEGATIVE}


def dump_model(model: MarsModel) -> str:
    lines = ["mars-model v1", f"features {model.n_features}", f"bases {len(model.bases)}"]
    for b in model.bases:
        parts = [f"{f.var} {_DIR_CODE[f.direction]} {fmt(f.knot)}" for f in b.factors]
        lines.append("basis " + (" ".join(parts) if parts else "const"))
    lines.append("coefficients")
    lines.extend(fmt(c) for c in model.coefficients)
    lines.append(f"training_mse {fmt(model.training_mse)}")
    return "\n".join(lines) + "\n"


def load_model(text: str) -> MarsModel:
    """Inverse of dump_model.  Truncated, garbled or non-finite input raises
    ValueError naming its 1-based line."""
    lines = Lines(text)
    expect(lines.take("the header"), "mars-model v1")
    n_features = integer(*keyed(lines.take("the features line"), "features"), 1)
    n_bases = integer(*keyed(lines.take("the bases line"), "bases"), 1)
    bases = []
    for i in range(n_bases):
        no, body = keyed(lines.take(f"basis {i}"), "basis")
        toks = body.split()
        if toks == ["const"]:
            bases.append(HingeBasis())
            continue
        if not toks or len(toks) % 3 or any(c not in _CODE_DIR for c in toks[1::3]):
            raise ValueError(f"line {no}: expected 'const' or 'var +|- knot' factors")
        factors = tuple(
            Hinge(integer(no, var, 0, n_features - 1), number(no, knot), _CODE_DIR[code])
            for var, code, knot in zip(toks[::3], toks[1::3], toks[2::3]))
        try:
            bases.append(HingeBasis(factors))
        except ValueError as err:
            raise ValueError(f"line {no}: {err}") from None
    expect(lines.take("the coefficients block"), "coefficients")
    coef = np.concatenate([floats(lines.take(f"coefficient {i}"), 1)
                           for i in range(n_bases)])
    no, token = keyed(lines.take("the training_mse line"), "training_mse")
    mse = number(no, token)
    if mse < 0.0:
        raise ValueError(f"line {no}: training_mse must be >= 0, got {mse}")
    lines.finish("model body")
    return MarsModel(tuple(bases), coef, n_features, mse)
