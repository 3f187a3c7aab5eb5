"""Search state that ranks MARS candidates without refitting them.

A ``SweepBlock`` holds the running sums of one (parent, variable) block of
the forward search and gives the projection terms of a hinge pair at every
knot of the variable.  Q only gains columns between forward steps, and the
parent column and the variable's sort order never change, so a block adds
the sums of Q's new columns to those it holds instead of rebuilding them.
A ``DropRanker`` holds R and Q'y of the retained columns of a pruning design
and gives the SSE after dropping each column; dropping one downdates R by a
QR of the k x (k - 1) R that is left.  ``forexkit.mars`` ranks candidates
with them and scores the winners exactly.  Both are approximations at
rounding level, and both flag the inputs for which rounding could reorder
candidates: a block marks knots whose terms lost too many digits to
cancellation, and the ranker declines an ill-conditioned R.
"""

from __future__ import annotations

import numpy as np

SHAKY_REL = 1e-6     # fast a or c this small against its terms is too cancelled to rank
PRUNE_COND = 1e8     # R with a Frobenius condition number above this: declined
SWEEP_CACHE_BYTES = 16 << 20  # sweep blocks one forward pass keeps (SweepCache)


def knot_order(X):
    """Per variable: sort order, unique knots, and where each knot's run of
    equal values starts in the sorted order."""
    out = []
    for var in range(X.shape[1]):
        order = np.argsort(X[:, var], kind="stable")
        xs = X[order, var]
        knots = np.unique(xs)
        out.append((order, knots, np.searchsorted(xs, knots)))
    return out


class SweepBlock:
    """Projection terms of the hinge pair u+ = bp*(x - t)+, u- = bp*(t - x)+
    at every knot t at once, from running sums over the sorted order of x.

    vp, vm are u+, u- less their projections onto span(Q).  ``terms`` returns
    (a, b, c, rp, rm, |u+|^2, |u-|^2, det, num) with a = |vp|^2, b = vp.vm,
    c = |vm|^2, rp = vp.r, rm = vm.r, det = ac - b^2 and num = c rp^2 -
    2b rp rm + a rm^2, plus a mask of the knots whose a or c lost too many
    digits to cancellation to be ranked.  bp must lie in span(Q), as every
    parent basis does, and Q may only gain columns between calls.

    Over the rows above t, Q'u+ = S(bp x Q) - t S(bp Q), |u+|^2 and u+.r are
    quadratic and linear in t, and the rows below t give u- alike: O(n m)
    per block instead of O(n K m) for the dense projections.  The block keeps
    those sums of Q's columns, qp = Q'u+ and qm = Q'u- (k x capacity), and
    the row sums |qp|^2, qp.qm and |qm|^2, so a call costs O(n) per new
    column of Q, O(n) for the sums that follow r, and O(k m) for qp'(Q'r)
    and qm'(Q'r).  As bp is in span(Q), vp - vm = g, the part of bp*x off
    span(Q), for every t, so det and num follow from the Lagrange identity
    with p = vp.g = u+.g: det = a|g|^2 - p^2 and num = |g|^2 rp^2 -
    2p rp (g.r) + a (g.r)^2.  Unlike ac - b^2 these do not cancel when the
    pair is collinear.
    """

    def __init__(self, bp, x, order, knots, starts, capacity):
        mid = knots[len(knots) // 2]  # centring keeps the quadratics in t small
        self.order, self.t = order, knots - mid
        self.starts = starts if len(knots) < len(x) else None
        self.w = bp[order]
        self.xs = x[order] - mid
        self.wx = self.w * self.xs
        self.g = self.wx.copy()  # bp*x, projected off each column of Q as it comes
        below, above = self._runs(np.column_stack(
            (self.w * self.w, self.w * self.wx, self.wx * self.wx)))
        t = self.t
        s0, s1, s2 = above.T
        self.norm_p = s2 - 2.0 * t * s1 + t * t * s0
        self.scale_p = s2 + np.abs(2.0 * t * s1) + t * t * s0
        s0, s1, s2 = below.T
        self.norm_m = t * t * s0 - 2.0 * t * s1 + s2
        self.scale_m = t * t * s0 + np.abs(2.0 * t * s1) + s2
        k = len(knots)
        self.qp, self.qm = np.empty((k, capacity)), np.empty((k, capacity))
        self.pp, self.pm, self.mm = np.zeros(k), np.zeros(k), np.zeros(k)
        self.m = 0

    @staticmethod
    def nbytes(n_rows: int, n_knots: int, capacity: int) -> int:
        """Bytes a block of this shape holds."""
        return 8 * (4 * n_rows + (2 * capacity + 7) * n_knots)

    def _runs(self, cols):
        """Column sums over the rows below and above each knot: one row of
        sums per run of equal x, then running sums up and down."""
        if self.starts is not None:  # ties
            cols = np.add.reduceat(cols, self.starts, axis=0)
        k = len(self.t)
        below = np.empty((k + 1, cols.shape[1]))  # below[j]: sum of runs < j
        below[0] = 0.0
        np.cumsum(cols, axis=0, out=below[1:])
        above = np.empty_like(below)              # above[j]: sum of runs >= j
        above[k] = 0.0
        np.cumsum(cols[::-1], axis=0, out=above[k - 1::-1])
        return below[:-1], above[1:]

    def _advance(self, Q):
        """Take in the columns of Q beyond the m the block holds."""
        m0, m = self.m, Q.shape[1]
        d = m - m0
        qs = Q[self.order, m0:]
        self.g -= qs @ (qs.T @ self.g)
        below, above = self._runs(np.hstack((self.w[:, None] * qs, self.wx[:, None] * qs)))
        t = self.t[:, None]
        qp = self.qp[:, m0:m]  # S(bp x Q) - t S(bp Q)
        np.multiply(above[:, :d], -t, out=qp)
        qp += above[:, d:]
        qm = self.qm[:, m0:m]  # t P(bp Q) - P(bp x Q)
        np.multiply(below[:, :d], t, out=qm)
        qm -= below[:, d:]
        self.pp += np.einsum("ij,ij->i", qp, qp)
        self.pm += np.einsum("ij,ij->i", qp, qm)
        self.mm += np.einsum("ij,ij->i", qm, qm)
        self.m = m

    def terms(self, Q, r, qr):
        """The block's terms at every knot for the current Q and residual r;
        qr is Q'r, r's rounding-level part in span(Q), which vp and vm lack."""
        if Q.shape[1] > self.m:
            self._advance(Q)
        m, t, g = self.m, self.t, self.g
        rs = r[self.order]
        wr = self.w * rs
        below, above = self._runs(np.column_stack((wr, wr * self.xs, self.w * g, self.wx * g)))
        sr, srx, sg, sxg = above.T
        rp = srx - t * sr - self.qp[:, :m] @ qr
        p = sxg - t * sg
        sr, srx, _, _ = below.T
        rm = t * sr - srx - self.qm[:, :m] @ qr
        a = self.norm_p - self.pp
        b = -self.pm
        c = self.norm_m - self.mm
        gg, gr = g @ g, g @ rs
        # each of det and num from whichever form sums smaller terms
        lagrange = a * gg + p * p < a * c + b * b
        det = np.where(lagrange, a * gg - p * p, a * c - b * b)
        lagrange = np.abs(gg * rp ** 2) + np.abs(2.0 * p * rp * gr) + a * gr ** 2 \
            < np.abs(c * rp ** 2) + np.abs(2.0 * b * rp * rm) + a * rm ** 2
        num = np.where(lagrange, gg * rp ** 2 - 2.0 * p * rp * gr + a * gr ** 2,
                       c * rp ** 2 - 2.0 * b * rp * rm + a * rm ** 2)
        # a and c are differences of terms up to scale_p and scale_m in size, and
        # num / det multiplies their relative error by ac / det
        paired = (a > 0.0) & (c > 0.0) & (det > 1e-12 * a * c)
        collinear = np.where(paired, det / np.where(paired, a * c, 1.0), 1.0)
        shaky = (a * collinear <= SHAKY_REL * self.scale_p) & (self.scale_p > 0.0) \
            | (c * collinear <= SHAKY_REL * self.scale_m) & (self.scale_m > 0.0)
        return (a, b, c, rp, rm, self.norm_p, self.norm_m, det, num), shaky


class SweepCache:
    """One forward pass's sweep blocks by (parent, variable), made on first
    use.  A block is kept while the blocks' total stays within
    SWEEP_CACHE_BYTES; a block past that is made afresh from all of Q at
    each step, and dropped after it."""

    def __init__(self, capacity: int):
        self.capacity, self.room, self.blocks = capacity, SWEEP_CACHE_BYTES, {}

    def block(self, key, bp, x, cached, m: int) -> SweepBlock:
        """The block of key, for a parent column bp, variable x with its
        knot_order entry, and a Q of m columns."""
        block = self.blocks.get(key)
        if block is None:
            order, knots, starts = cached
            size = SweepBlock.nbytes(len(x), len(knots), self.capacity)
            if size > self.room:
                return SweepBlock(bp, x, order, knots, starts, m)
            self.room -= size
            block = self.blocks[key] = SweepBlock(bp, x, order, knots, starts, self.capacity)
        return block


class DropRanker:
    """SSE of the least-squares fit of y on the retained columns of B after
    dropping each one, kept across a backward elimination.

    Holds R and Q'y of the retained columns and their SSE.  Dropping column
    j adds coef_j^2 / |row j of R^-1|^2 to the SSE.  ``drop`` removes a
    column for good: the QR of the k x (k - 1) R left without it gives Q2
    and the new R, Q'y becomes Q2'Q'y, and the SSE grows by the part of Q'y
    that Q2 leaves out, O(k^3) instead of a new O(n k^2) QR.
    """

    def __init__(self, B: np.ndarray, y: np.ndarray):
        q, self.R = np.linalg.qr(B)
        self.qy = q.T @ y
        resid = y - q @ self.qy
        self.sse = resid @ resid

    def drop_one_sse(self):
        """The SSE after dropping each retained column, or None when R is
        too ill-conditioned for it to rank the columns."""
        R = self.R
        if not np.all(np.diag(R)):
            return None
        r_inv = np.linalg.inv(R)
        if not np.linalg.norm(R) * np.linalg.norm(r_inv) < PRUNE_COND:
            return None
        coef = r_inv @ self.qy
        return self.sse + coef ** 2 / np.einsum("ij,ij->i", r_inv, r_inv)

    def drop(self, j: int):
        """Remove retained column j."""
        q2, R = np.linalg.qr(np.delete(self.R, j, axis=1), mode="complete")
        qy = q2.T @ self.qy
        self.R, self.qy = R[:-1], qy[:-1]
        self.sse += qy[-1] ** 2
