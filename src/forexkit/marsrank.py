"""Search state that ranks MARS candidates without refitting them.

A ``SweepBlock`` holds the running sums of the forward search's swept
variables, side by side, and gives the projection terms of a hinge pair at
every knot of each, in one call per step for all of them: the first of the
search's two phases.  Q only gains columns between forward steps, and each
variable's sort order never changes, so a block adds the sums of Q's new
columns to those it holds instead of rebuilding them.
A ``DropRanker`` holds R and Q'y of the retained columns of a pruning design
and gives the SSE after dropping each column; dropping one downdates R by a
QR of the k x (k - 1) R that is left.  ``forexkit.mars`` ranks candidates
with them and scores the winners exactly.  Both are approximations at
rounding level, and both say when rounding could reorder candidates: a block
bounds how far each knot's fast gain can lie from its dense one, and the
ranker declines an ill-conditioned R.

The bound (``SweepBlock.gains``) is an interval that holds the dense gain,
from first-order rounding bounds in the manner of Higham (Accuracy and
Stability of Numerical Algorithms, 2nd ed., secs. 3-4): a sum of n terms is
off by at most n u times the sum of their magnitudes, u = 2^-53, and
gamma = ERR_SAFETY n u.  Up = |x| + |t| sqrt(n+), root sums over the n+
rows above the knot, is at least |u+| and bounds the rounding of every
entry of Q'u+ for unit columns of Q; Um alike below, and Ug over all rows.
So the fast and the dense a = |vp|^2 each lie within k Up^2 of the exact
one, b within k Up Um and rp within k Up |r|, with k = (5 + 4 sqrt m) gamma
for m columns of Q; the dense vp lies within (2 + 2 sqrt m) gamma Up of the
exact one, and the block's g within (2m + 2) gamma Ug of vp - vm.  From
these:

- rp^2 / a and rm^2 / c get intervals once a and c are above twice their
  bounds, which also settles pair_gain's dependence test on both sides;
- |vp| is 0 for a member zero on every row and at most (2 + 2 sqrt m)
  gamma Up for one the search appended to the design, as Gram-Schmidt
  leaves it that close to span(Q), and vp - vm = g passes such a bound to
  the other member: a dense a it puts under the dependence threshold adds
  nothing to the dense gain;
- the dense det is the Gram determinant of the dense vp, vm up to
  (4n + 4) u ac for its sums (the textbook dot-product bound, taken without
  ERR_SAFETY), and the exact one is at most min(a, c) |g|^2, so a pair
  collinear for the block is collinear for the dense gain too, which is
  then the single one, even where ac - b^2 cancels;
- for the other knots, det = ac - b^2 and num = c rp^2 - 2b rp rm +
  a rm^2, of one form for the block and the dense gain, take the bounds of
  their factors exactly, through (|x| + e)(|y| + f) - |x||y| for a
  product, and num / det gets an interval where det clears pair_gain's
  collinearity test for both.

Any other knot's bound is inf.  ERR_SAFETY on gamma covers the rest: Q
orthonormal and the constant in span(Q) to within gamma, the rounding of
the final products, and that of the bound's own arithmetic.
"""

from __future__ import annotations

import math

import numpy as np

ERR_SAFETY = 4.0     # factor on gamma = n 2^-53 in the fast gains' error bound
DEP_TOL = 1e-10      # column whose part off span(Q) is at most this share of it: dependent
PAIR_TOL = 1e-12     # pair with det at most this share of ac: collinear
PRUNE_COND = 1e8     # R with a Frobenius condition number above this: declined


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
    """Projection terms of the hinge pair u+ = (x - t)+, u- = (t - x)+ at
    every knot t of one or more variables x at once, from running sums over
    each variable's sorted order.

    vp, vm are u+, u- less their projections onto span(Q).  ``_terms`` gives
    (a, b, c, rp, rm, |u+|^2, |u-|^2, det, num) with a = |vp|^2, b = vp.vm,
    c = |vm|^2, rp = vp.r, rm = vm.r, det = ac - b^2 and num = c rp^2 -
    2b rp rm + a rm^2; ``gains`` returns pair_gain of them and a bound on
    how far each lies from the dense gain (see the module docstring).  The
    constant must lie in span(Q), as it does in the forward search, and Q
    may only gain columns between calls.  The variables' knots lie side by
    side in that order, variable j's at ``spans[j]``.  Each variable keeps its own sort
    order, tie runs, running sums and g, so its terms and bounds are those
    of a block of it alone, but for the order BLAS sums qp'(Q'r) in; one
    call serves them all.

    Over the rows above t, Q'u+ = S(x Q) - t S(Q), |u+|^2 and u+.r are
    quadratic and linear in t, and the rows below t give u- alike: O(n m)
    per variable instead of O(n K m) for the dense projections.  The block
    keeps those sums of Q's columns, qp = Q'u+ and qm = Q'u- (k x capacity),
    and the row sums |qp|^2, qp.qm and |qm|^2, so a call costs O(n) per new
    column of Q, O(n) for the sums that follow r, and O(k m) for qp'(Q'r)
    and qm'(Q'r).  det and num take the dense projections' form.  As the
    constant is in span(Q), vp - vm = g, the part of x off span(Q), for
    every t; |g| caps det where ac - b^2 cancels and passes an appended
    member's bound to the other (see the module docstring).
    """

    def __init__(self, X, variables, orders, capacity):
        n = X.shape[0]
        self.variables = list(variables)  # columns of X, with knot_order entries orders[var]
        cached = [orders[var] for var in self.variables]
        knots = [k for _, k, _ in cached]
        mids = [k[len(k) // 2] for k in knots]  # centring keeps the quadratics in t small
        sizes = [len(k) for k in knots]
        ends = np.cumsum(sizes).tolist()
        self.spans = [slice(e - s, e) for s, e in zip(sizes, ends)]
        self.rows = [slice(j * n, (j + 1) * n) for j in range(len(sizes))]
        self.n, self.sizes = n, sizes
        self.order = np.concatenate([o for o, _, _ in cached])
        self.t = np.concatenate([k - mid for k, mid in zip(knots, mids)])
        # each knot's run of equal x: its first row and the row past it, as
        # rows of its variable's n + 1 running sums in _runs
        self.first = np.concatenate([s + j * (n + 1) for j, (_, _, s) in enumerate(cached)])
        self.past = np.concatenate([np.append(s[1:], n) + j * (n + 1)
                                    for j, (_, _, s) in enumerate(cached)])
        self.xs = np.concatenate([X[o, var] - mid for (o, _, _), var, mid
                                  in zip(cached, self.variables, mids)])
        self.g = self.xs.copy()  # x, projected off each column of Q as it comes
        below, above = self._runs(np.column_stack(
            (np.ones_like(self.xs), self.xs, self.xs * self.xs)))
        t, at = self.t, np.abs(self.t)
        # rows for the + and - member: |u+|^2 and |u-|^2, and Up, Um, root
        # sums >= |u+|, |u-| that bound the rounding of their terms
        (a0, a1, a2), (b0, b1, b2) = above.T, below.T
        self.norm = np.stack((a2 - 2.0 * t * a1 + t * t * a0, t * t * b0 - 2.0 * t * b1 + b2))
        self.mag = np.stack((np.sqrt(a2) + at * np.sqrt(a0), np.sqrt(b2) + at * np.sqrt(b0)))
        self.mag2 = self.mag * self.mag
        self.mag_g = np.sqrt(self._dots(self.xs, self.xs)) + at * math.sqrt(n)  # >= |x - t|
        self.knots, self.zero = np.concatenate(knots), self.mag == 0.0  # a member zero on every row
        self.in_span = np.zeros_like(self.zero)  # members the search made columns of B
        k = len(self.t)
        self.qp, self.qm = np.empty((k, capacity)), np.empty((k, capacity))
        self.sq, self.pm = np.zeros((2, k)), np.zeros(k)  # rows |qp|^2, |qm|^2
        self.m = 0

    def _dots(self, x, y):
        """Each variable's x.y over its own rows, at each of its knots."""
        return np.repeat([x[rows] @ y[rows] for rows in self.rows], self.sizes)

    def _runs(self, cols):
        """Column sums over the rows of each knot's variable below and
        above its run of equal x, from running sums up and down the
        variable's sorted rows."""
        c = cols.shape[1]
        cols = cols.reshape(len(self.rows), self.n, c)
        below, above = np.zeros((2, len(self.rows), self.n + 1, c))
        np.cumsum(cols, axis=1, out=below[:, 1:])           # rows < i
        np.cumsum(cols[:, ::-1], axis=1, out=above[:, -2::-1])  # rows >= i
        return below.reshape(-1, c)[self.first], above.reshape(-1, c)[self.past]

    def appended(self, var, knot, member):
        """Note that the hinge of variable var's knot's member (0 for u+, 1
        for u-) became a column of the design, so it lies in span(Q) up to
        rounding."""
        s = self.spans[self.variables.index(var)]
        self.in_span[member, s.start + np.searchsorted(self.knots[s], knot)] = True

    def _advance(self, Q):
        """Take in the columns of Q beyond the m the block holds."""
        m0, m = self.m, Q.shape[1]
        d = m - m0
        qs = Q[self.order, m0:]
        for rows in self.rows:
            q = qs[rows]
            self.g[rows] -= q @ (q.T @ self.g[rows])
        below, above = self._runs(np.hstack((qs, self.xs[:, None] * qs)))
        t = self.t[:, None]
        qp = self.qp[:, m0:m]  # S(x Q) - t S(Q)
        np.multiply(above[:, :d], -t, out=qp)
        qp += above[:, d:]
        qm = self.qm[:, m0:m]  # t P(Q) - P(x Q)
        np.multiply(below[:, :d], t, out=qm)
        qm -= below[:, d:]
        self.sq[0] += np.einsum("ij,ij->i", qp, qp)
        self.pm += np.einsum("ij,ij->i", qp, qm)
        self.sq[1] += np.einsum("ij,ij->i", qm, qm)
        self.m = m

    def _terms(self, Q, r, qr):
        """The block's terms at every knot for the current Q and residual r
        (qr is Q'r, r's rounding-level part in span(Q), which vp and vm lack),
        and for gains: rows (a, c) and (rp, rm), |g|^2 and |r|^2."""
        if Q.shape[1] > self.m:
            self._advance(Q)
        m, t = self.m, self.t
        rs = r[self.order]
        below, above = self._runs(np.column_stack((rs, rs * self.xs)))
        r_pm = np.empty_like(self.norm)  # rows rp, rm
        sr, srx = above.T
        np.subtract(srx, t * sr, out=r_pm[0])
        r_pm[0] -= self.qp[:, :m] @ qr
        sr, srx = below.T
        np.subtract(t * sr, srx, out=r_pm[1])
        r_pm[1] -= self.qm[:, :m] @ qr
        ac = self.norm - self.sq
        (a, c), (rp, rm), b = ac, r_pm, -self.pm
        det = a * c - b * b
        num = c * rp ** 2 - 2.0 * b * rp * rm + a * rm ** 2
        return (a, b, c, rp, rm, self.norm[0], self.norm[1], det, num), \
            (ac, r_pm, self._dots(self.g, self.g), self._dots(rs, rs))

    def gains(self, Q, r, qr):
        """pair_gain of the terms at every knot, and err, a bound on how far
        each lies from the gain the dense projections give: inf where either
        could be non-finite or the bound cannot tell."""
        terms, extra = self._terms(Q, r, qr)
        a, _, c, rp, rm, norm_p, norm_m, det, num = terms
        fast = pair_gain(a, c, rp, rm, norm_p, norm_m, det, num)
        lo, hi = self._dense_range(terms, extra)
        err = np.maximum(hi - fast, fast - lo)
        return fast, np.where(np.isfinite(err), err, np.inf)

    def _known_members(self, gamma):
        """Columns with a member zero on every row or appended to the design,
        and there: |vp|, |vm| over (2 + 2 sqrt m) gamma Up, Um (0 or 1; inf
        where unknown), Up, Um, Ug, and pair_gain's dependence threshold on
        a dense member at its lowest."""
        j = np.flatnonzero((self.zero | self.in_span).any(0))
        v = np.where(self.zero[:, j], 0.0, np.where(self.in_span[:, j], 1.0, np.inf))
        mag_j = self.mag[:, j]
        dep_lo = (DEP_TOL ** 2) * (1.0 - 4.0 * 2.0 ** -53) \
            * (self.norm[:, j] - 3.0 * gamma * mag_j * mag_j)
        return j, v, mag_j, self.mag_g[j], dep_lo

    def _dense_range(self, terms, extra):
        """Per knot, an interval that holds the dense gain; the bounds are
        set out in the module docstring."""
        ac, r_pm, gg, rr = extra
        u, n, m, mag = 2.0 ** -53, self.n, self.m, self.mag
        gamma = ERR_SAFETY * n * u
        k = (5.0 + 4.0 * math.sqrt(m)) * gamma
        c_v, c_g = (2.0 + 2.0 * math.sqrt(m)) * gamma, (2.0 * m + 2.0) * gamma
        ur, gn = np.sqrt(rr), np.sqrt(gg)  # |r| and |g| of each knot's variable
        # A dense a (or c) and rp (or rm) lie within 2k Up^2 and 2k Up |r| of
        # the fast one; once a is above twice that, pair_gain's dependence
        # test passes.
        e_ac = 2.0 * k * self.mag2
        ac_lo, ac_hi = ac - e_ac, ac + e_ac
        sure = ac_lo > e_ac
        r_abs, e_r = np.abs(r_pm), 2.0 * k * ur * mag
        s_lo = np.maximum(r_abs - e_r, 0.0)
        s_lo = np.divide(s_lo * s_lo, ac_hi, out=np.zeros_like(ac), where=sure)
        s_hi = r_abs + e_r
        s_hi = np.divide(s_hi * s_hi, ac_lo, out=np.full_like(ac, np.inf), where=sure)
        dead = self.zero
        # However far a cancels, |vp| is 0 for a member zero on every row and
        # at most dp = (2 + 2 sqrt m) gamma Up for one appended to the design
        # (Gram-Schmidt leaves it that close to span(Q)), and vp - vm = g,
        # with |g| from the block's g, passes a bound from one member to the
        # other.  A dense member whose |vp| + dp puts its a under pair_gain's
        # dependence threshold is dependent there too and adds nothing.
        j, v_hi, mag_j, mag_gj, dep_lo = self._known_members(gamma)
        if len(j):
            v_hi = v_hi * (c_v * mag_j)
            v_hi = np.minimum(v_hi, v_hi[::-1] + gn[j] + c_g * mag_gj) + c_v * mag_j
            rows, cols = np.nonzero(v_hi * v_hi * (1.0 + gamma) <= dep_lo)
            if len(rows):
                cols = j[cols]
                s_lo[rows, cols] = s_hi[rows, cols] = 0.0
                dead = dead.copy()
                dead[rows, cols] = True
        lo, single_hi = s_lo.max(0), s_hi.max(0)
        # The dense det is the Gram determinant of the dense vp, vm, which lie
        # within dp, dm of the exact ones, up to rho for its sums; the exact
        # one is at most min(a, c) |vp - vm|^2 = min(a, c) |g|^2.  A pair
        # whose bound from these fails pair_gain's test det > PAIR_TOL ac is
        # collinear for the dense gain too, which is then the single one.
        root, dpm = np.sqrt(np.abs(ac_hi)), c_v * mag
        w = (root + dpm).prod(0) - root.prod(0)
        e_g = c_g * self.mag_g
        root_cap = root.min(0) * (gn + e_g)
        cap = root_cap + w
        cap *= cap
        cap += (4.0 * n + 4.0) * u * ac_hi.prod(0)
        ill = (cap <= PAIR_TOL * (1.0 - 4.0 * u) * np.maximum(ac_lo, 0.0).prod(0)) | dead.any(0)
        hi = np.where(ill, single_hi, np.inf)
        i = np.flatnonzero(~ill & (single_hi < np.inf))
        if len(i):
            pair_lo, pair_hi = self._pair_range([x[i] for x in terms], i, k, ur[i],
                                                (ac_lo[:, i], ac_hi[:, i], w[i], root_cap[i]))
            lo[i] = np.maximum(lo[i], pair_lo)
            hi[i] = np.maximum(single_hi[i], pair_hi)
        return lo, hi

    def _pair_range(self, terms, i, k, ur, det_bounds):
        """For the knots i that no certificate settles, given their terms:
        an interval for the dense pair gain num / det where det clears
        pair_gain's collinearity test for both the fast and the dense terms,
        [0, 0] where it fails it for both, and an unbounded one otherwise.
        det and num of the fast terms lie within the bounds of their factors
        of the exact ones; the dense ones, of the same form, within twice
        those."""
        a, b, c, rp, rm, _, _, det, num = terms
        ac_lo, ac_hi, w, root_cap = det_bounds
        u, n, (up, um) = 2.0 ** -53, self.n, self.mag[:, i]
        A, B, C = (a, k * up * up), (b, k * up * um), (c, k * um * um)
        RP, RM = (rp, k * up * ur), (rm, k * um * ur)
        d_fast = _spread(A, C) + _spread(B, B) + 3.0 * u * (np.abs(a * c) + b * b)
        n_dev = _spread(C, RP, RP) + 2.0 * _spread(B, RP, RM) + _spread(A, RM, RM)
        A, B, C, RP, RM = ((x, 2.0 * e) for x, e in (A, B, C, RP, RM))
        d_dev = d_fast + _spread(A, C) + _spread(B, B)
        n_dev = n_dev + _spread(C, RP, RP) + 2.0 * _spread(B, RP, RM) + _spread(A, RM, RM) \
            + 6.0 * u * (np.abs(c * rp * rp) + np.abs(2.0 * b * rp * rm) + np.abs(a * rm * rm))
        rho = (4.0 * n + 4.0) * u * ac_hi[0] * ac_hi[1]
        root_hi = np.minimum(np.sqrt(np.maximum(det + d_fast, 0.0)), root_cap)
        det_hi = np.minimum(det + d_dev, (root_hi + w) ** 2 + rho)
        det_lo = np.maximum(det - d_dev,
                            np.maximum(np.sqrt(np.maximum(det - d_fast, 0.0)) - w, 0.0) ** 2 - rho)
        well = det_lo > PAIR_TOL * (1.0 + 4.0 * u) * ac_hi[0] * ac_hi[1]
        ill = det_hi <= PAIR_TOL * (1.0 - 4.0 * u) * np.maximum(ac_lo[0], 0.0) * ac_lo[1]
        pair_lo = np.divide(np.maximum(num - n_dev, 0.0), det_hi, out=np.zeros_like(det), where=well)
        pair_hi = np.divide(num + n_dev, det_lo, out=np.where(ill, 0.0, np.inf), where=well)
        return pair_lo, pair_hi


def _spread(*factors):
    """Bound on |prod x' - prod x| over the (x, e) factors with |x' - x| <= e."""
    hi = lo = 1.0
    for x, e in factors:
        x = np.abs(x)
        hi, lo = hi * (x + e), lo * x
    return hi - lo


def pair_gain(a, c, rp, rm, norm_p, norm_m, det, num):
    """Best SSE reduction from a hinge pair with the terms of
    SweepBlock._terms: num / det, or from one member when the other is
    dependent or the two are collinear."""
    ok_p = a > (DEP_TOL ** 2) * norm_p
    ok_m = c > (DEP_TOL ** 2) * norm_m
    # single-column gains cover the degenerate cases
    gain_p = np.where(ok_p, rp ** 2 / np.where(ok_p, a, 1.0), 0.0)
    gain_m = np.where(ok_m, rm ** 2 / np.where(ok_m, c, 1.0), 0.0)
    single = np.maximum(gain_p, gain_m)
    well = ok_p & ok_m & (det > PAIR_TOL * a * c)
    pair = num / np.where(well, det, 1.0)
    return np.where(well, np.maximum(pair, single), single)


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
