"""Closed forms that rank MARS search candidates without refitting them.

``sweep_terms`` gives the projection terms of a hinge pair at every knot of
one variable from running sums over the variable's sorted order, and
``drop_one_sse`` gives the SSE after dropping each column of a design from
one QR.  ``forexkit.mars`` ranks candidates with them and scores the
winners exactly.  Both are approximations at rounding level, and both flag
the inputs for which rounding could reorder candidates: ``sweep_terms``
marks knots whose terms lost too many digits to cancellation, and
``drop_one_sse`` declines an ill-conditioned design.
"""

from __future__ import annotations

import numpy as np

SHAKY_REL = 1e-6     # fast a or c this small against its terms is too cancelled to rank
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


def sweep_terms(bp, x, Q, r, order, knots, starts):
    """Projection terms of the hinge pair u+ = bp*(x - t)+, u- = bp*(t - x)+
    at every knot t at once, from running sums over the sorted order of x.

    vp, vm are u+, u- less their projections onto span(Q).  Returns
    (a, b, c, rp, rm, |u+|^2, |u-|^2, det, num) with a = |vp|^2, b = vp.vm,
    c = |vm|^2, rp = vp.r, rm = vm.r, det = ac - b^2 and num = c rp^2 -
    2b rp rm + a rm^2, plus a mask of the knots whose a or c lost too many
    digits to cancellation to be ranked.  bp must lie in span(Q), as every
    parent basis does.

    Over the rows above t, Q'u+ = S(bp x Q) - t S(bp Q), |u+|^2 and u+.r are
    quadratic and linear in t, and the rows below t give u- alike: O(n m)
    per block instead of O(n K m) for the dense projections.  As bp is in
    span(Q), vp - vm = g, the part of bp*x off span(Q), for every t, so det
    and num follow from the Lagrange identity with p = vp.g = u+.g:
    det = a|g|^2 - p^2 and num = |g|^2 rp^2 - 2p rp (g.r) + a (g.r)^2.  Unlike
    ac - b^2 these do not cancel when the pair is collinear.
    """
    n, m = Q.shape
    mid = knots[len(knots) // 2]  # centring keeps the quadratics in t small
    x, knots = x - mid, knots - mid
    w, xs, qs = bp[order], x[order], Q[order]
    g = bp * x
    g = (g - Q @ (Q.T @ g))[order]
    wx, wr = w * xs, w * r[order]
    terms = np.empty((n, 2 * m + 7))
    np.multiply(w[:, None], qs, out=terms[:, :m])
    np.multiply(wx[:, None], qs, out=terms[:, m:2 * m])
    for i, col in enumerate((w * w, w * wx, wx * wx, wr, wr * xs, w * g, wx * g)):
        terms[:, 2 * m + i] = col
    if len(knots) < n:  # ties: one row of sums per run of equal x
        terms = np.add.reduceat(terms, starts, axis=0)
    k = len(knots)
    below = np.empty((k + 1, 2 * m + 7))  # below[j]: sum of runs < j
    below[0] = 0.0
    np.cumsum(terms, axis=0, out=below[1:])
    above = np.empty_like(below)          # above[j]: sum of runs >= j
    above[k] = 0.0
    np.cumsum(terms[::-1], axis=0, out=above[k - 1::-1])
    below, above = below[:-1], above[1:]  # the rows below and above each knot
    t = knots[:, None]
    qp = above[:, :m]                     # in place: S(bp x Q) - t S(bp Q)
    qp *= -t
    qp += above[:, m:2 * m]
    qm = below[:, :m]                     # in place: t P(bp Q) - P(bp x Q)
    qm *= t
    qm -= below[:, m:2 * m]
    t = knots
    qr = Q.T @ r  # r's rounding-level part in span(Q), which vp and vm lack
    s0, s1, s2, sr, srx, sg, sxg = above[:, 2 * m:].T
    norm_p = s2 - 2.0 * t * s1 + t * t * s0
    scale_p = s2 + np.abs(2.0 * t * s1) + t * t * s0
    rp = srx - t * sr - qp @ qr
    p = sxg - t * sg
    s0, s1, s2, sr, srx, _, _ = below[:, 2 * m:].T
    norm_m = t * t * s0 - 2.0 * t * s1 + s2
    scale_m = t * t * s0 + np.abs(2.0 * t * s1) + s2
    rm = t * sr - srx - qm @ qr
    a = norm_p - np.einsum("ij,ij->i", qp, qp)
    b = -np.einsum("ij,ij->i", qp, qm)
    c = norm_m - np.einsum("ij,ij->i", qm, qm)
    gg, gr = g @ g, g @ r[order]
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
    shaky = (a * collinear <= SHAKY_REL * scale_p) & (scale_p > 0.0) \
        | (c * collinear <= SHAKY_REL * scale_m) & (scale_m > 0.0)
    return (a, b, c, rp, rm, norm_p, norm_m, det, num), shaky


def drop_one_sse(B: np.ndarray, y: np.ndarray):
    """SSE of the least-squares fit of y on B after dropping each column, from
    one QR: dropping column j adds coef_j^2 / |row j of R^-1|^2 to the SSE.
    Returns None when R is too ill-conditioned for that to rank columns."""
    q, R = np.linalg.qr(B)
    if not np.all(np.diag(R)):
        return None
    r_inv = np.linalg.inv(R)
    if not np.linalg.norm(R) * np.linalg.norm(r_inv) < PRUNE_COND:
        return None
    qy = q.T @ y
    coef = r_inv @ qy
    resid = y - q @ qy
    return resid @ resid + coef ** 2 / np.einsum("ij,ij->i", r_inv, r_inv)
