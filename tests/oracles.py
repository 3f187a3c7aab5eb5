"""Independent reference implementations used to cross-check the engines.

Everything here is deliberately written the slow, obvious way — direct
enumeration and textbook formulas, no shared code with the package — so a
bug in an engine cannot hide in its own oracle.  ``ReferenceMars`` is the
one exception: it borrows the package's model containers and ``gcv`` so that
its models dump in the engine's format, ``ReferenceCart`` reads the
engine's tree arrays into its own linked nodes and builds its grown trees
with the engine's preorder constructor, and ``ReferenceCsv`` borrows the
``RateSeries`` container.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from forexkit.cart import _from_preorder
from forexkit.data import RateSeries, require_finite
from forexkit.mars import NEGATIVE, POSITIVE, Hinge, HingeBasis, MarsModel, eval_hinge, gcv

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


class ReferenceMars:
    """MARS as the engine's first version searched it: every (parent,
    variable) block scores all of its knots with dense n x K hinge
    projections, and every backward step refits every drop-one subset.  The
    model containers and ``gcv`` come from the package; the search is copied
    from that version unchanged, so ``fit`` must agree with ``mars.fit`` in
    every dumped float and both traces."""

    TIE_REL = 1e-10
    DEP_TOL = 1e-10
    STOP_REL = 1e-12

    def __init__(self, cfg):
        self.cfg = cfg

    def fit(self, train):
        return self.backward_prune(self.forward_pass(train), train)

    @staticmethod
    def _lstsq(B, y):
        coef, _, _, _ = np.linalg.lstsq(B, y, rcond=None)
        resid = y - B @ coef
        return coef, float(resid @ resid)

    def _orthonormalize(self, u, Q):
        norm_u = np.linalg.norm(u)
        if norm_u == 0.0:
            return None
        v = u - Q @ (Q.T @ u)
        v = v - Q @ (Q.T @ v)
        norm_v = np.linalg.norm(v)
        if norm_v <= self.DEP_TOL * norm_u:
            return None
        return v / norm_v

    def _best_candidate(self, X, r, Q, bases):
        n, d = X.shape
        best = (0.0, None)
        for pi, parent in enumerate(bases):
            if parent.degree >= self.cfg.max_interaction:
                continue
            bp = parent.column(X)
            for var in range(d):
                if parent.uses(var):
                    continue
                knots = np.unique(X[:, var])
                xv = X[:, var][:, None]
                up = np.maximum(0.0, xv - knots[None, :]) * bp[:, None]
                um = np.maximum(0.0, knots[None, :] - xv) * bp[:, None]
                gains = self._pair_gains(up, um, Q, r)
                top = float(gains.max())
                if top <= 0.0:
                    continue
                k = int(np.argmax(gains >= top - self.TIE_REL * top))
                gain = float(gains[k])
                if gain > best[0] + self.TIE_REL * max(gain, best[0]):
                    best = (gain, (pi, var, float(knots[k])))
        return best

    def _pair_gains(self, up, um, Q, r):
        vp = up - Q @ (Q.T @ up)
        vm = um - Q @ (Q.T @ um)
        a = np.einsum("ij,ij->j", vp, vp)
        b = np.einsum("ij,ij->j", vp, vm)
        c = np.einsum("ij,ij->j", vm, vm)
        rp = vp.T @ r
        rm = vm.T @ r
        det = a * c - b * b
        norm_p = np.einsum("ij,ij->j", up, up)
        norm_m = np.einsum("ij,ij->j", um, um)
        ok_p = a > (self.DEP_TOL ** 2) * norm_p
        ok_m = c > (self.DEP_TOL ** 2) * norm_m
        gain_p = np.where(ok_p, rp ** 2 / np.where(ok_p, a, 1.0), 0.0)
        gain_m = np.where(ok_m, rm ** 2 / np.where(ok_m, c, 1.0), 0.0)
        single = np.maximum(gain_p, gain_m)
        well = ok_p & ok_m & (det > 1e-12 * a * c)
        safe_det = np.where(well, det, 1.0)
        pair = (c * rp ** 2 - 2.0 * b * rp * rm + a * rm ** 2) / safe_det
        return np.where(well, np.maximum(pair, single), single)

    def forward_pass(self, train):
        X, y = train.features, train.targets
        n = train.n_rows
        bases = [HingeBasis()]
        B = np.ones((n, 1))
        coef, sse = self._lstsq(B, y)
        ss0 = sse
        trace = [sse / n]
        while len(bases) - 1 + 2 <= self.cfg.max_basis_functions:
            Q, _ = np.linalg.qr(B)
            r = y - Q @ (Q.T @ y)
            gain, pick = self._best_candidate(X, r, Q, bases)
            if pick is None or gain <= self.STOP_REL * sse + 1e-16 * ss0:
                break
            pi, var, knot = pick
            parent = bases[pi]
            added = False
            for direction in (POSITIVE, NEGATIVE):
                u = parent.column(X) * eval_hinge(X[:, var], knot, direction)
                if self._orthonormalize(u, Q) is None:
                    continue
                bases.append(HingeBasis(parent.factors + (Hinge(var, knot, direction),)))
                B = np.column_stack([B, u])
                Q, _ = np.linalg.qr(B)
                added = True
            if not added:
                break
            coef, sse = self._lstsq(B, y)
            trace.append(sse / n)
        return MarsModel(tuple(bases), coef, train.n_features, sse / n,
                         forward_trace=tuple(trace))

    def backward_prune(self, model, train):
        cfg = self.cfg
        X, y = train.features, train.targets
        n = train.n_rows
        full = model.design_matrix(X)

        def score(cols):
            _, sse = self._lstsq(full[:, cols], y)
            return gcv(sse / n, n, len(cols), cfg.gcv_penalty)

        retained = list(range(len(model.bases)))
        trace = [(len(retained), score(retained))]
        best_cols, best_score = list(retained), trace[0][1]
        while len(retained) > 1:
            scored = [(score(retained[:j] + retained[j + 1:]), j)
                      for j in range(1, len(retained))]
            s, j = min(scored, key=lambda t: (t[0], t[1]))
            retained = retained[:j] + retained[j + 1:]
            trace.append((len(retained), s))
            if s <= best_score:
                best_cols, best_score = list(retained), s
        coef, sse = self._lstsq(full[:, best_cols], y)
        return MarsModel(tuple(model.bases[i] for i in best_cols), coef,
                         model.n_features, sse / n,
                         forward_trace=model.forward_trace, pruning_trace=tuple(trace))


@dataclass
class Node:
    """One node of a linked tree, as the engine's first version stored it;
    ``var`` is None for leaves."""

    mean: float
    count: int
    sse: float
    index: int = -1
    var: int | None = None
    threshold: float | None = None
    left: "Node | None" = None
    right: "Node | None" = None
    leaf_id: int = -1


class ReferenceCart:
    """CART growth, weakest-link pruning and subtree scoring as the engine's
    first versions did them.  ``grow`` searches each node on its own,
    argsorting every variable again at every node, and recurses.  Pruning
    works on linked ``Node``s: after every collapse the whole tree is copied
    with the collapsed nodes made leaves, each subtree's test cost routes the
    rows through that subtree one at a time, and a dump walks the nodes
    recursively.  The engine's tree is read into nodes once, at the input; the
    rest is copied from those versions unchanged, so every grown tree, alpha,
    test cost, leaf count and dump must equal the engine's."""

    @staticmethod
    def _best_split_arrays(X, y, cfg, parent_sse):
        """Best (var, threshold, reduction) or None; parent_sse is ``sse_of(y)``.
        Near-tied reductions resolve to the lowest variable index, then the
        smallest threshold."""
        n = y.size
        if n < 2 * cfg.min_node_size or n < 2:
            return None
        if y.max() == y.min():
            return None  # pure node: splitting cannot help
        tol = SPLIT_TIE_REL * parent_sse
        best = None
        for var in range(X.shape[1]):
            order = np.argsort(X[:, var], kind="stable")
            xs = X[order, var]
            ys = y[order]
            csum = np.cumsum(ys)
            csq = np.cumsum(ys * ys)
            i = np.arange(1, n)
            ok = (xs[:-1] < xs[1:]) & (i >= cfg.min_node_size) & (n - i >= cfg.min_node_size)
            if not ok.any():
                continue
            left_sse = csq[:-1] - csum[:-1] ** 2 / i
            right_sse = (csq[-1] - csq[:-1]) - (csum[-1] - csum[:-1]) ** 2 / (n - i)
            red = np.where(ok, parent_sse - left_sse - right_sse, -np.inf)
            top = red.max()
            if top <= 0.0 or top < cfg.min_split_gain:
                continue
            k = int(np.argmax(red >= top - tol))  # first near-tied = smallest threshold
            reduction = float(red[k])
            threshold = float(0.5 * (xs[k] + xs[k + 1]))
            if best is None or reduction > best[2] + tol:
                best = (var, threshold, reduction)
        return best

    @classmethod
    def grow(cls, train, cfg):
        """Grow the maximal tree by recursive best-split search, writing each
        node's fields as it is reached, so the nodes come out in preorder."""
        if train.n_rows == 0:
            raise ValueError("cannot grow a tree on an empty dataset")
        require_finite(train)
        nodes = []

        def build(X, y, depth):
            sse = sse_of(y)
            pick = None
            if cfg.max_depth is None or depth < cfg.max_depth:
                pick = cls._best_split_arrays(X, y, cfg, sse)
            var, thr, _ = pick or (-1, 0.0, None)
            nodes.append((var, thr, float(y.mean()), int(y.size), sse))
            if pick:
                mask = X[:, var] <= thr
                build(X[mask], y[mask], depth + 1)
                build(X[~mask], y[~mask], depth + 1)

        build(train.features, train.targets, 0)
        return _from_preorder(train.n_features, train.feature_names, nodes)

    def __init__(self, tree):
        self.n_features, self.feature_names = tree.n_features, tree.feature_names
        self.root = self.nodes(tree)
        self.entries = self._prune()  # [(subtree root, alpha)], maximal to root

    @classmethod
    def nodes(cls, tree):
        """The root of the engine tree's preorder arrays as linked nodes: an
        internal node i has children i + 1 and end[i + 1]."""

        def build(i):
            node = Node(float(tree.mean[i]), int(tree.count[i]), float(tree.sse[i]),
                        index=int(tree.index[i]))
            if tree.var[i] >= 0:
                node.var, node.threshold = int(tree.var[i]), float(tree.threshold[i])
                node.left, node.right = build(i + 1), build(int(tree.end[i + 1]))
            return node

        root = build(0)
        cls._number_leaves(root)
        return root

    @staticmethod
    def route(node, x):
        while node.var is not None:
            node = node.left if x[node.var] <= node.threshold else node.right
        return node

    @staticmethod
    def _walk(node):
        yield node
        if node.var is not None:
            yield from ReferenceCart._walk(node.left)
            yield from ReferenceCart._walk(node.right)

    @classmethod
    def _number_leaves(cls, root):
        leaves = (node for node in cls._walk(root) if node.var is None)
        for leaf_id, leaf in enumerate(leaves):
            leaf.leaf_id = leaf_id

    @classmethod
    def n_leaves(cls, root):
        return sum(node.var is None for node in cls._walk(root))

    @classmethod
    def node_indices(cls, root):
        return {node.index for node in cls._walk(root)}

    def dump(self, root):
        def fmt(v):
            return format(float(v), ".17g")

        lines = ["cart-tree v1", f"features {self.n_features}"]
        if self.feature_names:
            lines.append("names " + " ".join(self.feature_names))

        def walk(node, depth):
            pad = "  " * depth
            if node.var is None:
                lines.append(f"{pad}leaf id={node.leaf_id} mean={fmt(node.mean)} "
                             f"count={node.count} sse={fmt(node.sse)}")
            else:
                lines.append(f"{pad}split var={node.var} threshold={fmt(node.threshold)} "
                             f"mean={fmt(node.mean)} count={node.count} sse={fmt(node.sse)}")
                walk(node.left, depth + 1)
                walk(node.right, depth + 1)

        walk(root, 0)
        return "\n".join(lines) + "\n"

    @classmethod
    def _copy_subtree(cls, node, collapsed):
        if node.var is None or node.index in collapsed:
            return Node(node.mean, node.count, node.sse, index=node.index)
        out = Node(node.mean, node.count, node.sse, index=node.index,
                   var=node.var, threshold=node.threshold)
        out.left = cls._copy_subtree(node.left, collapsed)
        out.right = cls._copy_subtree(node.right, collapsed)
        return out

    @classmethod
    def _subtree_stats(cls, node, table):
        if node.var is None:
            return 1, node.sse
        ln, ls = cls._subtree_stats(node.left, table)
        rn, rs = cls._subtree_stats(node.right, table)
        table[node.index] = (ln + rn, ls + rs)
        return ln + rn, ls + rs

    def _prune(self):
        root, collapsed = self.root, set()
        entries = [(root, 0.0)]
        current = root
        while current.var is not None:
            stats = {}
            self._subtree_stats(current, stats)
            weakest, weakest_g = None, None
            for internal in self._walk(current):
                if internal.var is None:
                    continue
                leaves_n, leaves_sse = stats[internal.index]
                g = (internal.sse - leaves_sse) / (leaves_n - 1)
                if weakest_g is None or g < weakest_g:
                    weakest, weakest_g = internal, g
            collapsed.add(weakest.index)
            current = self._copy_subtree(root, frozenset(collapsed))
            self._number_leaves(current)
            entries.append((current, float(weakest_g)))
        return entries

    def test_costs(self, test):
        out = []
        for tree, _ in self.entries:
            pred = np.array([self.route(tree, row).mean for row in test.features])
            resid = pred - test.targets
            out.append(float(resid @ resid))
        return out

    def select(self, test):
        best = None
        for (tree, _), cost in zip(self.entries, self.test_costs(test)):
            if best is None or cost <= best[1]:
                best = (tree, cost)
        return best[0]

    def curve(self, test):
        costs = self.test_costs(test)
        base, out = costs[-1], []
        for (tree, _), cost in zip(self.entries, costs):
            if base > 0.0:
                rel = cost / base
            else:
                rel = 1.0 if cost == 0.0 else float("inf")
            out.append((self.n_leaves(tree), float(rel)))
        return out


class ReferenceCsv:
    """The rates-CSV loader as it was before the bulk parser: ``csv.reader``
    row by row, one ``_parse_month`` and one ``float`` per cell.  Copied
    unchanged, so on every file both accept, the series must be equal bit for
    bit, and every error they share must carry the same message."""

    @staticmethod
    def load(path) -> dict:
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise ValueError(f"empty file: {path}") from None
            header = [h.strip() for h in header]
            if not header or header[0] != "date":
                raise ValueError(f"first column must be 'date', got {header[:1]}")
            codes = header[1:]
            if not codes:
                raise ValueError("no rate columns in header")

            months = []
            columns = [[] for _ in codes]
            for lineno, row in enumerate(reader, start=2):
                if not row or all(not c.strip() for c in row):
                    continue
                if len(row) != len(header):
                    raise ValueError(f"row {lineno}: expected {len(header)} fields, got {len(row)}")
                months.append(ReferenceCsv._parse_month(row[0].strip(), lineno))
                for j, cell in enumerate(row[1:]):
                    try:
                        columns[j].append(float(cell))
                    except ValueError:
                        raise ValueError(
                            f"row {lineno}: non-numeric rate {cell!r} for {codes[j]}") from None

        if not months:
            raise ValueError(f"empty file: {path}")
        for i in range(1, len(months)):
            if months[i] != months[i - 1] + 1:
                raise ValueError(
                    f"non-consecutive months at row {i + 2}: "
                    f"{ReferenceCsv._month_str(months[i - 1])} then "
                    f"{ReferenceCsv._month_str(months[i])}")

        year, month = divmod(months[0], 12)
        return {
            code: RateSeries(code, year, month + 1, np.array(col))
            for code, col in zip(codes, columns)
        }

    @staticmethod
    def _parse_month(text: str, lineno: int) -> int:
        parts = text.split("-")
        if len(parts) != 2 or not (parts[0].isdigit() and parts[1].isdigit()):
            raise ValueError(f"row {lineno}: date {text!r} is not YYYY-MM")
        year, month = int(parts[0]), int(parts[1])
        if not 1 <= month <= 12:
            raise ValueError(f"row {lineno}: month {month} out of range in {text!r}")
        return year * 12 + (month - 1)

    @staticmethod
    def _month_str(index: int) -> str:
        year, month = divmod(index, 12)
        return f"{year:04d}-{month + 1:02d}"
