"""Binary recursive partitioning for regression with cost-complexity pruning.

Growth: exhaustive best-split search (thresholds at midpoints between
consecutive distinct sorted values, split accepted only when both children
keep ``min_node_size`` rows and the SSE reduction is strictly positive),
until no node admits a split.  The tree grows one level at a time from one
stable sort per variable: at each level a stable partition of that order by
node gives every node its rows sorted by x, ties in row order, and all of
the level's nodes are scored together, each in its own zero-padded row, so
every running sum and pick has the bits of searching that node alone.
Every node, internal or terminal, carries the mean and SSE of the training
targets that reach it, summed in row order.  The nodes are emitted in
preorder once the last level is done.

Pruning: weakest-link cost-complexity (Breiman et al. 1984, ch. 3).
Repeatedly collapse the internal node with the smallest SSE-gain-per-leaf
g = (node SSE - leaf SSE) / (leaves - 1), the first in preorder on ties,
yielding a nested subtree sequence down to the root-only tree; the best
subtree is then chosen by test-sample SSE (ties toward fewer leaves).

A tree is one read-only array per node field, in preorder: node i's subtree
is the index range i..end[i]-1, its children are i + 1 and end[i + 1], and
leaves are numbered in preorder.  A collapse refreshes only its ancestors'
leaf counts and leaf SSEs, and an entry's tree is sliced from the maximal
tree when first read.  Test rows are routed once to the maximal tree's
leaves, and each collapse resets the predictions of the rows under it, so
every alpha and test cost keeps the bits of rebuilding and re-routing.

Routing convention: x[var] <= threshold goes left; NaN goes right.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .data import Dataset, as_rows, require_finite
from .dumpfmt import Lines, expect, fmt, integer, keyed, number

_TIE_REL = 1e-9  # SSE reductions closer than this (relative to parent SSE) tie


@dataclass(frozen=True)
class CartConfig:
    min_node_size: int = 5
    min_split_gain: float = 0.0
    max_depth: int | None = None

    def __post_init__(self):
        if self.min_node_size < 1:
            raise ValueError("min_node_size must be >= 1")
        if not self.min_split_gain >= 0.0:
            raise ValueError("min_split_gain must be >= 0")
        if self.max_depth is not None and self.max_depth < 0:
            raise ValueError("max_depth must be >= 0")


@dataclass(frozen=True, eq=False)
class CartTree:
    """A grown, pruned or loaded tree: one read-only array per node field, in
    preorder.  ``var`` is -1 at a leaf, whose ``threshold`` is 0.  ``index``
    is the node's preorder position in the maximal tree and survives pruning,
    so subtree nesting can be checked by index-set inclusion."""

    n_features: int
    feature_names: tuple
    var: np.ndarray
    threshold: np.ndarray
    mean: np.ndarray
    count: np.ndarray
    sse: np.ndarray
    index: np.ndarray
    end: np.ndarray

    def __post_init__(self):
        for a in (self.var, self.threshold, self.mean, self.count, self.sse,
                  self.index, self.end):
            a.flags.writeable = False

    def node_indices(self) -> frozenset:
        return frozenset(self.index.tolist())

    @property
    def n_leaves(self) -> int:
        return int(np.count_nonzero(self.var < 0))


def _from_preorder(n_features: int, names: tuple, nodes: list) -> CartTree:
    """A grown or loaded tree from its (var, threshold, mean, count, sse)
    node tuples in preorder."""
    var, threshold, mean, count, sse = (np.array(column) for column in zip(*nodes))
    end = list(range(1, len(nodes) + 1))
    for i in reversed(np.flatnonzero(var >= 0).tolist()):
        end[i] = end[end[i + 1]]
    return CartTree(n_features, names, var, threshold, mean, count, sse,
                    np.arange(len(nodes)), np.array(end))


def _mean_sse(y: np.ndarray) -> tuple:
    """A node's mean and SSE, both pairwise sums over its targets in row order."""
    mean = y.mean()
    return float(mean), float(((y - mean) ** 2).sum())


def _splittable(y: np.ndarray, cfg: CartConfig) -> bool:
    """Whether a node with targets y is searched: it has room for two children
    of ``min_node_size`` rows and is not pure (splitting cannot help)."""
    return y.size >= max(2, 2 * cfg.min_node_size) and y.max() != y.min()


def _splits(X: np.ndarray, y: np.ndarray, order: np.ndarray, label: np.ndarray,
            parent_sse: np.ndarray, cfg: CartConfig):
    """Best split of every node of a level, as (var, threshold, reduction)
    arrays with var -1 where a node has none.  Row r is in node ``label[r]``,
    or in none when that is ``len(parent_sse)``; ``order[v]`` holds every row
    stable-sorted by variable v.  Partitioning each order by label with a
    stable sort gives every node its rows sorted by x, ties in row order.
    Each node's sorted x and y sit in their own zero-padded row, so its running
    sums start from zero.  Near-tied reductions resolve to the lowest variable
    index, then the smallest threshold."""
    n_nodes, d = parent_sse.size, order.shape[0]
    counts = np.bincount(label, minlength=n_nodes + 1)[:n_nodes]
    width, by_var, by_node = int(counts.max()), np.arange(d)[:, None], np.arange(n_nodes)
    rank = np.argsort(label[order], axis=1, kind="stable")[:, :counts.sum()]
    rows = order[by_var, rank]
    slot = np.arange(rows.shape[1]) + np.repeat(
        by_node * width - (np.cumsum(counts) - counts), counts)
    xs, ys = np.zeros((2, d, n_nodes * width))
    xs[:, slot] = X[rows, by_var]
    ys[:, slot] = y[rows]
    xs, ys = xs.reshape(d, n_nodes, width), ys.reshape(d, n_nodes, width)
    csum, csq = np.cumsum(ys, axis=2), np.cumsum(ys * ys, axis=2)
    i, n = np.arange(1, width), counts[:, None]
    ok = (xs[..., :-1] < xs[..., 1:]) & (i >= cfg.min_node_size) & (n - i >= cfg.min_node_size)
    left_sse = csq[..., :-1] - csum[..., :-1] ** 2 / i
    # the last column holds the node's totals; n - i < 1 only where not ok
    right_sse = ((csq[..., -1:] - csq[..., :-1])
                 - (csum[..., -1:] - csum[..., :-1]) ** 2 / np.maximum(n - i, 1))
    red = np.where(ok, parent_sse[:, None] - left_sse - right_sse, -np.inf)
    top = red.max(axis=2)
    tol = _TIE_REL * parent_sse
    k = np.argmax(red >= (top - tol)[..., None], axis=2)  # first near-tied: smallest threshold
    reduction = red[by_var, by_node, k]
    threshold = 0.5 * (xs[by_var, by_node, k] + xs[by_var, by_node, k + 1])
    var, thr, best = np.full(n_nodes, -1), np.zeros(n_nodes), np.zeros(n_nodes)
    for v in range(d):
        take = ~((top[v] <= 0.0) | (top[v] < cfg.min_split_gain))
        take &= (var < 0) | (reduction[v] > best + tol)
        var[take], thr[take], best[take] = v, threshold[v, take], reduction[v, take]
    return var, thr, best


def best_split(rows: Dataset, cfg: CartConfig = CartConfig()):
    """Split of a dataset node, or None when no admissible split exists."""
    if rows.n_rows == 0:
        raise ValueError("cannot split an empty node")
    X, y = rows.features, rows.targets
    if not _splittable(y, cfg):
        return None
    var, thr, red = _splits(X, y, np.argsort(X, axis=0, kind="stable").T,
                            np.zeros(y.size, dtype=np.intp), np.array([_mean_sse(y)[1]]), cfg)
    return None if var[0] < 0 else (int(var[0]), float(thr[0]), float(red[0]))


def grow(train: Dataset, cfg: CartConfig = CartConfig()) -> CartTree:
    """Grow the maximal tree one level at a time from one stable sort per
    variable, then emit its nodes in preorder.  Each node's mean and SSE are
    taken over its targets in row order."""
    if train.n_rows == 0:
        raise ValueError("cannot grow a tree on an empty dataset")
    require_finite(train)
    X, y = train.features, train.targets
    order = np.argsort(X, axis=0, kind="stable").T
    nodes, left = [], {}  # left[i]: left child of split node i; its right child follows
    label = np.zeros(y.size, dtype=np.intp)  # row's node in the level; n_level for none
    n_level, depth = 1, 0
    while n_level:
        deeper = cfg.max_depth is None or depth < cfg.max_depth
        base = len(nodes)
        counts = np.bincount(label, minlength=n_level + 1)[:n_level]
        ends = np.cumsum(counts)
        targets = y[np.argsort(label, kind="stable")]  # node by node, each in row order
        sse, searched = np.zeros(n_level), np.zeros(n_level, dtype=bool)
        for f, (lo, hi) in enumerate(zip((ends - counts).tolist(), ends.tolist())):
            part = targets[lo:hi]
            mean, sse[f] = _mean_sse(part)
            nodes.append([-1, 0.0, mean, hi - lo, sse[f]])
            searched[f] = deeper and _splittable(part, cfg)
        var, thr = np.full(n_level + 1, -1), np.zeros(n_level + 1)
        if searched.any():
            at = np.flatnonzero(searched)
            search_label = np.full(n_level + 1, at.size)
            search_label[at] = np.arange(at.size)
            var[at], thr[at], _ = _splits(X, y, order, search_label[label], sse[at], cfg)
        split = np.flatnonzero(var >= 0)
        child = np.zeros(n_level + 1, dtype=np.intp)
        child[split] = 2 * np.arange(split.size)
        for j, f in enumerate(split.tolist()):
            nodes[base + f][:2] = int(var[f]), float(thr[f])
            left[base + f] = base + n_level + 2 * j
        at_var = var[label]
        right = X[np.arange(y.size), at_var] > thr[label]  # training rows are finite
        label = np.where(at_var >= 0, child[label] + right, 2 * split.size)
        n_level, depth = 2 * split.size, depth + 1
    preorder, stack = [], [0]
    while stack:
        i = stack.pop()
        preorder.append(nodes[i])
        if i in left:
            stack += (left[i] + 1, left[i])
    return _from_preorder(train.n_features, train.feature_names, preorder)


def _route(tree: CartTree, X: np.ndarray) -> np.ndarray:
    """Preorder index of the leaf each row of X reaches, one tree level per
    step over all rows still at an internal node."""
    node = np.zeros(len(X), dtype=np.intp)
    rows = np.arange(len(X))
    while rows.size:
        at = node[rows]
        inner = tree.var[at] >= 0
        rows, at = rows[inner], at[inner]
        left = X[rows, tree.var[at]] <= tree.threshold[at]
        node[rows] = np.where(left, at + 1, tree.end[at + 1])
    return node


def predict(tree: CartTree, x):
    """Mean of the training targets at the reached leaf."""
    out = tree.mean[_route(tree, as_rows(x, tree.n_features))]
    return float(out[0]) if np.ndim(x) == 1 else out


def node_id(tree: CartTree, x):
    """Dense id of the reached leaf; constant on each leaf's region."""
    leaf_id = np.cumsum(tree.var < 0) - 1
    out = leaf_id[_route(tree, as_rows(x, tree.n_features))]
    return int(out[0]) if np.ndim(x) == 1 else out


# --- cost-complexity pruning ---------------------------------------------------


@dataclass(frozen=True)
class PruneEntry:
    """One subtree of a pruning sequence: the maximal tree with the nodes
    ``collapsed`` (preorder indices, in collapse order) made leaves.  Its
    ``tree`` is sliced from the maximal tree when first read."""

    alpha: float
    n_leaves: int
    maximal: CartTree = field(repr=False)
    collapsed: tuple = ()
    test_cost: float | None = None

    @cached_property
    def tree(self) -> CartTree:
        if not self.collapsed:
            return self.maximal
        t, collapsed = self.maximal, list(self.collapsed)
        keep = np.ones(len(t.var), dtype=bool)
        for v in collapsed:
            keep[v + 1:t.end[v]] = False
        var, threshold = t.var.copy(), t.threshold.copy()
        var[collapsed], threshold[collapsed] = -1, 0.0
        return CartTree(t.n_features, t.feature_names, var[keep], threshold[keep],
                        t.mean[keep], t.count[keep], t.sse[keep], t.index[keep],
                        np.cumsum(keep)[t.end[keep] - 1])


@dataclass(frozen=True)
class PruneSequence:
    entries: tuple
    scored_on: Dataset | None = field(default=None, repr=False, compare=False)  # test_cost's rows

    def __post_init__(self):
        object.__setattr__(self, "entries", tuple(self.entries))

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)


def prune_sequence(tree: CartTree, train: Dataset) -> PruneSequence:
    """Weakest-link pruning: nested subtrees from maximal down to the root.  g
    is inf off the live internal nodes; argmin's first minimum is first in preorder."""
    sse, end = tree.sse.tolist(), tree.end.tolist()
    internal, parent = np.flatnonzero(tree.var >= 0).tolist(), [-1] * len(sse)
    for i in internal:
        parent[i + 1] = parent[end[i + 1]] = i
    leaves, leaf_sse = [1] * len(sse), list(sse)
    g = np.full(len(sse), np.inf)

    def refresh(i):
        leaves[i] = leaves[i + 1] + leaves[end[i + 1]]
        leaf_sse[i] = leaf_sse[i + 1] + leaf_sse[end[i + 1]]
        g[i] = (sse[i] - leaf_sse[i]) / (leaves[i] - 1)

    for i in reversed(internal):
        refresh(i)
    entries, collapsed = [PruneEntry(0.0, leaves[0], tree)], ()
    while leaves[0] > 1:
        v = int(np.argmin(g))
        alpha = float(g[v])
        g[v:end[v]] = np.inf
        leaves[v], leaf_sse[v], collapsed = 1, sse[v], collapsed + (v,)
        u = parent[v]
        while u >= 0:
            refresh(u)
            u = parent[u]
        entries.append(PruneEntry(alpha, leaves[0], tree, collapsed))
    return PruneSequence(tuple(entries))


def evaluate_sequence(seq: PruneSequence, test: Dataset) -> PruneSequence:
    """Copy of the sequence with test-sample SSE filled in per subtree, or
    the sequence itself when it was scored on this very test set.  The rows
    are routed once to the maximal tree's leaves; each collapse then sets
    the prediction of the rows under the collapsed node to its mean."""
    if test.n_rows == 0:
        raise ValueError("test sample is empty")
    if not seq.entries or seq.scored_on is test:
        return seq
    maximal = seq.entries[0].maximal
    node = _route(maximal, as_rows(test.features, maximal.n_features))
    pred, done, scored = maximal.mean[node], 0, []
    for entry in seq:
        for v in entry.collapsed[done:]:
            pred[(node >= v) & (node < maximal.end[v])] = maximal.mean[v]
        done = len(entry.collapsed)
        resid = pred - test.targets
        scored.append(replace(entry, test_cost=float(resid @ resid)))
    return PruneSequence(tuple(scored), test)


def select_min_cost(seq: PruneSequence, test: Dataset) -> CartTree:
    """Subtree with minimum test SSE; equal costs go to the smaller tree."""
    if len(seq) == 0:
        raise ValueError("empty prune sequence")
    scored = evaluate_sequence(seq, test)
    best = None
    for entry in scored:  # later entries have strictly fewer leaves
        if best is None or entry.test_cost <= best.test_cost:
            best = entry
    return best.tree


def relative_error_curve(seq: PruneSequence, test: Dataset):
    """(leaf count, test SSE / test SSE of the root-only tree) per subtree."""
    scored = evaluate_sequence(seq, test)
    base = scored.entries[-1].test_cost
    curve = []
    for entry in scored:
        if base > 0.0:
            rel = entry.test_cost / base
        else:
            rel = 1.0 if entry.test_cost == 0.0 else float("inf")
        curve.append((entry.n_leaves, float(rel)))
    return curve


# --- plain-text serialization -------------------------------------------------


def dump_tree(tree: CartTree) -> str:
    lines = ["cart-tree v1", f"features {tree.n_features}"]
    if tree.feature_names:
        lines.append("names " + " ".join(tree.feature_names))
    var, threshold, mean, count, sse, end = (a.tolist() for a in (
        tree.var, tree.threshold, tree.mean, tree.count, tree.sse, tree.end))
    depth, leaf_id = [0] * len(var), 0
    for i, v in enumerate(var):
        pad = "  " * depth[i]
        stats = f"mean={fmt(mean[i])} count={count[i]} sse={fmt(sse[i])}"
        if v < 0:
            lines.append(f"{pad}leaf id={leaf_id} {stats}")
            leaf_id += 1
        else:
            lines.append(f"{pad}split var={v} threshold={fmt(threshold[i])} {stats}")
            depth[i + 1] = depth[end[i + 1]] = depth[i] + 1
    return "\n".join(lines) + "\n"


_NODE_FIELDS = {"leaf": ("id", "mean", "count", "sse"),
                "split": ("var", "threshold", "mean", "count", "sse")}


def load_tree(text: str) -> CartTree:
    """Inverse of dump_tree.  Truncated, garbled or non-finite input raises
    ValueError naming its 1-based line."""
    lines = Lines(text)
    expect(lines.take("the header"), "cart-tree v1")
    n_features = integer(*keyed(lines.take("the features line"), "features"), 1)
    names: tuple = ()
    first = lines.take("the root node")
    if first[1].startswith("names "):
        names = tuple(first[1].split()[1:])
        if len(names) != n_features:
            raise ValueError(f"line {first[0]}: expected {n_features} names")
        first = lines.take("the root node")
    nodes, n_leaves = [], 0
    pending = [(0, None)]  # (depth, what) of the nodes still to read, next last
    while pending:
        depth, what = pending.pop()
        no, line = lines.take(what) if what else first
        if (len(line) - len(line.lstrip())) // 2 != depth:
            raise ValueError(f"line {no}: bad indentation")
        kind, *pairs = line.split()
        fields = dict(pair.partition("=")[::2] for pair in pairs)
        wanted = _NODE_FIELDS.get(kind, ())
        if not wanted or len(pairs) != len(wanted) or set(fields) != set(wanted):
            raise ValueError(f"line {no}: expected a leaf or split node")
        stats = (number(no, fields["mean"]),
                 integer(no, fields["count"], 0, np.iinfo(np.int64).max),
                 number(no, fields["sse"]))
        if stats[2] < 0.0:
            raise ValueError(f"line {no}: sse must be >= 0, got {fields['sse']}")
        if kind == "leaf":
            if integer(no, fields["id"]) != n_leaves:
                raise ValueError(f"line {no}: leaf ids must count up from 0")
            n_leaves += 1
            nodes.append((-1, 0.0) + stats)
        else:
            nodes.append((integer(no, fields["var"], 0, n_features - 1),
                          number(no, fields["threshold"])) + stats)
            pending += ((depth + 1, "a right child"), (depth + 1, "a left child"))
    lines.finish("tree body")
    return _from_preorder(n_features, names, nodes)
