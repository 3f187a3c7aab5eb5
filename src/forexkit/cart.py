"""Binary recursive partitioning for regression with cost-complexity pruning.

Growth: exhaustive best-split search (thresholds at midpoints between
consecutive distinct sorted values, split accepted only when both children
keep ``min_node_size`` rows and the SSE reduction is strictly positive),
recursing until no node admits a split.  Every node, internal or terminal,
carries the mean of the training targets that reach it.

Pruning: weakest-link cost-complexity (Breiman et al. 1984, ch. 3).
Repeatedly collapse the internal node with the smallest SSE-gain-per-leaf
g = (node SSE - leaf SSE) / (leaves - 1), the first in preorder on ties,
yielding a nested subtree sequence down to the root-only tree; the best
subtree is then chosen by test-sample SSE (ties toward fewer leaves).

Pruning, scoring and routing run on the tree's preorder arrays (``_Flat``),
built once per tree; node i's subtree is the index range i..end[i]-1.  A
collapse refreshes only its ancestors' leaf counts and leaf SSEs, and an
entry's ``Node`` tree is built when first read.  Test rows are routed once to
the maximal tree's leaves, and each collapse then resets the predictions of
the rows under it, so every alpha and test cost keeps the bits that
rebuilding and re-routing each subtree gives.

Routing convention: x[var] <= threshold goes left; NaN goes right.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .data import Dataset, as_rows
from .dumpfmt import Lines, expect, fmt, integer, keyed, number

_TIE_REL = 1e-9  # SSE reductions closer than this (relative to parent SSE) tie


@dataclass
class Node:
    """One tree node; ``var`` is None for leaves.  ``index`` is the preorder
    position in the maximal tree and survives pruning, so subtree nesting can
    be checked by index-set inclusion."""

    mean: float
    count: int
    sse: float
    index: int = -1
    var: int | None = None
    threshold: float | None = None
    left: "Node | None" = None
    right: "Node | None" = None
    leaf_id: int = -1

    @property
    def is_leaf(self) -> bool:
        return self.var is None


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


@dataclass(frozen=True)
class CartTree:
    """A grown, pruned or loaded tree.  Its nodes must not change once the
    tree is used: the preorder arrays are built on first use and kept."""

    root: Node
    n_features: int
    feature_names: tuple = ()

    @cached_property
    def _flat(self) -> "_Flat":
        return _Flat(self.root)

    def leaves(self) -> list:
        return [node for node in self._flat.nodes if node.is_leaf]

    def internal_nodes(self) -> list:
        return [node for node in self._flat.nodes if not node.is_leaf]

    def node_indices(self) -> frozenset:
        return frozenset(node.index for node in self._flat.nodes)

    @property
    def n_leaves(self) -> int:
        return int(np.count_nonzero(self._flat.left < 0))


class _Flat:
    """A tree's nodes in preorder as arrays.  Leaves have left = right = -1;
    node i's subtree is the index range i..end[i]-1."""

    def __init__(self, root: Node):
        nodes, parent, stack = [], [], [(root, -1)]
        while stack:
            node, up = stack.pop()
            parent.append(up)
            nodes.append(node)
            if not node.is_leaf:
                stack += ((node.right, len(nodes) - 1), (node.left, len(nodes) - 1))
        n = len(nodes)
        self.nodes, self.parent = nodes, np.array(parent)
        self.left, self.right, self.end = np.full(n, -1), np.full(n, -1), np.arange(1, n + 1)
        self.var = np.array([node.var or 0 for node in nodes])
        self.threshold = np.array([node.threshold or 0.0 for node in nodes], dtype=float)
        self.mean = np.array([node.mean for node in nodes], dtype=float)
        self.sse = np.array([node.sse for node in nodes], dtype=float)
        self.leaf_id = np.array([node.leaf_id for node in nodes], dtype=int)
        for j in reversed(range(1, n)):
            i = parent[j]
            if j == i + 1:
                self.left[i] = j
            else:
                self.right[i] = j
                self.end[i] = self.end[j]


def _sse(y: np.ndarray) -> float:
    return float(np.sum((y - y.mean()) ** 2)) if y.size else 0.0


def _best_split_arrays(X: np.ndarray, y: np.ndarray, cfg: CartConfig, parent_sse: float):
    """Best (var, threshold, reduction) or None; parent_sse is ``_sse(y)``.
    Near-tied reductions resolve to the lowest variable index, then the
    smallest threshold."""
    n = y.size
    if n < 2 * cfg.min_node_size or n < 2:
        return None
    if y.max() == y.min():
        return None  # pure node: splitting cannot help
    tol = _TIE_REL * parent_sse
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


def best_split(rows: Dataset, cfg: CartConfig = CartConfig()):
    """Split of a dataset node, or None when no admissible split exists."""
    if rows.n_rows == 0:
        raise ValueError("cannot split an empty node")
    return _best_split_arrays(rows.features, rows.targets, cfg, _sse(rows.targets))


def grow(train: Dataset, cfg: CartConfig = CartConfig()) -> CartTree:
    """Grow the maximal tree by recursive best-split search.  Nodes are
    numbered in preorder and leaves get dense left-to-right ids."""
    if train.n_rows == 0:
        raise ValueError("cannot grow a tree on an empty dataset")
    indices, leaf_ids = itertools.count(), itertools.count()

    def build(X, y, depth):
        node = Node(mean=float(y.mean()), count=int(y.size), sse=_sse(y),
                    index=next(indices))
        pick = None
        if cfg.max_depth is None or depth < cfg.max_depth:
            pick = _best_split_arrays(X, y, cfg, node.sse)
        if pick is None:
            node.leaf_id = next(leaf_ids)
            return node
        var, thr, _ = pick
        mask = X[:, var] <= thr
        node.var, node.threshold = var, thr
        node.left = build(X[mask], y[mask], depth + 1)
        node.right = build(X[~mask], y[~mask], depth + 1)
        return node

    root = build(train.features, train.targets, 0)
    return CartTree(root, train.n_features, train.feature_names)


def _route(f: _Flat, X: np.ndarray) -> np.ndarray:
    """Preorder index of the leaf each row of X reaches, one tree level per
    step over all rows still at an internal node."""
    node = np.zeros(len(X), dtype=np.intp)
    rows = np.arange(len(X))
    while rows.size:
        at = node[rows]
        inner = f.left[at] >= 0
        rows, at = rows[inner], at[inner]
        node[rows] = np.where(X[rows, f.var[at]] <= f.threshold[at], f.left[at], f.right[at])
    return node


def predict(tree: CartTree, x):
    """Mean of the training targets at the reached leaf."""
    out = tree._flat.mean[_route(tree._flat, as_rows(x, tree.n_features))]
    return float(out[0]) if np.ndim(x) == 1 else out


def node_id(tree: CartTree, x):
    """Dense id of the reached leaf; constant on each leaf's region."""
    out = tree._flat.leaf_id[_route(tree._flat, as_rows(x, tree.n_features))]
    return int(out[0]) if np.ndim(x) == 1 else out


# --- cost-complexity pruning ---------------------------------------------------


@dataclass(frozen=True)
class PruneEntry:
    """One subtree of a pruning sequence: the maximal tree with the nodes
    ``collapsed`` (preorder indices, in collapse order) made leaves.  Its
    ``tree`` is built when first read."""

    alpha: float
    n_leaves: int
    maximal: CartTree = field(repr=False)
    collapsed: tuple = ()
    test_cost: float | None = None

    @cached_property
    def tree(self) -> CartTree:
        if not self.collapsed:
            return self.maximal
        f, collapsed, leaf_ids = self.maximal._flat, set(self.collapsed), itertools.count()

        def copy(i):
            src = f.nodes[i]
            node = Node(src.mean, src.count, src.sse, index=src.index)
            if src.is_leaf or i in collapsed:
                node.leaf_id = next(leaf_ids)
            else:
                node.var, node.threshold = src.var, src.threshold
                node.left = copy(i + 1)
                node.right = copy(int(f.right[i]))
            return node

        return CartTree(copy(0), self.maximal.n_features, self.maximal.feature_names)


@dataclass(frozen=True)
class PruneSequence:
    entries: tuple

    def __post_init__(self):
        object.__setattr__(self, "entries", tuple(self.entries))

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)


def prune_sequence(tree: CartTree, train: Dataset) -> PruneSequence:
    """Weakest-link pruning: nested subtrees from maximal down to the root.  g
    is inf off the live internal nodes; argmin's first minimum is first in preorder."""
    f = tree._flat
    left, right, parent, sse = (a.tolist() for a in (f.left, f.right, f.parent, f.sse))
    leaves, leaf_sse = [1] * len(sse), list(sse)
    g = np.full(len(sse), np.inf)

    def refresh(i):
        leaves[i] = leaves[left[i]] + leaves[right[i]]
        leaf_sse[i] = leaf_sse[left[i]] + leaf_sse[right[i]]
        g[i] = (sse[i] - leaf_sse[i]) / (leaves[i] - 1)

    for i in reversed(np.flatnonzero(f.left >= 0).tolist()):
        refresh(i)
    entries, collapsed = [PruneEntry(0.0, leaves[0], tree)], ()
    while leaves[0] > 1:
        v = int(np.argmin(g))
        alpha = float(g[v])
        g[v:f.end[v]] = np.inf
        leaves[v], leaf_sse[v], collapsed = 1, sse[v], collapsed + (v,)
        u = parent[v]
        while u >= 0:
            refresh(u)
            u = parent[u]
        entries.append(PruneEntry(alpha, leaves[0], tree, collapsed))
    return PruneSequence(tuple(entries))


def evaluate_sequence(seq: PruneSequence, test: Dataset) -> PruneSequence:
    """Copy of the sequence with test-sample SSE filled in per subtree.  The
    rows are routed once to the maximal tree's leaves; each collapse then
    sets the prediction of the rows under the collapsed node to its mean."""
    if test.n_rows == 0:
        raise ValueError("test sample is empty")
    if not seq.entries:
        return seq
    maximal = seq.entries[0].maximal
    f = maximal._flat
    node = _route(f, as_rows(test.features, maximal.n_features))
    pred, done, scored = f.mean[node], 0, []
    for entry in seq:
        for v in entry.collapsed[done:]:
            pred[(node >= v) & (node < f.end[v])] = f.mean[v]
        done = len(entry.collapsed)
        resid = pred - test.targets
        scored.append(replace(entry, test_cost=float(resid @ resid)))
    return PruneSequence(tuple(scored))


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

    def walk(node, depth):
        pad = "  " * depth
        if node.is_leaf:
            lines.append(f"{pad}leaf id={node.leaf_id} mean={fmt(node.mean)} "
                         f"count={node.count} sse={fmt(node.sse)}")
        else:
            lines.append(f"{pad}split var={node.var} threshold={fmt(node.threshold)} "
                         f"mean={fmt(node.mean)} count={node.count} sse={fmt(node.sse)}")
            walk(node.left, depth + 1)
            walk(node.right, depth + 1)

    walk(tree.root, 0)
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
    indices, leaf_ids = itertools.count(), itertools.count()

    def parse(numbered, depth):
        no, line = numbered
        if (len(line) - len(line.lstrip())) // 2 != depth:
            raise ValueError(f"line {no}: bad indentation")
        kind, *pairs = line.split()
        fields = dict(pair.partition("=")[::2] for pair in pairs)
        wanted = _NODE_FIELDS.get(kind, ())
        if not wanted or len(pairs) != len(wanted) or set(fields) != set(wanted):
            raise ValueError(f"line {no}: expected a leaf or split node")
        node = Node(number(no, fields["mean"]), integer(no, fields["count"]),
                    number(no, fields["sse"]), index=next(indices))
        if node.sse < 0.0:
            raise ValueError(f"line {no}: sse must be >= 0, got {fields['sse']}")
        if kind == "leaf":
            node.leaf_id = integer(no, fields["id"])
            if node.leaf_id != next(leaf_ids):
                raise ValueError(f"line {no}: leaf ids must count up from 0")
            return node
        node.var = integer(no, fields["var"], 0, n_features - 1)
        node.threshold = number(no, fields["threshold"])
        node.left = parse(lines.take("a left child"), depth + 1)
        node.right = parse(lines.take("a right child"), depth + 1)
        return node

    try:
        root = parse(first, 0)
    except RecursionError:
        raise ValueError(f"line {first[0]}: tree too deep to load") from None
    lines.finish("tree body")
    return CartTree(root, n_features, names)
