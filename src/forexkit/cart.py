"""Binary recursive partitioning for regression with cost-complexity pruning.

Growth: exhaustive best-split search (thresholds at midpoints between
consecutive distinct sorted values, split accepted only when both children
keep ``min_node_size`` rows and the SSE reduction is strictly positive),
recursing until no node admits a split.  Every node, internal or terminal,
carries the mean of the training targets that reach it.

Pruning: weakest-link cost-complexity.  Repeatedly collapse the internal
node with the smallest SSE-gain-per-leaf, yielding a nested subtree sequence
down to the root-only tree; the best subtree is then chosen by test-sample
SSE (ties toward fewer leaves).

Routing convention: x[var] <= threshold goes left.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace

import numpy as np

from .data import Dataset
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
        if self.min_split_gain < 0.0:
            raise ValueError("min_split_gain must be >= 0")


@dataclass(frozen=True)
class CartTree:
    root: Node
    n_features: int
    feature_names: tuple = ()

    def leaves(self) -> list:
        out = []
        _collect_leaves(self.root, out)
        return out

    def internal_nodes(self) -> list:
        out = []
        _collect_internal(self.root, out)
        return out

    def node_indices(self) -> frozenset:
        idx = set()
        _collect_indices(self.root, idx)
        return frozenset(idx)

    @property
    def n_leaves(self) -> int:
        return len(self.leaves())


def _collect_leaves(node: Node, out: list):
    if node.is_leaf:
        out.append(node)
    else:
        _collect_leaves(node.left, out)
        _collect_leaves(node.right, out)


def _collect_internal(node: Node, out: list):
    if not node.is_leaf:
        out.append(node)
        _collect_internal(node.left, out)
        _collect_internal(node.right, out)


def _collect_indices(node: Node, out: set):
    out.add(node.index)
    if not node.is_leaf:
        _collect_indices(node.left, out)
        _collect_indices(node.right, out)


def _sse(y: np.ndarray) -> float:
    return float(np.sum((y - y.mean()) ** 2)) if y.size else 0.0


def _best_split_arrays(X: np.ndarray, y: np.ndarray, cfg: CartConfig):
    """Best (var, threshold, reduction) or None.  Near-tied reductions resolve
    to the lowest variable index, then the smallest threshold."""
    n = y.size
    if n < 2 * cfg.min_node_size or n < 2:
        return None
    if y.max() == y.min():
        return None  # pure node: splitting cannot help
    parent_sse = _sse(y)
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
    return _best_split_arrays(rows.features, rows.targets, cfg)


def grow(train: Dataset, cfg: CartConfig = CartConfig()) -> CartTree:
    """Grow the maximal tree by recursive best-split search."""
    if train.n_rows == 0:
        raise ValueError("cannot grow a tree on an empty dataset")

    def build(X, y, depth):
        node = Node(mean=float(y.mean()), count=int(y.size), sse=_sse(y))
        if cfg.max_depth is not None and depth >= cfg.max_depth:
            return node
        pick = _best_split_arrays(X, y, cfg)
        if pick is None:
            return node
        var, thr, _ = pick
        mask = X[:, var] <= thr
        node.var, node.threshold = var, thr
        node.left = build(X[mask], y[mask], depth + 1)
        node.right = build(X[~mask], y[~mask], depth + 1)
        return node

    root = build(train.features, train.targets, 0)
    _finalize(root)
    return CartTree(root, train.n_features, train.feature_names)


def _finalize(root: Node):
    """Assign preorder node indices and dense left-to-right leaf ids."""
    counter = {"node": 0, "leaf": 0}

    def walk(node):
        node.index = counter["node"]
        counter["node"] += 1
        if node.is_leaf:
            node.leaf_id = counter["leaf"]
            counter["leaf"] += 1
        else:
            node.leaf_id = -1
            walk(node.left)
            walk(node.right)

    walk(root)


def _route(node: Node, x: np.ndarray) -> Node:
    while not node.is_leaf:
        node = node.left if x[node.var] <= node.threshold else node.right
    return node


def _check_dim(tree: CartTree, x: np.ndarray):
    if x.shape[-1] != tree.n_features:
        raise ValueError(f"expected {tree.n_features} features, got {x.shape[-1]}")


def predict(tree: CartTree, x):
    """Mean of the training targets at the reached leaf."""
    x = np.asarray(x, dtype=float)
    _check_dim(tree, x)
    if x.ndim == 1:
        return _route(tree.root, x).mean
    return np.array([_route(tree.root, row).mean for row in x])


def node_id(tree: CartTree, x):
    """Dense id of the reached leaf; constant on each leaf's region."""
    x = np.asarray(x, dtype=float)
    _check_dim(tree, x)
    if x.ndim == 1:
        return _route(tree.root, x).leaf_id
    return np.array([_route(tree.root, row).leaf_id for row in x], dtype=int)


# --- cost-complexity pruning ---------------------------------------------------


@dataclass(frozen=True)
class PruneEntry:
    tree: CartTree
    alpha: float
    test_cost: float | None = None


@dataclass(frozen=True)
class PruneSequence:
    entries: tuple

    def __post_init__(self):
        object.__setattr__(self, "entries", tuple(self.entries))

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)


def _copy_subtree(node: Node, collapsed: frozenset) -> Node:
    if node.is_leaf or node.index in collapsed:
        return Node(node.mean, node.count, node.sse, index=node.index)
    out = Node(node.mean, node.count, node.sse, index=node.index,
               var=node.var, threshold=node.threshold)
    out.left = _copy_subtree(node.left, collapsed)
    out.right = _copy_subtree(node.right, collapsed)
    return out


def _subtree_stats(node: Node, table: dict):
    """(leaf count, summed leaf SSE) per internal node index."""
    if node.is_leaf:
        return 1, node.sse
    ln, ls = _subtree_stats(node.left, table)
    rn, rs = _subtree_stats(node.right, table)
    table[node.index] = (ln + rn, ls + rs)
    return ln + rn, ls + rs


def prune_sequence(tree: CartTree, train: Dataset) -> PruneSequence:
    """Weakest-link pruning: nested subtrees from maximal down to the root."""
    collapsed: set = set()
    entries = [PruneEntry(tree, 0.0)]
    current = tree.root
    while not current.is_leaf:
        stats: dict = {}
        _subtree_stats(current, stats)
        weakest, weakest_g = None, None
        for internal in _internal_preorder(current):
            leaves_n, leaves_sse = stats[internal.index]
            g = (internal.sse - leaves_sse) / (leaves_n - 1)
            if weakest_g is None or g < weakest_g:
                weakest, weakest_g = internal, g
        collapsed.add(weakest.index)
        current = _copy_subtree(tree.root, frozenset(collapsed))
        sub = CartTree(current, tree.n_features, tree.feature_names)
        _finalize_leaf_ids(sub.root)
        entries.append(PruneEntry(sub, float(weakest_g)))
    return PruneSequence(tuple(entries))


def _internal_preorder(root: Node):
    out: list = []
    _collect_internal(root, out)
    return out


def _finalize_leaf_ids(root: Node):
    """Reassign dense leaf ids without touching preorder node indices."""
    counter = {"leaf": 0}

    def walk(node):
        if node.is_leaf:
            node.leaf_id = counter["leaf"]
            counter["leaf"] += 1
        else:
            node.leaf_id = -1
            walk(node.left)
            walk(node.right)

    walk(root)


def _test_sse(tree: CartTree, test: Dataset) -> float:
    resid = predict(tree, test.features) - test.targets
    return float(resid @ resid)


def evaluate_sequence(seq: PruneSequence, test: Dataset) -> PruneSequence:
    """Copy of the sequence with test-sample SSE filled in per subtree."""
    if test.n_rows == 0:
        raise ValueError("test sample is empty")
    return PruneSequence(tuple(replace(e, test_cost=_test_sse(e.tree, test))
                               for e in seq))


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
        curve.append((entry.tree.n_leaves, float(rel)))
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
    leaf_ids = itertools.count()

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
                    number(no, fields["sse"]))
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
    counter = {"node": 0}

    def index(node):
        node.index = counter["node"]
        counter["node"] += 1
        if not node.is_leaf:
            index(node.left)
            index(node.right)

    index(root)
    return CartTree(root, n_features, names)
