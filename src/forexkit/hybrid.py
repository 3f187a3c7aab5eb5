"""Cooperative CART-then-MARS hybrid.

A regression tree is grown, pruned, and selected on the ``selection`` rows
(the bench's test sample, as in the paper); the terminal node it assigns to
each row is appended to the feature matrix as one-hot leaf indicators; MARS
is then fitted on the augmented data.  The tree runs once and goes to the
background — prediction augments the incoming row with the stored tree, then
delegates to the MARS model.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import cart, mars
from .data import Dataset, as_rows
from .dumpfmt import Lines, expect, keyed, tail


@dataclass(frozen=True)
class HybridModel:
    cart: cart.CartTree
    mars: mars.MarsModel

    @property
    def n_features(self) -> int:
        return self.cart.n_features

    @property
    def augmented_names(self) -> tuple:
        """The names of the columns MARS was fitted on."""
        return _augmented_names(self.cart.feature_names, self.cart)


def _augment_features(X: np.ndarray, tree: cart.CartTree) -> np.ndarray:
    n, d = X.shape
    out = np.zeros((n, d + tree.n_leaves))
    out[:, :d] = X
    out[np.arange(n), d + cart.node_id(tree, X)] = 1.0
    return out


def _augmented_names(names, tree: cart.CartTree) -> tuple:
    return tuple(names) + tuple(f"leaf_{k}" for k in range(tree.n_leaves))


def augment(ds: Dataset, tree: cart.CartTree) -> Dataset:
    """Append the tree's one-hot leaf indicators as extra feature columns;
    row order, targets, and provenance are preserved bit-exactly."""
    if ds.n_features != tree.n_features:
        raise ValueError(f"dataset has {ds.n_features} features, tree expects "
                         f"{tree.n_features}")
    return Dataset(feature_names=_augmented_names(ds.feature_names, tree),
                   features=_augment_features(ds.features, tree),
                   targets=ds.targets,
                   provenance=ds.provenance)


def fit_hybrid(train: Dataset, selection: Dataset,
               cart_cfg: cart.CartConfig = cart.CartConfig(),
               mars_cfg: mars.MarsConfig = mars.MarsConfig(),
               encoding: str = "one_hot_leaf") -> HybridModel:
    """The tree of least cost on ``selection``, then MARS on the augmented rows."""
    # ``encoding`` is kept only for perfbench/run.py:fit_predictor; ROADMAP item 9 deletes it
    if encoding != "one_hot_leaf":
        raise ValueError(f"encoding {encoding!r}: the hybrid encodes leaves one_hot_leaf only")
    if train.n_rows == 0:
        raise ValueError("training set is empty")
    seq = cart.prune_sequence(cart.grow(train, cart_cfg), train)
    tree = cart.select_min_cost(seq, selection)
    model = mars.fit(augment(train, tree), mars_cfg)
    return HybridModel(tree, model)


def predict(h: HybridModel, x):
    """Equal to MARS prediction on the augmented feature vector."""
    X = as_rows(x, h.cart.n_features)
    out = mars.predict(h.mars, _augment_features(X, h.cart))
    return float(out[0]) if np.ndim(x) == 1 else out


# --- composite serialization ----------------------------------------------------


def dump_hybrid(h: HybridModel) -> str:
    return ("hybrid-cart-mars v1\n"
            "encoding one_hot_leaf\n"
            f"augmented_names {' '.join(h.augmented_names)}\n"
            "[tree]\n" + cart.dump_tree(h.cart) +
            "[mars]\n" + mars.dump_model(h.mars))


def load_hybrid(text: str) -> HybridModel:
    """Inverse of dump_hybrid.  Truncated, garbled or non-finite input, and
    an encoding other than one_hot_leaf, and an augmented_names line or a
    MARS features count that does not match the tree, raise ValueError naming
    its 1-based line.  The encoding line stays in the format, so that every
    hybrid file written so far loads and dumps back byte for byte."""
    lines = text.splitlines()
    head = Lines(text)
    expect(head.take("the header"), "hybrid-cart-mars v1")
    expect(head.take("the encoding line"), "encoding one_hot_leaf")
    names_at, names = keyed(head.take("the augmented_names line"), "augmented_names")
    section = head.take("the [tree] section")
    expect(section, "[tree]")
    tree_at = section[0]
    if "[mars]" not in lines[tree_at:]:
        raise ValueError(f"line {len(lines) + 1}: missing [mars] section")
    mars_at = lines.index("[mars]", tree_at)
    tree = cart.load_tree(tail(lines, tree_at, mars_at))
    model = mars.load_model(tail(lines, mars_at + 1))
    h = HybridModel(tree, model)
    if tuple(names.split()) != h.augmented_names:
        raise ValueError(f"line {names_at}: expected 'augmented_names "
                         f"{' '.join(h.augmented_names)}' for the tree")
    if model.n_features != len(h.augmented_names):
        # the features line is the second non-blank line of the MARS part
        no = [i for i in range(mars_at + 1, len(lines)) if lines[i].strip()][1] + 1
        raise ValueError(f"line {no}: MARS takes {model.n_features} features, but the "
                         f"tree gives {len(h.augmented_names)}")
    return h
