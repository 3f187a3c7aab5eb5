"""Cooperative CART-then-MARS hybrid.

A regression tree is grown, pruned, and selected on the ``selection`` rows
(the bench's test sample, as in the paper); the terminal-node information it
assigns to each row is appended to the feature matrix as either one-hot leaf
indicators or the leaf prediction value; MARS is then fitted on the
augmented data.  The tree runs once and goes to the background — prediction
augments the incoming row with the stored tree and encoding, then delegates
to the MARS model.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import cart, mars
from .data import Dataset, as_rows
from .dumpfmt import Lines, expect, keyed, tail

ENCODINGS = ("one_hot_leaf", "leaf_prediction")


@dataclass(frozen=True)
class HybridModel:
    cart: cart.CartTree
    mars: mars.MarsModel
    encoding: str

    def __post_init__(self):
        if self.encoding not in ENCODINGS:
            raise ValueError(f"encoding must be one of {ENCODINGS}")

    @property
    def n_features(self) -> int:
        return self.cart.n_features

    @property
    def augmented_names(self) -> tuple:
        """The names of the columns MARS was fitted on."""
        return _augmented_names(self.cart.feature_names, self.cart, self.encoding)


def _augment_features(X: np.ndarray, tree: cart.CartTree, encoding: str) -> np.ndarray:
    if encoding == "one_hot_leaf":
        ids = cart.node_id(tree, X)
        extra = np.zeros((X.shape[0], tree.n_leaves))
        extra[np.arange(X.shape[0]), ids] = 1.0
    elif encoding == "leaf_prediction":
        extra = np.asarray(cart.predict(tree, X), dtype=float)[:, None]
    else:
        raise ValueError(f"encoding must be one of {ENCODINGS}")
    return np.concatenate([X, extra], axis=1)


def _augmented_names(names, tree: cart.CartTree, encoding: str) -> tuple:
    if encoding == "one_hot_leaf":
        return tuple(names) + tuple(f"leaf_{k}" for k in range(tree.n_leaves))
    return tuple(names) + ("leaf_prediction",)


def augment(ds: Dataset, tree: cart.CartTree, encoding: str = "one_hot_leaf") -> Dataset:
    """Append the tree's node information as extra feature columns; row
    order, targets, and provenance are preserved bit-exactly."""
    if ds.n_features != tree.n_features:
        raise ValueError(f"dataset has {ds.n_features} features, tree expects "
                         f"{tree.n_features}")
    return Dataset(feature_names=_augmented_names(ds.feature_names, tree, encoding),
                   features=_augment_features(ds.features, tree, encoding),
                   targets=ds.targets,
                   provenance=ds.provenance)


def fit_hybrid(train: Dataset, selection: Dataset,
               cart_cfg: cart.CartConfig = cart.CartConfig(),
               mars_cfg: mars.MarsConfig = mars.MarsConfig(),
               encoding: str = "one_hot_leaf") -> HybridModel:
    """The tree of least cost on ``selection``, then MARS on the augmented rows."""
    if train.n_rows == 0:
        raise ValueError("training set is empty")
    seq = cart.prune_sequence(cart.grow(train, cart_cfg), train)
    tree = cart.select_min_cost(seq, selection)
    augmented = augment(train, tree, encoding)
    model = mars.fit(augmented, mars_cfg)
    return HybridModel(tree, model, encoding)


def predict(h: HybridModel, x):
    """Equal to MARS prediction on the augmented feature vector."""
    X = as_rows(x, h.cart.n_features)
    out = mars.predict(h.mars, _augment_features(X, h.cart, h.encoding))
    return float(out[0]) if np.ndim(x) == 1 else out


# --- composite serialization ----------------------------------------------------


def dump_hybrid(h: HybridModel) -> str:
    return ("hybrid-cart-mars v1\n"
            f"encoding {h.encoding}\n"
            f"augmented_names {' '.join(h.augmented_names)}\n"
            "[tree]\n" + cart.dump_tree(h.cart) +
            "[mars]\n" + mars.dump_model(h.mars))


def load_hybrid(text: str) -> HybridModel:
    """Inverse of dump_hybrid.  Truncated, garbled or non-finite input, and
    an augmented_names line or a MARS features count that does not match the
    tree and encoding, raise ValueError naming its 1-based line."""
    lines = text.splitlines()
    head = Lines(text)
    expect(head.take("the header"), "hybrid-cart-mars v1")
    no, encoding = keyed(head.take("the encoding line"), "encoding")
    if encoding not in ENCODINGS:
        raise ValueError(f"line {no}: encoding must be one of {ENCODINGS}")
    names_at, names = keyed(head.take("the augmented_names line"), "augmented_names")
    section = head.take("the [tree] section")
    expect(section, "[tree]")
    tree_at = section[0]
    if "[mars]" not in lines[tree_at:]:
        raise ValueError(f"line {len(lines) + 1}: missing [mars] section")
    mars_at = lines.index("[mars]", tree_at)
    tree = cart.load_tree(tail(lines, tree_at, mars_at))
    model = mars.load_model(tail(lines, mars_at + 1))
    h = HybridModel(tree, model, encoding)
    if tuple(names.split()) != h.augmented_names:
        raise ValueError(f"line {names_at}: expected 'augmented_names "
                         f"{' '.join(h.augmented_names)}' for the tree and encoding")
    if model.n_features != len(h.augmented_names):
        # the features line is the second non-blank line of the MARS part
        no = [i for i in range(mars_at + 1, len(lines)) if lines[i].strip()][1] + 1
        raise ValueError(f"line {no}: MARS takes {model.n_features} features, but the "
                         f"tree and encoding give {len(h.augmented_names)}")
    return h
