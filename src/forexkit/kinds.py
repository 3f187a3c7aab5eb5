"""The five model families, each defined once.

``fit_cells(cfg, cells)`` fits a family's cells, each ``(train, selection,
seed_key)``, to an ``(engine, extras, seconds)`` each: CART and the hybrid
select their tree on ``selection``, and ``extras`` holds the family's own
output for the cell: CART's ``error_curve`` and ANFIS's ``rules`` text.
mars, cart and hybrid fit cell by cell through ``fit``; mlp and anfis have no
``fit`` and train all cells as one lockstep stack.  Every engine reports the
number of scaled features it takes as ``n_features``.  Engine functions are
named, not held, and looked up on their module at call time, so a wrapper on
a module attribute sees every call.
"""

from __future__ import annotations

import time

import numpy as np

from . import anfis, cart, hybrid, mars, scg
from .data import RowError


class CellError(RuntimeError):
    """Cell ``index`` of a ``fit_cells`` call failed; its error is the cause."""

    def __init__(self, index: int, cause: BaseException):
        super().__init__(str(cause))
        self.index = index


class Kind:
    """One model family; a subclass sets ``module`` and defines ``fit``, or
    a ``_Stacked`` one ``fit_stack``."""

    predict_name, dump_name, load_name = "predict", "dump_model", "load_model"

    def fit_cells(self, cfg, cells) -> list:
        """``fit`` over cells, a list of ``(train, selection, seed_key)``:
        one ``(engine, extras, seconds)`` per cell, in order.  A failure
        raises CellError from the cell's error.  By default the cells are
        fitted one at a time, each timed alone."""
        fitted = []
        for index, cell in enumerate(cells):
            started = time.perf_counter()
            try:
                engine, extras = self.fit(cfg, *cell)
            except Exception as exc:
                raise CellError(index, exc) from exc
            fitted.append((engine, extras, time.perf_counter() - started))
        return fitted

    def predict(self, engine, X) -> np.ndarray:
        return np.asarray(getattr(self.module, self.predict_name)(engine, X), dtype=float)

    def dump(self, engine) -> str:
        return getattr(self.module, self.dump_name)(engine)

    def load(self, text: str):
        return getattr(self.module, self.load_name)(text)


class _Mars(Kind):
    module = mars

    def fit(self, cfg, train, selection, seed_key):
        return mars.fit(train, cfg.mars_cfg), {}


class _Cart(Kind):
    module, dump_name, load_name = cart, "dump_tree", "load_tree"

    def fit(self, cfg, train, selection, seed_key):
        seq = cart.prune_sequence(cart.grow(train, cfg.cart_cfg), train)
        seq = cart.evaluate_sequence(seq, selection)  # scored once for both calls
        tree = cart.select_min_cost(seq, selection)
        return tree, {"error_curve": cart.relative_error_curve(seq, selection)}


class _Hybrid(Kind):
    module, dump_name, load_name = hybrid, "dump_hybrid", "load_hybrid"

    def fit(self, cfg, train, selection, seed_key):
        return hybrid.fit_hybrid(train, selection, cfg.cart_cfg, cfg.mars_cfg), {}


class _Stacked(Kind):
    """A family whose ``fit_cells`` trains every cell in one lockstep stack,
    each cell bit for bit as it trains in a stack of one; it has no ``fit``.
    A cell's seconds are its share, the stack's time over the number of
    cells.  Every failure of one cell, a training set that Batches refuses
    or the engine's own, is a data.RowError naming the cell's row, so a
    failed cell raises CellError with that row as its index."""

    def fit_cells(self, cfg, cells) -> list:
        if not cells:
            return []
        started = time.perf_counter()
        try:
            fitted = self.fit_stack(cfg, cells)
        except RowError as exc:
            raise CellError(exc.row, exc) from exc
        share = (time.perf_counter() - started) / len(cells)
        return [(engine, extras, share) for engine, extras in fitted]


class _Mlp(_Stacked):
    module, predict_name, dump_name, load_name = scg, "forward", "dump_network", "load_network"

    def fit_stack(self, cfg, cells) -> list:
        nets, _ = scg.scg_train([scg.init_network((train.n_features, *cfg.mlp_hidden, 1), key)
                                 for train, _, key in cells],
                                [train for train, _, _ in cells], cfg.mlp_epochs)
        return [(net, {}) for net in nets]


class _Anfis(_Stacked):
    module = anfis

    def fit_stack(self, cfg, cells) -> list:
        models, _ = anfis.hybrid_train([train for train, _, _ in cells], cfg.anfis_cfg)
        return [(model, {"rules": anfis.dump_rules(model)}) for model in models]


KINDS = {"mars": _Mars(), "cart": _Cart(), "hybrid": _Hybrid(), "mlp": _Mlp(),
         "anfis": _Anfis()}
