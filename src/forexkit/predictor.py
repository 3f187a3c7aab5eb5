"""Self-contained predictor files: engine dump + feature pipeline metadata.

A fitted engine alone cannot forecast from a rates CSV — it needs to know
which currency it models, which feature recipe built its inputs, and the
min-max scaler fitted on its training sample.  ``save_predictor`` wraps all
of that with the engine's own plain-text dump under a ``forexkit-predictor
v1`` header; ``load_predictor`` restores it and ``predict_rates`` runs the
whole pipeline on a fresh rates file, returning forecasts in rate units.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import (RECIPES, FeatureSpec, ScalerParams, build_supervised, code_fault,
                   scale_features, unscale_target)
from .dumpfmt import Lines, expect, floats, fmt, keyed, number, tail
from .kinds import KINDS


@dataclass(frozen=True)
class Predictor:
    model_kind: str
    currency: str
    recipe: str
    scaler: ScalerParams
    engine: object

    def __post_init__(self):
        if self.model_kind not in KINDS:
            raise ValueError(f"unknown model kind {self.model_kind!r}")
        fault = _currency_fault(self.currency)
        if fault:  # load_predictor would refuse the file save_predictor writes
            raise ValueError(fault)


def _currency_fault(code: str):
    """Why ``code`` cannot be a predictor's currency (load_csv's rule), or None."""
    fault = code_fault(code)
    if fault:
        fault = "quoted" if fault == "quoted" else "empty, padded or spaced"
        return f"{fault} currency {code!r}"
    return None


def predict_scaled(p: Predictor, X: np.ndarray) -> np.ndarray:
    """Engine predictions on already-scaled feature rows."""
    return KINDS[p.model_kind].predict(p.engine, X)


def predict_rates(p: Predictor, series_map: dict):
    """One-step-ahead forecasts for every supervised row of a rates file.

    Returns (forecast month indices, predictions in original rate units);
    month indices are 0-based positions in the input series of the month
    being forecast.  A rates file whose features are not as wide as the
    scaler raises ValueError.  An mp5 predictor takes the file's currencies
    in the file's column order, which the predictor file does not record, so
    one applied to the same currencies in another order forecasts wrongly
    without an error (a strict xfail test in tests/test_serialization.py
    pins this).
    """
    ds = build_supervised(series_map, FeatureSpec(p.currency, p.recipe))
    if ds.n_features != p.scaler.feature_min.size:
        raise ValueError(f"the rates file gives {ds.n_features} {p.recipe} features, "
                         f"but the predictor's scaler takes {p.scaler.feature_min.size}")
    scaled = scale_features(ds.features, p.scaler)
    preds = unscale_target(predict_scaled(p, scaled), p.scaler)
    return ds.provenance + 1, preds


def save_predictor(p: Predictor) -> str:
    scaler = p.scaler
    lines = [
        "forexkit-predictor v1",
        f"model {p.model_kind}",
        f"currency {p.currency}",
        f"recipe {p.recipe}",
        "feature_min " + " ".join(fmt(v) for v in scaler.feature_min),
        "feature_max " + " ".join(fmt(v) for v in scaler.feature_max),
        f"target_min {fmt(scaler.target_min)}",
        f"target_max {fmt(scaler.target_max)}",
        "scale_target 1",
        "[model]",
    ]
    return "\n".join(lines) + "\n" + KINDS[p.model_kind].dump(p.engine)


def load_predictor(text: str) -> Predictor:
    """Inverse of save_predictor, reading the header in the order it writes
    it.  A header line out of that order, truncated, garbled or non-finite
    input, an empty, padded, spaced or quoted currency (load_csv's rule),
    an unknown kind or recipe, a scaler maximum below its minimum, and a
    scaler whose width is not the engine's raise ValueError naming a line."""
    lines = text.splitlines()
    if not lines or lines[0] != "forexkit-predictor v1":
        raise ValueError("line 1: not a forexkit-predictor v1 file")
    if "[model]" not in lines:
        raise ValueError(f"line {len(lines) + 1}: missing [model] section")
    body_at = lines.index("[model]")
    header = Lines(tail(lines, 0, body_at))
    header.take("the header")
    no, kind = keyed(header.take("the model line"), "model")
    if kind not in KINDS:
        raise ValueError(f"line {no}: unknown model kind {kind!r}")
    no, currency = keyed(header.take("the currency line"), "currency")
    fault = _currency_fault(currency)
    if fault:
        raise ValueError(f"line {no}: {fault}")
    no, recipe = keyed(header.take("the recipe line"), "recipe")
    if recipe not in RECIPES:
        raise ValueError(f"line {no}: unknown recipe {recipe!r}; choose from {RECIPES}")
    width_at, values = keyed(header.take("the feature_min line"), "feature_min")
    feature_min = floats((width_at, values))
    no, values = keyed(header.take("the feature_max line"), "feature_max")
    feature_max = floats((no, values), feature_min.size)
    if np.any(feature_max < feature_min):
        raise ValueError(f"line {no}: feature_max is below feature_min")
    target_min = number(*keyed(header.take("the target_min line"), "target_min"))
    no, token = keyed(header.take("the target_max line"), "target_max")
    target_max = number(no, token)
    if target_max < target_min:
        raise ValueError(f"line {no}: target_max is below target_min")
    expect(header.take("the scale_target line"), "scale_target 1")
    header.finish("the scale_target line")
    scaler = ScalerParams(feature_min, feature_max, target_min, target_max)
    engine = KINDS[kind].load(tail(lines, body_at + 1))
    if engine.n_features != feature_min.size:
        raise ValueError(f"line {width_at}: {feature_min.size} scaled "
                         f"features, but the {kind} engine takes {engine.n_features}")
    return Predictor(kind, currency, recipe, scaler, engine)
