"""Synthetic desk-scale datasets and the rates-CSV writer.

Two recipes ship with the toolkit:

``step7``   one 244-month series that sits on 7 successive plateaus of
            strictly increasing level — the canonical tree-recovery fixture
            (a regression tree should come back with exactly 7 leaves).

``forex5``  five currency series (JPY, USD, GBP, SGD, NZD against a common
            base), 244 months unless asked otherwise, generated as seasonal
            log-AR(1) walks with gentle drift, rounded to 4 decimals like
            published monthly averages.  The drift scales with t/months, so
            a longer draw is not a shorter one extended.

Values are written with ``%.4f`` so files parse back to the exact doubles
they were generated from (the generators round to 4 decimals first).  The
AR(1) loop and the writer work on Python floats from ``tolist()``: a numpy
scalar costs several times a float in each step of a per-value loop, and the
floats are the same doubles, so every byte of a file stays as it was.
"""

from __future__ import annotations

import zlib

import numpy as np

from .data import RateSeries

RECIPES = ("step7", "forex5")

STEP7_MONTHS = 244
STEP7_LEVELS = (0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5)

FOREX5_CODES = ("JPY", "USD", "GBP", "SGD", "NZD")
_FOREX5_BASE = {"JPY": 80.0, "USD": 0.55, "GBP": 0.35, "SGD": 1.05, "NZD": 1.15}

_START_YEAR, _START_MONTH = 1981, 1


def step7_series() -> RateSeries:
    """244 months over 7 increasing plateaus (six of 35 months, one of 34)."""
    lengths = [35] * 6 + [34]
    values = np.concatenate([np.full(n, level)
                             for n, level in zip(lengths, STEP7_LEVELS)])
    return RateSeries("STEP", _START_YEAR, _START_MONTH, values)


def forex5_series(seed: int = 7, months: int = STEP7_MONTHS) -> dict:
    """Five synthetic monthly currency series keyed by code.

    Each series draws from its own RNG stream derived from (seed, code), so
    adding or removing currencies never perturbs the others.
    """
    if seed < 0:  # numpy's own message names neither the seed nor its value
        raise ValueError(f"seed must be >= 0, got {seed}")
    if months < 1:
        raise ValueError(f"months must be >= 1, got {months}")
    t = np.arange(months)
    out = {}
    for code in FOREX5_CODES:
        rng = np.random.default_rng([seed, zlib.crc32(code.encode())])
        drift = rng.uniform(-0.1, 0.1) * t / months
        season = rng.uniform(0.01, 0.04) * np.sin(
            2.0 * np.pi * t / 12.0 + rng.uniform(0.0, 2.0 * np.pi))
        rho, sigma = 0.95, 0.015
        shocks = rng.normal(0.0, sigma, size=months)
        ar = []
        level = 0.0
        for shock in shocks.tolist():
            level = rho * level + shock
            ar.append(level)
        log_rate = np.log(_FOREX5_BASE[code]) + drift + season + np.array(ar)
        out[code] = RateSeries(code, _START_YEAR, _START_MONTH,
                               np.round(np.exp(log_rate), 4))
    return out


def make_recipe(name: str, seed: int = 7, months: int | None = None) -> dict:
    """Recipe name -> dict of RateSeries, as written by ``write_rates_csv``.
    ``months`` (default 244) sets forex5's length; step7's is fixed."""
    if name == "step7":
        if months is not None:
            raise ValueError(f"step7 has a fixed {STEP7_MONTHS} months; "
                             "only forex5 takes a length")
        s = step7_series()
        return {s.currency_code: s}
    if name == "forex5":
        return forex5_series(seed, STEP7_MONTHS if months is None else months)
    raise ValueError(f"unknown recipe {name!r}; choose from {RECIPES}")


def write_rates_csv(path, series_map: dict) -> None:
    """Write aligned monthly series to the standard rates-CSV schema."""
    series = list(series_map.values())
    if not series:
        raise ValueError("no series to write")
    first = series[0]
    for s in series[1:]:
        if (len(s), s.start_year, s.start_month) != (len(first), first.start_year,
                                                     first.start_month):
            raise ValueError("all series must share start month and length")
    lines = ["date," + ",".join(s.currency_code for s in series)]
    row = "%04d-%02d" + ",%.4f" * len(series)
    month0 = first.start_year * 12 + (first.start_month - 1)
    for i, values in enumerate(zip(*(s.values.tolist() for s in series))):
        year, month = divmod(month0 + i, 12)
        lines.append(row % (year, month + 1, *values))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(lines) + "\n")
