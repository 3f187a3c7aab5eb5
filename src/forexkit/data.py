"""Monthly rate series, supervised dataset construction, splitting, scaling, metrics.

The pipeline is: ``load_csv`` -> ``build_supervised`` -> ``split`` ->
``fit_scaler``/``apply_scaler`` -> model training -> ``rmse``.  All types are
frozen dataclasses wrapping read-only numpy arrays, so they are safe to share
across workers; every operation is a pure function of its inputs plus an
explicit seed.  The one piece of state is ``load_csv``'s memo of its last
successful parse, which lives until the process ends.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

RECIPES = ("mp1", "mp5")


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class RateSeries:
    """A named, contiguous monthly rate series starting at a given year-month."""

    currency_code: str
    start_year: int
    start_month: int
    values: np.ndarray

    def __post_init__(self):
        vals = _readonly(np.asarray(self.values, dtype=float))
        object.__setattr__(self, "values", vals)
        if vals.ndim != 1 or vals.size == 0:
            raise ValueError("rate series must be a non-empty 1-d sequence")
        if not np.all(np.isfinite(vals)) or np.any(vals <= 0.0):
            raise ValueError(
                f"rates for {self.currency_code!r} must be finite and strictly positive")
        if not 1 <= self.start_month <= 12:
            raise ValueError(f"start_month must be in 1..12, got {self.start_month}")

    def __len__(self) -> int:
        return self.values.size


@dataclass(frozen=True)
class Dataset:
    """Supervised regression table: feature matrix, target column, names.

    ``provenance``, when present, holds one original month index per row
    (0-based index of the month the row's features were drawn from); the
    row's target is the raw series value at ``provenance + 1``.
    """

    feature_names: tuple
    features: np.ndarray
    targets: np.ndarray
    provenance: np.ndarray | None = None

    def __post_init__(self):
        X = _readonly(np.atleast_2d(np.asarray(self.features, dtype=float)))
        y = _readonly(np.asarray(self.targets, dtype=float))
        object.__setattr__(self, "feature_names", tuple(self.feature_names))
        object.__setattr__(self, "features", X)
        object.__setattr__(self, "targets", y)
        if X.shape[1] != len(self.feature_names):
            raise ValueError(
                f"{X.shape[1]} feature columns but {len(self.feature_names)} names")
        if y.ndim != 1 or y.size != X.shape[0]:
            raise ValueError("targets must be 1-d with one entry per row")
        if self.provenance is not None:
            prov = _readonly(np.asarray(self.provenance, dtype=int))
            object.__setattr__(self, "provenance", prov)
            if prov.shape != (X.shape[0],):
                raise ValueError("provenance must have one entry per row")

    @property
    def n_rows(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]

    def take(self, idx: np.ndarray) -> "Dataset":
        """Row subset preserving the order of ``idx``."""
        prov = None if self.provenance is None else self.provenance[idx]
        return Dataset(self.feature_names, self.features[idx], self.targets[idx], prov)


class RowError(Exception):
    """A failure of one set of a lockstep stack, whose index is ``row`` (0 in
    a stack of one).  Every stack engine's own failures derive from it."""

    def __init__(self, message: str, row: int = 0):
        super().__init__(message)
        self.row = row


class TrainingSetError(RowError, ValueError):
    """A training set that no fit can use: empty, misshapen or not finite."""


def require_finite(train: Dataset, row: int = 0) -> None:
    """Raise TrainingSetError naming the first row (0-based) and column of a
    training set that holds NaN or inf; ``row`` is the set's index in a stack."""
    table = np.column_stack([train.features, train.targets])
    bad = np.argwhere(~np.isfinite(table))
    if bad.size:
        at, col = bad[0]
        name = "target" if col == train.n_features else \
            f"feature {train.feature_names[col]!r}"
        raise TrainingSetError(f"training row {at}, {name} is {table[at, col]}: "
                               "a fit needs finite values", row)


class Batches:
    """K training sets of one row count and width as one batch for a
    lockstep stack: features (K, n_rows, n_features) and targets (K,
    n_rows), both read-only.  It is every stack's one entry check: an empty
    list, or the first set shaped unlike set 0, empty or not finite, raises
    TrainingSetError naming the set's index as ``row``."""

    def __init__(self, trains):
        if not trains:
            raise TrainingSetError("no training sets")
        for row, t in enumerate(trains):
            if (t.n_rows, t.n_features) != (trains[0].n_rows, trains[0].n_features):
                raise TrainingSetError("a stack's datasets share their row count and width", row)
            if not t.n_rows:
                raise TrainingSetError("training set is empty", row)
            require_finite(t, row)
        self.features = np.stack([t.features for t in trains])
        self.targets = np.stack([t.targets for t in trains])
        self.features.flags.writeable = self.targets.flags.writeable = False
        self.n_rows = self.features.shape[1]


def as_rows(x, width: int, unit: str = "features") -> np.ndarray:
    """x as an (n, width) float matrix for a model's predict; a 1-D x is one
    row.  Any other shape, or another width, raises ValueError."""
    x = np.asarray(x, dtype=float)
    if x.ndim not in (1, 2):
        raise ValueError(f"expected an array of shape (n, {width}) or ({width},), "
                         f"got shape {x.shape}")
    if x.shape[-1] != width:
        raise ValueError(f"expected {width} {unit}, got {x.shape[-1]}")
    return np.atleast_2d(x)


@dataclass(frozen=True)
class FeatureSpec:
    """Names the currency to forecast and the feature recipe.

    Recipes: ``mp1`` = (month index, previous rate of the target currency);
    ``mp5`` = (month index, previous rates of every currency in the file).
    The month feature is the sequential index 1..L, not the calendar month,
    so that time acts as a trend axis.
    """

    target: str
    recipe: str = "mp1"

    def __post_init__(self):
        if self.recipe not in RECIPES:
            raise ValueError(f"unknown recipe {self.recipe!r}; choose from {RECIPES}")


def decode_text(raw: bytes) -> str:
    """The UTF-8 bytes of a file as text mode reads them, with universal
    newlines and without a leading byte-order mark.  A byte that is not UTF-8
    raises ValueError naming its 1-based line and the byte."""
    # CR and LF bytes occur in UTF-8 only as those characters, so they can be
    # translated before decoding.
    lf = raw.replace(b"\r\n", b"\n").replace(b"\r", b"\n") if b"\r" in raw else raw
    try:
        return lf.decode("utf-8-sig")
    except UnicodeDecodeError as exc:  # exc.object is the input after any BOM
        line = exc.object[:exc.start].count(b"\n") + 1
        raise ValueError(f"line {line}: not UTF-8 "
                         f"(byte 0x{exc.object[exc.start]:02x})") from None


def code_fault(code: str):
    """Why ``code`` is no currency code, which is one word without quotes:
    "empty", "quoted" or "spaced"; None for a good code."""
    return ("empty" if not code else "quoted" if '"' in code else
            "spaced" if code.split() != [code] else None)


def load_csv(path) -> dict:
    """Load a monthly rates CSV into one RateSeries per currency column.

    Schema: header ``date,<code1>,...,<codeN>`` of distinct one-word codes,
    then one row per consecutive month: ``date`` as ``YYYY-MM`` (ASCII digits)
    and per code one finite, positive rate that ``float`` parses.  The file is
    UTF-8, may start with a byte-order mark, and may end lines in LF, CRLF or
    CR.  Cells split at every comma and quotes are not part of the schema:
    ``"1.0"`` is a non-numeric rate.  Rows of only commas and whitespace are
    skipped; errors name the 1-based file line.  Returns a new dict keyed by
    code, in column order.

    Loading the bytes of the last successful parse again returns a new dict
    over that parse's read-only series without parsing: the key is the whole
    content, not the path or mtime.  A file that fails is not remembered and
    raises on every load.  The one slot holds the last good file's bytes and
    series, about its size plus 8 bytes per rate.  ``forexkit serve`` relies
    on it: it loads the file again for every request, to see a rewrite.
    """
    global _last
    with open(path, "rb") as fh:
        raw = fh.read()
    last = _last  # read once: a concurrent load may replace the slot
    if last is not None and last[0] == raw:
        return dict(last[1])
    lines = decode_text(raw).split("\n")
    if lines == [""]:
        raise ValueError(f"empty file: {path}")
    header = [h.strip() for h in lines[0].split(",")] if lines[0] else []
    if not header or header[0] != "date":
        raise ValueError(f"first column must be 'date', got {header[:1]}")
    codes = header[1:]
    if not codes:
        raise ValueError("no rate columns in header")
    for col, code in enumerate(codes, start=2):
        fault = code_fault(code) or ("duplicate" if code in codes[:col - 2] else None)
        if fault:
            raise ValueError(f"line 1: {fault} currency code {code!r} in column {col}")

    # Blank rows at the end (empty, whitespace or comma-only, as spreadsheets
    # write them) are cut here, so only blank rows inside the data cost a
    # failed bulk parse before the filter; README "CSV schema" has timings.
    end = len(lines)
    while end > 1 and not _holds_data(lines[end - 1]):
        end -= 1
    rows = lines[1:end]
    if not rows:
        raise ValueError(f"empty file: {path}")
    parsed = _bulk(rows, len(header))
    if parsed is None:
        # A row that starts with a digit holds data; the full test copies the row.
        kept = [ln for ln in rows if ln[:1].isdigit() or _holds_data(ln)]
        if len(kept) < len(rows):
            parsed = _bulk(kept, len(header))
        if parsed is None:
            _rescan(lines, codes)  # raises for the first row that failed above
    ym, values, fields = parsed

    gaps = np.flatnonzero(np.diff(ym[:, 0] * 12 + ym[:, 1]) != 1)
    if gaps.size:
        i = gaps[0] + 1
        raise ValueError(f"non-consecutive months at row {_rescan(lines, codes)[i]}: "
                         "{:04d}-{:02d} then {:04d}-{:02d}".format(*ym[i - 1], *ym[i]))
    bad = np.flatnonzero(~((values > 0.0) & (values < np.inf)))
    if bad.size:
        row, col = divmod(bad[0], len(codes))
        raise ValueError(f"row {_rescan(lines, codes)[row]}: rate {fields[bad[0]]!r} for "
                         f"{codes[col]} must be finite and strictly positive")
    series = {code: RateSeries(code, int(ym[0, 0]), int(ym[0, 1]), values[j::len(codes)])
              for j, code in enumerate(codes)}
    _last = raw, series
    return dict(series)


# (file bytes, series) of load_csv's last successful parse, or None.
_last = None


# A date cell: ASCII-digit year and month; nine digits keep month indices in int64.
_DATE = r"[0-9]{1,9}-[0-9]{1,9}"
_PLAIN_DATES = re.compile(rf"(?:{_DATE}\n)*{_DATE}")
_DATES = re.compile(rf"(?:[^\S\n]*{_DATE}[^\S\n]*\n)*[^\S\n]*{_DATE}[^\S\n]*")


def _bulk(rows: list, width: int):
    """(year-month pairs, rates, rate cells) of rows of width cells each, or
    None when any row fails a check."""
    # Joined by ",\n", each row after the first starts its first field with a newline:
    # with n * width fields, the date column has n lines only if each row has width.
    n = len(rows)
    fields = ",\n".join(rows).split(",")
    dates = "".join(fields[::width])
    if len(fields) != n * width or dates.count("\n") != n - 1:
        return None
    if not _PLAIN_DATES.fullmatch(dates):
        if not _DATES.fullmatch(dates):
            return None
        # np.fromstring's separator knows only ASCII whitespace, str.split all of it
        dates = " ".join(dates.split())
    ym = np.fromstring(dates.replace("-", " "), np.int64, sep=" ").reshape(n, 2)
    if not np.all((ym[:, 1] >= 1) & (ym[:, 1] <= 12)):
        return None
    del fields[::width]
    try:
        values = np.fromiter(map(float, fields), float, len(fields))
    except ValueError:
        return None
    return ym, values, fields


def _holds_data(line: str) -> bool:
    """False for an empty row or one of only commas and whitespace."""
    return bool(line.replace(",", "").strip())


def _rescan(lines: list, codes: list) -> list:
    """1-based file lines of the data rows; raises for the first bad row."""
    numbers = [no for no, line in enumerate(lines[1:], start=2) if _holds_data(line)]
    for no in numbers:
        row = lines[no - 1].split(",")
        if len(row) != len(codes) + 1:
            raise ValueError(f"row {no}: expected {len(codes) + 1} fields, got {len(row)}")
        text = row[0].strip()
        if not re.fullmatch(_DATE, text):
            raise ValueError(f"row {no}: date {text!r} is not YYYY-MM")
        month = int(text.partition("-")[2])
        if not 1 <= month <= 12:
            raise ValueError(f"row {no}: month {month} out of range in {text!r}")
        for code, cell in zip(codes, row[1:]):
            try:
                float(cell)
            except ValueError:
                raise ValueError(f"row {no}: non-numeric rate {cell!r} for {code}") from None
    return numbers


def build_supervised(series_map: dict, spec: FeatureSpec) -> Dataset:
    """One-step-ahead supervised table: features at month t, target at t+1.

    Row t (t = 1..L-1, 1-based months) carries the month index t plus the
    configured previous-month rates; the target is the spec's currency at
    month t+1, giving L-1 rows from an L-month series.
    """
    if spec.target not in series_map:
        raise ValueError(f"unknown currency {spec.target!r}; have {sorted(series_map)}")
    lengths = {len(s) for s in series_map.values()}
    if len(lengths) != 1:
        raise ValueError(f"series lengths differ: {sorted(lengths)}")
    L = lengths.pop()
    if L < 2:
        raise ValueError("need at least 2 months to build a one-step-ahead dataset")

    target_vals = series_map[spec.target].values
    month_idx = np.arange(1, L, dtype=float)
    if spec.recipe == "mp1":
        names = ("month", f"prev_{spec.target}")
        cols = [month_idx, target_vals[:-1]]
    else:  # mp5
        names = ("month",) + tuple(f"prev_{c}" for c in series_map)
        cols = [month_idx] + [s.values[:-1] for s in series_map.values()]
    X = np.column_stack(cols)
    y = target_vals[1:]
    return Dataset(names, X, y, provenance=np.arange(L - 1))


def split(ds: Dataset, train_fraction: float, seed: int):
    """Reproducible random partition into (train, test).

    A seeded uniform permutation is prefix-split at round(fraction * N);
    each side keeps its rows in original dataset order.  A fraction that
    leaves either side empty raises ValueError.
    """
    if not 0.0 < train_fraction < 1.0:
        raise ValueError(f"train_fraction must be in (0, 1), got {train_fraction}")
    if ds.n_rows == 0:
        raise ValueError("cannot split an empty dataset")
    n_train = int(round(train_fraction * ds.n_rows))
    if not 0 < n_train < ds.n_rows:
        raise ValueError(f"train_fraction {train_fraction} of {ds.n_rows} rows leaves "
                         f"{n_train} training and {ds.n_rows - n_train} test rows; "
                         "each side needs at least one")
    perm = np.random.default_rng(seed).permutation(ds.n_rows)
    train_idx = np.sort(perm[:n_train])
    test_idx = np.sort(perm[n_train:])
    return ds.take(train_idx), ds.take(test_idx)


@dataclass(frozen=True)
class ScalerParams:
    """Per-column min/max fitted on training data; min-max affine to [0, 1].

    Columns with max == min are passed through unscaled.  Test values may
    land outside [0, 1]; no clipping is applied.
    """

    feature_min: np.ndarray
    feature_max: np.ndarray
    target_min: float
    target_max: float

    def __post_init__(self):
        object.__setattr__(self, "feature_min", _readonly(np.asarray(self.feature_min, float)))
        object.__setattr__(self, "feature_max", _readonly(np.asarray(self.feature_max, float)))
        if np.any(self.feature_max < self.feature_min):
            raise ValueError("feature_max must be >= feature_min per column")
        if self.target_max < self.target_min:
            raise ValueError("target_max must be >= target_min")


def fit_scaler(train: Dataset) -> ScalerParams:
    if train.n_rows == 0:
        raise ValueError("cannot fit a scaler on an empty dataset")
    return ScalerParams(
        feature_min=train.features.min(axis=0),
        feature_max=train.features.max(axis=0),
        target_min=float(train.targets.min()),
        target_max=float(train.targets.max()),
    )


def _scale_cols(X: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    span = hi - lo
    live = span > 0
    out = X.astype(float)
    out[:, live] = (X[:, live] - lo[live]) / span[live]
    return out


def scale_features(X: np.ndarray, p: ScalerParams) -> np.ndarray:
    return _scale_cols(np.atleast_2d(np.asarray(X, float)), p.feature_min, p.feature_max)


def scale_target(y: np.ndarray, p: ScalerParams) -> np.ndarray:
    y = np.asarray(y, float)
    if p.target_max <= p.target_min:
        return y.copy()
    return (y - p.target_min) / (p.target_max - p.target_min)


def unscale_target(y: np.ndarray, p: ScalerParams) -> np.ndarray:
    y = np.asarray(y, float)
    if p.target_max <= p.target_min:
        return y.copy()
    return y * (p.target_max - p.target_min) + p.target_min


def apply_scaler(ds: Dataset, p: ScalerParams) -> Dataset:
    return Dataset(ds.feature_names, scale_features(ds.features, p),
                   scale_target(ds.targets, p), ds.provenance)


def rmse(predicted, actual) -> float:
    """Root mean squared error between two equal-length sequences."""
    pred = np.asarray(predicted, dtype=float)
    act = np.asarray(actual, dtype=float)
    if pred.shape != act.shape or pred.ndim != 1:
        raise ValueError(f"length mismatch: {pred.shape} vs {act.shape}")
    if pred.size == 0:
        raise ValueError("rmse of empty sequences is undefined")
    return float(np.sqrt(np.mean((pred - act) ** 2)))
