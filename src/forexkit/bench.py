"""One-month-ahead forecasting benchmark over five predictor families.

For every (currency, model) cell: build the supervised one-step-ahead table,
split 70/30 with the shared seed, min-max scale features and target on the
training side only, train, and report train/test RMSE in scaled space plus
wall-clock training time.  Alongside the live results, ``emit_table`` prints
a static reference block labeled "paper-reported" with the RMSE figures from
the original published forex study whose protocol this harness mirrors, for
side-by-side layout comparison (the original dataset itself was never
published, so those numbers are a reference, not a target).

Everything downstream of the config is deterministic: each cell derives its
own RNG stream from (seed, currency, model), so cells can be computed in any
order — only the recorded training times vary between runs.
"""

from __future__ import annotations

import configparser
import time
import zlib
from contextlib import contextmanager
from dataclasses import dataclass, replace
from functools import cached_property
from pathlib import Path

from . import anfis, cart, charts, mars
from .data import (RECIPES, Dataset, FeatureSpec, ScalerParams, apply_scaler,
                   build_supervised, decode_text, fit_scaler, load_csv, rmse, split)
from .kinds import KINDS, CellError

MODELS = tuple(KINDS)

# Test-set RMSE figures reported by the original study (scaled rates; "mlp"
# is its neural network and "anfis" its neuro-fuzzy system).  Printed by
# emit_table as the "paper-reported" block, one row per family it studied.
REFERENCE_RMSE = {
    "mars": {"JPY": 0.023, "USD": 0.039, "GBP": 0.0478, "SGD": 0.028, "NZD": 0.049},
    "cart": {"JPY": 0.037, "USD": 0.037, "GBP": 0.063, "SGD": 0.033, "NZD": 0.041},
    "hybrid": {"JPY": 0.016, "USD": 0.027, "GBP": 0.035, "SGD": 0.026, "NZD": 0.035},
    "mlp": {"JPY": 0.028, "USD": 0.0340, "GBP": 0.023, "SGD": 0.030, "NZD": 0.021},
    "anfis": {"JPY": 0.026, "USD": 0.0340, "GBP": 0.037, "SGD": 0.029, "NZD": 0.020},
}
REFERENCE_CURRENCIES = ("JPY", "USD", "GBP", "SGD", "NZD")


class BenchError(RuntimeError):
    """A sub-operation failed; message names its (currency, model) cell or artifact."""


@dataclass(frozen=True)
class ExperimentConfig:
    data_path: str
    currencies: tuple | None = None  # None: every currency in the file
    train_fraction: float = 0.7
    seed: int = 7
    models: tuple = MODELS
    mars_recipe: str = "mp1"
    cart_recipe: str = "mp1"
    hybrid_recipe: str = "mp1"
    mlp_recipe: str = "mp5"
    anfis_recipe: str = "mp1"
    mars_cfg: mars.MarsConfig = mars.MarsConfig(max_basis_functions=30)
    cart_cfg: cart.CartConfig = cart.CartConfig(min_node_size=5)
    mlp_hidden: tuple = (14, 14)
    mlp_epochs: int = 2000
    anfis_cfg: anfis.AnfisConfig = anfis.AnfisConfig()
    out_dir: str = "bench_out"

    def __post_init__(self):
        if not self.data_path:
            raise ValueError("[data] path = : must name a rates file")
        if not self.out_dir:
            raise ValueError("[output] dir = : must name a directory")
        if not 0.0 < self.train_fraction < 1.0:
            raise ValueError(f"[split] fraction = {self.train_fraction}: must be in (0, 1)")
        if not self.models:
            raise ValueError("[models] enabled = : at least one model must be enabled")
        unknown = [m for m in self.models if m not in MODELS]
        if unknown:
            raise ValueError(f"[models] enabled = {' '.join(self.models)}: "
                             f"unknown models {unknown}; choose from {MODELS}")
        object.__setattr__(self, "models", tuple(self.models))
        if self.currencies is not None:
            object.__setattr__(self, "currencies", tuple(self.currencies))
            if not self.currencies:
                raise ValueError("[data] currencies = : at least one currency code "
                                 "must be given")
        object.__setattr__(self, "mlp_hidden", tuple(self.mlp_hidden))
        # checked here, not in the cells, which would fail only mid-run
        if self.seed < 0:
            raise ValueError(f"[split] seed = {self.seed}: must be >= 0")
        if self.mlp_epochs < 1:
            raise ValueError(f"[mlp] epochs = {self.mlp_epochs}: must be >= 1")
        if not self.mlp_hidden or min(self.mlp_hidden) < 1:
            raise ValueError(f"[mlp] hidden = {' '.join(map(str, self.mlp_hidden))}: "
                             "needs at least one hidden layer, each of >= 1 unit")
        for model in MODELS:
            if self.recipe_for(model) not in RECIPES:
                raise ValueError(f"[{model}] recipe = {self.recipe_for(model)}: "
                                 f"must be one of {' '.join(RECIPES)}")
        for key, names, what in (("[models] enabled", self.models, "model"),
                                 ("[data] currencies", self.currencies or (), "currency code")):
            repeated = [name for i, name in enumerate(names) if name in names[:i]]
            if repeated:
                raise ValueError(f"{key} = {' '.join(names)}: duplicate {what} {repeated[0]!r}")

    def recipe_for(self, model: str) -> str:
        return getattr(self, f"{model}_recipe")

    @property
    def hybrid_encoding(self) -> str:
        # read only by perfbench/run.py:fit_predictor; ROADMAP item 9 deletes it
        return "one_hot_leaf"


@dataclass(frozen=True, eq=False)  # it holds arrays, so compares by identity
class CellResult:
    """One (currency, model) cell: its scores, its fit, and its scaled test
    rows with their forecasts, both in month order (rows provenance-sorted)."""

    currency: str
    model: str
    test_rmse: float
    train_rmse: float
    train_seconds: float
    scaler: ScalerParams
    engine: object
    test: Dataset
    predicted: object  # scaled test forecasts
    dump: str
    extras: dict


@dataclass(frozen=True)
class BenchReport:
    """Every (currency, model) cell of a run, currency-major."""

    currencies: tuple
    models: tuple
    cells: tuple

    @cached_property
    def _index(self) -> dict:
        return {(c.currency, c.model): c for c in self.cells}

    def cell(self, currency: str, model: str) -> CellResult:
        return self._index[(currency, model)]

    @property
    def predicted(self) -> dict:
        """(currency, model) -> scaled test forecasts."""
        return {key: c.predicted for key, c in self._index.items()}


def cell_seed(seed: int, currency: str, model: str) -> list:
    """Independent, order-insensitive RNG stream key for one grid cell."""
    return [seed, zlib.crc32(f"{currency}/{model}".encode())]


def prepare_cell(cfg: ExperimentConfig, series: dict, code: str, model: str):
    """Supervised table, split and training-side scaling of one cell.
    Returns (scaler, scaled train, scaled test)."""
    ds = build_supervised(series, FeatureSpec(code, cfg.recipe_for(model)))
    train, test = split(ds, cfg.train_fraction, cfg.seed)
    scaler = fit_scaler(train)
    return scaler, apply_scaler(train, scaler), apply_scaler(test, scaler)


@contextmanager
def _cell_errors(code: str, model: str):
    """Re-raise a failure as a BenchError naming the (currency, model) cell."""
    try:
        yield
    except Exception as exc:
        raise BenchError(f"currency {code}, model {model}: {exc}") from exc


def fit_model(cfg: ExperimentConfig, series: dict, model: str, codes) -> list:
    """The evaluation protocol for one model's cells: all are prepared, then
    fitted in one ``Kind.fit_cells`` call, then each predicts, is scored and
    dumps.  A failure raises BenchError naming its cell.  One CellResult per
    code, whose ``train_seconds`` is its fit time plus its own predict and
    dump time."""
    kind = KINDS[model]
    prepared = []
    for code in codes:
        with _cell_errors(code, model):
            prepared.append(prepare_cell(cfg, series, code, model))
    # as in the paper, the test rows are the selection rows too
    cells = [(train, test, cell_seed(cfg.seed, code, model))
             for code, (_, train, test) in zip(codes, prepared)]
    try:
        fits = kind.fit_cells(cfg, cells)
    except CellError as exc:
        raise BenchError(f"currency {codes[exc.index]}, model {model}: "
                         f"{exc}") from exc.__cause__
    except Exception as exc:
        raise BenchError(f"model {model}: {exc}") from exc
    results = []
    for code, (scaler, train, test), (engine, extras, seconds) in zip(codes, prepared, fits):
        with _cell_errors(code, model):
            started = time.perf_counter()
            train_pred = kind.predict(engine, train.features)
            test_pred = kind.predict(engine, test.features)
            dump = kind.dump(engine)
            seconds += time.perf_counter() - started
        results.append(CellResult(code, model, test_rmse=rmse(test_pred, test.targets),
                                  train_rmse=rmse(train_pred, train.targets),
                                  train_seconds=seconds, scaler=scaler, engine=engine,
                                  test=test, predicted=test_pred, dump=dump, extras=extras))
    return results


def run_experiment(cfg: ExperimentConfig) -> BenchReport:
    """Every model's cells through ``fit_model``, interleaved currency-major."""
    series = load_csv(cfg.data_path)
    currencies = cfg.currencies if cfg.currencies is not None else tuple(series)
    missing = [c for c in currencies if c not in series]
    if missing:
        raise BenchError(f"currencies {missing} not present in {cfg.data_path}")
    fitted = [fit_model(cfg, series, model, currencies) for model in cfg.models]
    return BenchReport(currencies=tuple(currencies), models=cfg.models,
                       cells=tuple(cell for row in zip(*fitted) for cell in row))


# --- emitters -------------------------------------------------------------------


def _table_block(models, currencies, value) -> list:
    head = f"{'model':<8}" + "".join(f"{c:>10}" for c in currencies)
    lines = [head]
    for m in models:
        cells = "".join(f"{value(m, c):>10.4f}" for c in currencies)
        lines.append(f"{m:<8}" + cells)
    return lines


def emit_table(report: BenchReport) -> str:
    """Model-by-currency test RMSE table plus the static reference block."""
    if not report.cells:
        raise ValueError("empty report")
    lines = ["test RMSE (scaled to training range)", ""]
    lines += _table_block(report.models, report.currencies,
                          lambda m, c: report.cell(c, m).test_rmse)
    lines += ["", 'reference block "paper-reported" (original study, original data):', ""]
    lines += _table_block(tuple(REFERENCE_RMSE), REFERENCE_CURRENCIES,
                          lambda m, c: REFERENCE_RMSE[m][c])
    return "\n".join(lines) + "\n"


def emit_csv(report: BenchReport) -> str:
    """Machine-readable mirror: currency,model,test_rmse,train_rmse,train_seconds."""
    if not report.cells:
        raise ValueError("empty report")
    lines = ["currency,model,test_rmse,train_rmse,train_seconds"]
    for c in report.cells:
        lines.append(f"{c.currency},{c.model},{c.test_rmse:.17g},"
                     f"{c.train_rmse:.17g},{c.train_seconds:.3f}")
    return "\n".join(lines) + "\n"


def emit_plots(report: BenchReport) -> list:
    """(file name, SVG text) pairs: one predicted-vs-actual chart per
    currency, plus the relative-error curve of the first currency's pruning
    sequence when CART ran."""
    plots = []
    for code in report.currencies:
        row = [report.cell(code, model) for model in report.models]
        months = row[0].test.provenance + 2  # forecast month: feature month + 1, 1-based
        series = [("actual", months, row[0].test.targets)]
        series += [(c.model, months, c.predicted) for c in row]
        svg = charts.line_chart(f"{code}: one-month-ahead forecasts (test sample)",
                                "month index", "rate (scaled)", series)
        plots.append((f"pred_{code}.svg", svg))
    pruned = next((c for c in report.cells if "error_curve" in c.extras), None)
    if pruned is not None:
        code, curve = pruned.currency, sorted(pruned.extras["error_curve"])
        svg = charts.line_chart(f"{code}: pruned tree size vs relative test error",
                                "terminal nodes", "relative error",
                                [("cart", [p[0] for p in curve], [p[1] for p in curve])])
        plots.append(("relative_error.svg", svg))
    return plots


def run_bench(cfg: ExperimentConfig) -> tuple:
    """The experiment, then every artifact file, which only this function
    writes.  Returns (report, paths written)."""
    report = run_experiment(cfg)
    out = Path(cfg.out_dir)
    written = []

    def emit(name: str, text: str):
        path = out / name
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text, encoding="utf-8")
        except UnicodeEncodeError as exc:  # the file system's encoding, not the text's
            raise BenchError(f"cannot name artifact {path} in the file system's "
                             f"encoding ({exc.encoding})") from None
        written.append(path)

    emit("table.txt", emit_table(report))
    emit("report.csv", emit_csv(report))
    for name, svg in emit_plots(report):
        emit(name, svg)
    for c in report.cells:
        if c.model == "cart":  # the selected tree, beside its copy under models/
            emit(f"cart_tree_{c.currency}.txt", c.dump)
        if "rules" in c.extras:
            emit(f"{c.model}_rules_{c.currency}.txt", c.extras["rules"])
        emit(f"models/{c.model}_{c.currency}.txt", c.dump)
    return report, written


# --- configuration file ---------------------------------------------------------

def _words(value: str) -> list:
    return value.replace(",", " ").split()


# section -> key -> (ExperimentConfig field, parser); "mars_cfg.gcv_penalty" sets
# one field of the nested config, whose other fields keep their defaults
_INI = {
    "data": {"path": ("data_path", str), "currencies": ("currencies", _words)},
    "split": {"fraction": ("train_fraction", float), "seed": ("seed", int)},
    "models": {"enabled": ("models", _words)},
    "mars": {"recipe": ("mars_recipe", str),
             "max_basis_functions": ("mars_cfg.max_basis_functions", int),
             "gcv_penalty": ("mars_cfg.gcv_penalty", float)},
    "cart": {"recipe": ("cart_recipe", str),
             "min_node_size": ("cart_cfg.min_node_size", int)},
    "mlp": {"recipe": ("mlp_recipe", str),
            "hidden": ("mlp_hidden", lambda v: [int(w) for w in _words(v)]),
            "epochs": ("mlp_epochs", int)},
    "anfis": {"recipe": ("anfis_recipe", str),
              "mfs_per_input": ("anfis_cfg.mfs_per_input", int),
              "epochs": ("anfis_cfg.epochs", int),
              "rate": ("anfis_cfg.rate", float),
              "consequent": ("anfis_cfg.consequent", str)},
    "hybrid": {"recipe": ("hybrid_recipe", str)},
    "output": {"dir": ("out_dir", str)},
}


def load_config(path) -> ExperimentConfig:
    """Parse the INI-style experiment file (section.key = value semantics).

    Only [data] path is required; every other key falls back to the defaults
    baked into ExperimentConfig.  Unknown sections or keys are errors, so
    typos fail loudly instead of silently running defaults, and a bad value
    raises ValueError naming its ``[section] key = value``.  Keys are read
    in file order, and the first faulty one is named.
    """
    # No section name is empty, so [DEFAULT] is read as a section of its own
    # and refused as unknown, not copied into every other section.
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",), default_section="")
    try:
        text = decode_text(Path(path).read_bytes())  # a missing file names its path
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    parser.read_string(text, source=str(path))
    kw: dict = {}
    for section in parser.sections():
        if section not in _INI:
            raise ValueError(f"unknown config section [{section}] in {path}")
        for key, raw in parser[section].items():
            if key not in _INI[section]:
                raise ValueError(f"unknown key {section}.{key} in {path}")
            name, parse = _INI[section][key]
            outer, _, inner = name.partition(".")
            try:
                value = parse(raw)
                if inner:  # a nested config checks each key as it is set
                    value = replace(kw.get(outer, getattr(ExperimentConfig, outer)),
                                    **{inner: value})
            except ValueError as exc:
                raise ValueError(f"[{section}] {key} = {raw}: {exc}") from None
            kw[outer] = value
    if "data_path" not in kw:
        raise ValueError(f"config {path} must set data.path")
    return ExperimentConfig(**kw)
