"""Layered benchmark for forexkit: paper, long and serve workloads.

Run from the repository root:

    python3 perfbench/run.py --workload paper|long|serve [--seed 7]
                             [--seconds N] [--trace 0|1] [--tiny]

The benchmark imports forexkit from ``src/`` and drives it only through its
public functions.  It generates its inputs from ``--seed``, sets up several
times (reporting the median set-up time), then repeats the workload's batch
until ``--seconds`` (default: BENCHMARK.json's ``run_seconds``) have passed,
checking every output.  Bounded times are reported at reference host speed
(see ``speed.py``).  With ``--trace 1`` the public functions of each module
are wrapped in spans (see ``spans.py``) and the per-layer metrics are
reported instead of the end-to-end ones.  Metric names and units come from
BENCHMARK.json.

Human-readable lines come first; the last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
The exit code is 1 when a correctness check failed, and non-zero without a
result when forexkit's sources are missing.  Scratch files, the full result
record and the trace go to ``perfbench/.work/``.  README.md documents the
metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

_SRC = ROOT / "src"
if not (_SRC / "forexkit" / "__init__.py").is_file():
    sys.exit(f"perfbench: forexkit sources not found under {_SRC}")
sys.path.insert(0, str(_SRC))

import numpy as np  # noqa: E402

import forexkit  # noqa: E402
from forexkit import anfis, bench, cart, data, hybrid, mars, predictor, scg, synth  # noqa: E402

from spans import Tracer, layer_metrics  # noqa: E402
from speed import SAMPLE_EVERY_S, Reference  # noqa: E402

if Path(forexkit.__file__).resolve().parent != _SRC / "forexkit":
    sys.exit(f"perfbench: imported forexkit from {forexkit.__file__}, not {_SRC}")

# Why each workload (sizes from the paper and the ROADMAP's long series):
#   paper  forex5, 244 months, 5 currencies x 5 models, default config: the
#          run the paper and users make; SCG/mlp dominates it.
#   long   forex5 at 976 months (682 training rows), mars cart hybrid only:
#          the O(n^2) MARS forward pass and CART pruning/selection at scale,
#          with SCG bypassed.  2440 months takes ~50 s a run, too long.
#   serve  the read side: 25 saved predictors, each request reloads one and
#          forecasts a 2440-month rates file (closed loop, one client).
MONTHS = {"paper": 244, "long": 976, "serve": 244}
SERVED_MONTHS = 2440
LONG_MODELS = "mars cart hybrid"
# The smoke test's tiny sizes; they check the schema, never timings.
TINY_MONTHS = {"paper": 60, "long": 90, "serve": 60}
TINY_SERVED_MONTHS = 120
TINY_CONFIG = "[mlp]\nepochs = 20\n[anfis]\nepochs = 2\n"

SERVE_SETUPS = 3
CYCLES_PER_BATCH = 10  # a serve batch is 250 requests
MIN_BATCHES = 2  # the determinism check compares two batches
EXTRA_SETUPS = 16  # paper and long also set up this many times after the last batch

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


# --- environment -----------------------------------------------------------------


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # numpy < 1.26 has no dict mode
        blas_name = "unknown"
    commit = "unknown"
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = done.stdout.strip() or "unknown"
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": blas_name, "nproc": os.cpu_count(),
            "blas_threads": {k: os.environ[k] for k in BLAS_THREAD_VARS if k in os.environ},
            "commit": commit}


# --- inputs and set-up -----------------------------------------------------------


def write_inputs(workload: str, seed: int, tiny: bool) -> Path:
    """Rates CSV plus the INI config a user would write; returns the INI."""
    months = (TINY_MONTHS if tiny else MONTHS)[workload]
    csv_path, ini = WORK / f"{workload}_rates.csv", WORK / f"{workload}.ini"
    synth.write_rates_csv(csv_path, synth.forex5_series(seed, months=months))
    text = f"[data]\npath = {csv_path}\n[output]\ndir = {WORK / (workload + '_out')}\n"
    if workload == "long":
        text += f"[models]\nenabled = {LONG_MODELS}\n"
    ini.write_text(text + (TINY_CONFIG if tiny else ""))
    return ini


def fit_predictor(cfg, series: dict, code: str, model: str):
    """One paper cell fitted as ``forexkit fit`` does; returns the in-memory
    predictor and its scaled test RMSE."""
    recipe = cfg.recipe_for(model)
    ds = data.build_supervised(series, data.FeatureSpec(code, recipe))
    train, test = data.split(ds, cfg.train_fraction, cfg.seed)
    scaler = data.fit_scaler(train)
    strain, stest = data.apply_scaler(train, scaler), data.apply_scaler(test, scaler)
    key = bench.cell_seed(cfg.seed, code, model)
    if model == "mars":
        engine = mars.fit(strain, cfg.mars_cfg)
    elif model == "cart":
        seq = cart.prune_sequence(cart.grow(strain, cfg.cart_cfg), strain)
        engine = cart.select_min_cost(seq, stest)
    elif model == "hybrid":
        engine = hybrid.fit_hybrid(strain, stest, cfg.cart_cfg, cfg.mars_cfg,
                                   cfg.hybrid_encoding)
    elif model == "mlp":
        net = scg.init_network((strain.n_features, *cfg.mlp_hidden, 1), key)
        engine, _ = scg.scg_train(net, strain, cfg.mlp_epochs, seed=key)
    else:
        engine, _ = anfis.hybrid_train(strain, cfg.anfis_cfg)
    fitted = predictor.Predictor(model, code, recipe, scaler, engine)
    return fitted, data.rmse(predictor.predict_scaled(fitted, stest.features), stest.targets)


def setup_serve(seed: int, tiny: bool, tracer):
    """Inputs, then the 25 paper cells fitted and saved as predictor files.
    Returns (served CSV, [(file, in-memory predictor)], test RMSE mean)."""
    cfg = bench.load_config(write_inputs("serve", seed, tiny))
    served = WORK / "served_rates.csv"
    months = TINY_SERVED_MONTHS if tiny else SERVED_MONTHS
    synth.write_rates_csv(served, synth.forex5_series(seed, months=months))
    out = WORK / "predictors"
    out.mkdir(exist_ok=True)
    series = data.load_csv(cfg.data_path)
    fitted, rmses = [], []
    for code in series:
        for model in cfg.models:
            if tracer:
                tracer.group = f"{code}/{model}"
            p, test_rmse = fit_predictor(cfg, series, code, model)
            path = out / f"{model}_{code}.model"
            path.write_text(predictor.save_predictor(p))
            fitted.append((path, p))
            rmses.append(test_rmse)
    return served, fitted, statistics.fmean(rmses)


def digest(paths) -> str:
    """sha256 over (name, bytes) of the files; report.csv loses its
    wall-clock train_seconds column."""
    h = hashlib.sha256()
    for path in sorted(paths):
        body = path.read_bytes()
        if path.name == "report.csv":
            body = b"\n".join(line.rsplit(b",", 1)[0] for line in body.splitlines())
        h.update(str(path.relative_to(WORK)).encode() + b"\0" + body + b"\0")
    return h.hexdigest()


# --- measured phases -------------------------------------------------------------


def _cell_finite(report, cell) -> bool:
    preds = report.predicted[(cell.currency, cell.model)]
    return bool(np.all(np.isfinite(preds)) and np.isfinite(cell.test_rmse)
                and np.isfinite(cell.train_rmse))


def another_batch(done: int, started: float, seconds: float, minimum: int) -> bool:
    """Start a batch while fewer than ``minimum`` ran, or while one more is
    expected to end within ``seconds`` of ``started``."""
    if done < minimum:
        return True
    elapsed = time.perf_counter() - started
    return elapsed * (done + 1) / done <= seconds


def new_measures() -> dict:
    """Scaled seconds per set-up and batch, with their wall seconds kept
    under ``wall``."""
    return {"setup_s": [], "batch_s": [], "wall": {"setup_s": [], "batch_s": []},
            "op_ms": [], "digests": [], "attempted": 0, "failed": 0}


def record(m: dict, key: str, wall_s: float, ref: Reference) -> float:
    """Keep a phase's wall and reference-speed seconds; returns the ratio of
    the two."""
    scaled = ref.scale(wall_s)
    m[key].append(scaled)
    m["wall"][key].append(wall_s)
    return scaled / wall_s


def measure_bench(workload: str, seed: int, tiny: bool, seconds: float,
                  ref: Reference) -> dict:
    """Repeat ``bench.run_bench``; an operation is a cell.  A batch whose
    deterministic artifacts differ from the first batch's fails every cell.

    Set-up runs before every batch and ``EXTRA_SETUPS`` times after the last,
    so its median samples the whole run rather than one moment of it."""
    m = new_measures()

    def set_up() -> Path:
        t0 = time.perf_counter()
        ini = write_inputs(workload, seed, tiny)
        record(m, "setup_s", time.perf_counter() - t0, ref)
        return ini

    cfg = bench.load_config(set_up())
    out = Path(cfg.out_dir)
    expected_cells = len(synth.FOREX5_CODES) * len(cfg.models)
    started = time.perf_counter()
    while another_batch(len(m["batch_s"]), started, seconds, MIN_BATCHES):
        if m["batch_s"]:
            set_up()
        shutil.rmtree(out, ignore_errors=True)
        t0 = time.perf_counter()
        try:
            with ref.sampling():
                report, written = bench.run_bench(cfg)
        except Exception:
            traceback.print_exc()
            m["attempted"] += expected_cells
            m["failed"] += expected_cells
            break
        factor = record(m, "batch_s", time.perf_counter() - t0, ref)
        m["digests"].append(digest(written))
        bad = sum(not _cell_finite(report, c) for c in report.cells)
        if m["digests"][-1] != m["digests"][0] or len(report.cells) != expected_cells:
            bad = len(report.cells)
        m["attempted"] += len(report.cells)
        m["failed"] += bad
        m["op_ms"] += [c.train_seconds * 1e3 * factor for c in report.cells]
        m["test_rmse_mean"] = statistics.fmean(c.test_rmse for c in report.cells)
    for _ in range(EXTRA_SETUPS):
        set_up()
    return m


def measure_serve(seed: int, tiny: bool, seconds: float, tracer, ref: Reference) -> dict:
    """Closed loop, one client, cycling through the saved predictors; a batch
    is ``CYCLES_PER_BATCH`` requests per predictor.  Each request must
    reproduce the in-memory predictor's forecasts bit for bit, one per
    supervised row.  Each cycle through the predictors is scaled to
    reference speed by the reference loops around it."""
    m = new_measures()
    for _ in range(SERVE_SETUPS):
        t0 = time.perf_counter()
        with ref.sampling():
            served, fitted, m["test_rmse_mean"] = setup_serve(seed, tiny, tracer)
        record(m, "setup_s", time.perf_counter() - t0, ref)
        m["digests"].append(digest(p for p, _ in fitted))
    series = data.load_csv(served)
    rows = len(next(iter(series.values()))) - 1
    reference = [predictor.predict_rates(p, series) for _, p in fitted]
    if tracer:
        tracer.phase = "run"

    ref.mark()
    started = time.perf_counter()
    while another_batch(len(m["batch_s"]), started, seconds, 1):
        wall = scaled = 0.0
        for _ in range(CYCLES_PER_BATCH):
            took = []
            for (path, _), (ref_months, ref_preds) in zip(fitted, reference):
                if tracer:
                    tracer.group = f"request{m['attempted']}"
                m["attempted"] += 1
                t0 = time.perf_counter()
                try:
                    loaded = predictor.load_predictor(path.read_text())
                    months, preds = predictor.predict_rates(loaded, data.load_csv(served))
                except Exception:
                    traceback.print_exc()
                    m["failed"] += 1
                    continue
                took.append(time.perf_counter() - t0)
                if not (len(preds) == rows and np.array_equal(months, ref_months)
                        and preds.tobytes() == ref_preds.tobytes()):
                    m["failed"] += 1
            cycle = sum(took)
            cycle_scaled = ref.scale(cycle)
            wall += cycle
            scaled += cycle_scaled
            m["op_ms"] += [t * 1e3 * cycle_scaled / cycle for t in took]
        m["batch_s"].append(scaled)
        m["wall"]["batch_s"].append(wall)
    if len(set(m["digests"])) > 1:  # served predictors must not depend on the set-up
        m["failed"] = m["attempted"]
    return m


def p90(values) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def _median(values) -> float:
    return statistics.median(values) if values else float("nan")


def run(workload: str, seed: int, seconds: float, traced: bool, tiny: bool) -> int:
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    # Reference samples inside a phase would land in the traced spans.
    ref = Reference(sample_every_s=0 if traced else SAMPLE_EVERY_S)
    tracer = Tracer() if traced else None
    if tracer:
        tracer.install()
        if workload != "serve":
            tracer.phase = "run"  # paper and long set-up calls no traced function
    try:
        if workload == "serve":
            m = measure_serve(seed, tiny, seconds, tracer, ref)
        else:
            m = measure_bench(workload, seed, tiny, seconds, ref)
    finally:
        if tracer:
            tracer.uninstall()

    checks = []
    if tracer:
        missing = tracer.missing(workload)
        if missing:
            checks.append(f"traced spans with zero calls: {', '.join(missing)}")
    if m["failed"]:
        checks.append(f"{m['failed']} of {m['attempted']} operations failed")
    correct = not checks

    ops = len(m["op_ms"])
    # Printed and recorded, not bounded: per-operation percentiles (see
    # README.md), and the wall times the bounded times were scaled from.
    unbounded = {"op_p50_ms": _median(m["op_ms"]),
                 "op_p90_ms": p90(m["op_ms"]) if ops > 1 else float("nan"),
                 "wall_run_s": _median(m["wall"]["batch_s"]),
                 "wall_setup_s": _median(m["wall"]["setup_s"])}
    run_s = sum(m["batch_s"])
    test_rmse_mean = m.get("test_rmse_mean", float("nan"))
    if tracer:
        values = layer_metrics(tracer, max(len(m["batch_s"]), 1), len(m["setup_s"]))
        values["test_rmse_mean"] = test_rmse_mean
        values["traced.run_s"] = _median(m["batch_s"])
        values["traced.op_p50_ms"] = unbounded["op_p50_ms"]
        tracer.dump(WORK / f"trace_{workload}.jsonl")
    else:
        values = {
            "run_s": _median(m["batch_s"]),
            "ops_per_s": ops / run_s if run_s else float("nan"),
            "setup_s": _median(m["setup_s"]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    metrics = {d["name"]: {"value": values[d["name"]], "unit": d["unit"]}
               for d in SPEC["per_layer" if tracer else "end_to_end"]}

    op = "forecast request" if workload == "serve" else "cell"
    env = environment()
    print(f"workload {workload} seed {seed} seconds {seconds} trace {int(traced)}"
          f"{' tiny' if tiny else ''}")
    print("env " + json.dumps(env, sort_keys=True))
    print(f"batches {len(m['batch_s'])}, set-ups {len(m['setup_s'])}, "
          f"operation = {op}, samples {ops}")
    for name, entry in metrics.items():
        print(f"  {name:<32} {entry['value']:.6g} {entry['unit']}")
    if not tracer:
        for name, value in unbounded.items():
            unit = "ms" if name.endswith("_ms") else "s"
            base = f"n={ops}, " if unit == "ms" else "wall, "
            print(f"  {name:<32} {value:.6g} {unit} ({base}not bounded)")
        print(f"test_rmse_mean {test_rmse_mean:.6g} rmse (deterministic for a seed)")
    print(f"error_rate {m['failed']}/{m['attempted']} {op}s")
    print("artifact digests " + " ".join(sorted(set(m["digests"]))))
    for problem in checks:
        print(f"CHECK FAILED: {problem}")
    result = {"correct": correct, "attempted": m["attempted"], "failed": m["failed"],
              "metrics": metrics}
    rec = {"workload": workload, "seed": seed, "seconds": seconds, "trace": traced,
           "tiny": tiny, "env": env, "batches": len(m["batch_s"]),
           "setups": len(m["setup_s"]), "samples": ops, "digests": m["digests"],
           "unbounded": unbounded, "test_rmse_mean": test_rmse_mean, "checks": checks,
           "result": result}
    (WORK / f"result_{workload}.json").write_text(json.dumps(rec, indent=1) + "\n")
    print(json.dumps(result))
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(MONTHS))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=float(SPEC["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny inputs for the smoke test (schema only)")
    args = parser.parse_args(argv)
    return run(args.workload, args.seed, args.seconds, bool(args.trace), args.tiny)


if __name__ == "__main__":
    sys.exit(main())
