"""Command-line entry points.

Subcommands:
  bench <config>                 run the full experiment, write all artifacts
  fit <model> <config>           train one (model, currency) cell, save a
                                 self-contained predictor file
  predict <model-file> <csv>     one-step-ahead forecasts, one line per row
  serve <csv>                    answer each predictor-file path read from
                                 stdin with predict's lines and an empty line
  synth <recipe> <out.csv>       generate a synthetic rates CSV (forex5 takes
                                 --seed and --months)

All failures exit nonzero with a single diagnostic line on stderr; serve
writes one such line per failed request and goes on.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import bench, synth
from .data import decode_text, load_csv
from .predictor import Predictor, load_predictor, predict_rates, save_predictor


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="forexkit",
        description="Regression toolkit and forecasting benchmark for monthly rates.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bench", help="run the full benchmark from a config file")
    p.add_argument("config", help="experiment config (INI, section.key = value)")

    p = sub.add_parser("fit", help="train one model and save a predictor file")
    p.add_argument("model", choices=bench.MODELS)
    p.add_argument("config", help="experiment config (INI)")
    p.add_argument("--currency", help="currency code (default: first configured)")
    p.add_argument("-o", "--output", help="predictor file (default: <model>_<code>.model)")

    p = sub.add_parser("predict", help="one-step-ahead forecasts from a predictor file")
    p.add_argument("model_file")
    p.add_argument("csv", help="rates CSV to forecast over")

    p = sub.add_parser("serve", help="forecast for each predictor file named on stdin")
    p.add_argument("csv", help="rates CSV, read again for every request")

    p = sub.add_parser("synth", help="write a synthetic rates CSV")
    p.add_argument("recipe", choices=synth.RECIPES)
    p.add_argument("out_csv")
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--months", type=int, help="forex5's length (default 244)")
    return parser


def _cmd_bench(args) -> int:
    cfg = bench.load_config(args.config)
    report, written = bench.run_bench(cfg)
    sys.stdout.write(bench.emit_table(report))
    print(f"wrote {len(written)} files under {cfg.out_dir}")
    return 0


def _cmd_fit(args) -> int:
    if args.output == "":
        raise ValueError("-o/--output is empty: it must name a predictor file")
    cfg = bench.load_config(args.config)
    series = load_csv(cfg.data_path)
    configured = cfg.currencies if cfg.currencies is not None else tuple(series)
    code = configured[0] if args.currency is None else args.currency
    [cell] = bench.fit_model(cfg, series, args.model, [code])
    fitted = Predictor(args.model, code, cfg.recipe_for(args.model), cell.scaler, cell.engine)
    out = Path(args.output or f"{args.model}_{code}.model")
    out.write_text(save_predictor(fitted), encoding="utf-8")
    print(f"wrote {out}")
    return 0


def _forecast(model_file, csv) -> str:
    if not model_file:
        raise ValueError("no predictor file named")
    if not csv:
        raise ValueError("no rates file named")
    fitted = load_predictor(decode_text(Path(model_file).read_bytes()))
    series = load_csv(csv)
    months, preds = predict_rates(fitted, series)
    first = next(iter(series.values()))
    month0 = first.start_year * 12 + (first.start_month - 1)
    lines = []
    for offset, value in zip(months.tolist(), preds.tolist()):
        year, month = divmod(month0 + offset, 12)
        lines.append("%04d-%02d,%.10g\n" % (year, month + 1, value))
    return "".join(lines)


def _cmd_predict(args) -> int:
    sys.stdout.write(_forecast(args.model_file, args.csv))
    return 0


def _cmd_serve(args) -> int:
    # The CSV is loaded again for every request, so a rewritten file is seen;
    # load_csv skips the parse while its bytes are unchanged.
    status = 0
    for request in sys.stdin:
        model_file = request.rstrip("\r\n")
        try:
            answer = _forecast(model_file, args.csv)
        except Exception as exc:
            print(f"error: {model_file or 'empty request'}: {exc}", file=sys.stderr)
            answer, status = "", 1
        sys.stdout.write(answer + "\n")
        sys.stdout.flush()
    return status


def _cmd_synth(args) -> int:
    series = synth.make_recipe(args.recipe, args.seed, args.months)
    synth.write_rates_csv(args.out_csv, series)
    print(f"wrote {args.out_csv}")
    return 0


_COMMANDS = {"bench": _cmd_bench, "fit": _cmd_fit,
             "predict": _cmd_predict, "serve": _cmd_serve, "synth": _cmd_synth}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except Exception as exc:  # uniform diagnostics, nonzero exit
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
