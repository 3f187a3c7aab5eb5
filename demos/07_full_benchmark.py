"""The complete benchmark harness on the synthetic five-currency dataset.

One run covers every (currency, model) cell: the shared pipeline scales a
seeded 70/30 split per currency, each of the five model families trains on it,
and the harness writes the RMSE table, the per-cell CSV, predicted-vs-actual
charts, the tree pruning curve, and plain-text dumps of every fitted model.
Everything except the wall-clock column of report.csv is byte-reproducible
for a fixed seed.

Equivalent CLI, with bench.ini holding "[data] path = rates.csv" and
"[mlp] epochs = 300" (a bare config trains the mlp for 2000 epochs):
    forexkit synth forex5 rates.csv --seed 7 && forexkit bench bench.ini
"""

import tempfile
from pathlib import Path

from forexkit import bench, synth

work = Path(tempfile.mkdtemp())
rates = work / "rates.csv"
synth.write_rates_csv(rates, synth.forex5_series(seed=7))

cfg = bench.ExperimentConfig(data_path=str(rates), seed=7,
                             mlp_epochs=300, out_dir=str(work / "bench_out"))
report, written = bench.run_bench(cfg)

print(bench.emit_table(report))
print(f"artifacts under {cfg.out_dir}:")
for path in written:
    print(f"  {path.relative_to(cfg.out_dir)}")
