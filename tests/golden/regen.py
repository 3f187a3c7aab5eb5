"""Rewrite the golden outputs that ``tests/test_golden.py`` checks.

Usage: PYTHONPATH=src python tests/golden/regen.py

Runs the paper's bench and every family's GBP fit in a temporary directory,
then writes ``forex5_seed7.sha256`` (one SHA-256 line per file, headed by
the environment that produced them) and ``forex5_seed7_table.txt`` here.
"""

import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import test_golden  # noqa: E402

with tempfile.TemporaryDirectory() as tmp:
    files = test_golden.generate(Path(tmp))
header = ["# forexkit golden outputs: bench on synth forex5 --seed 7 (default config,",
          "# report.csv without train_seconds) and fit --currency GBP per family.",
          "# Regenerate: PYTHONPATH=src python tests/golden/regen.py",
          *(f"# env {key} {value}" for key, value in test_golden.environment().items())]
test_golden.HASHES.write_text("\n".join(header + test_golden.digest_lines(files)) + "\n")
test_golden.TABLE.write_bytes(files["bench/table.txt"])
print(f"wrote {len(files)} hashes to {test_golden.HASHES}")
