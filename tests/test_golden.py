"""Golden outputs: the paper's run writes the recorded bytes.

``forexkit bench`` on ``forexkit synth forex5 --seed 7`` with the default
config, plus ``forexkit fit <model> --currency GBP`` for each family, must
write files whose SHA-256 equal those in ``golden/forex5_seed7.sha256``
(``report.csv`` hashed without its wall-clock ``train_seconds`` column).  A
failure names every file that moved.

The bits depend on numpy and its BLAS, so the hashes are checked only where
numpy's version, the BLAS configuration and the machine match the ones
recorded in the file.  Elsewhere ``table.txt`` must still equal the recorded
four-decimal table.

After a deliberate output change, regenerate both files with
``PYTHONPATH=src python tests/golden/regen.py`` and commit them; the diff
shows which artifacts moved.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import platform
from pathlib import Path

import numpy as np
import pytest

from forexkit import bench
from forexkit.cli import main

GOLDEN = Path(__file__).parent / "golden"
HASHES = GOLDEN / "forex5_seed7.sha256"
TABLE = GOLDEN / "forex5_seed7_table.txt"
FIT_CURRENCY = "GBP"


def environment() -> dict:
    """What the output bits depend on beyond the source: numpy's version,
    its BLAS build configuration and the machine architecture."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        config = blas.get("openblas configuration") or f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # numpy < 1.26 has no dict mode
        config = "unknown"
    return {"numpy": np.__version__, "blas": " ".join(str(config).split()),
            "machine": platform.machine()}


def _cli(*argv) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        status = main([str(a) for a in argv])
    if status != 0:
        raise RuntimeError(f"forexkit {' '.join(map(str, argv))} exited {status}")


def _without_seconds(csv_text: str) -> str:
    return "".join(",".join(line.split(",")[:4]) + "\n" for line in csv_text.splitlines())


def generate(work: Path) -> dict:
    """Run the paper's bench and every family's GBP fit under ``work``;
    returns {name: bytes}, names relative to ``bench/`` and ``fit/``."""
    rates, ini, out = work / "rates.csv", work / "bench.ini", work / "bench"
    _cli("synth", "forex5", rates, "--seed", 7)
    ini.write_text(f"[data]\npath = {rates}\n[output]\ndir = {out}\n")
    _cli("bench", ini)
    (work / "fit").mkdir()
    for model in bench.MODELS:
        _cli("fit", model, ini, "--currency", FIT_CURRENCY,
             "-o", work / "fit" / f"{model}_{FIT_CURRENCY}.model")
    files = {path.relative_to(work).as_posix(): path.read_bytes()
             for top in ("bench", "fit") for path in sorted((work / top).rglob("*"))
             if path.is_file()}
    files["bench/report.csv"] = _without_seconds(files["bench/report.csv"].decode()).encode()
    return files


def digest_lines(files: dict) -> list:
    return [f"{hashlib.sha256(data).hexdigest()}  {name}" for name, data in sorted(files.items())]


def read_golden() -> tuple:
    """(recorded environment, {name: sha256}) from the golden file."""
    env, hashes = {}, {}
    for line in HASHES.read_text().splitlines():
        if line.startswith("# env "):
            key, _, value = line[len("# env "):].partition(" ")
            env[key] = value
        elif line and not line.startswith("#"):
            digest, name = line.split("  ", 1)
            hashes[name] = digest
    return env, hashes


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    return generate(tmp_path_factory.mktemp("golden"))


def test_table_text_is_recorded(outputs):
    assert outputs["bench/table.txt"].decode() == TABLE.read_text()


def test_every_file_hashes_as_recorded(outputs):
    recorded, hashes = read_golden()
    if recorded != environment():
        pytest.skip(f"outputs recorded under {recorded}, running under {environment()}; "
                    "only table.txt is compared")
    now = dict(line.split("  ", 1)[::-1] for line in digest_lines(outputs))
    moved = sorted(name for name in hashes.keys() | now.keys()
                   if hashes.get(name) != now.get(name))
    assert not moved, f"{len(moved)} of {len(hashes)} golden outputs moved: {moved}"
    assert len(hashes) == 48
