"""Frozen outputs of `msinoise cooling --optimize`, compared byte for byte.

Each case under ``tests/data/goldens/`` is a directory holding the run's
``config.json`` and what the run must write from it: ``cooling.json`` as
its bytes, and ``landscape.csv`` as ``landscape.summary.json``, the file's
sha256 with each column's (min, max, sum) and sha256.  A mismatch names the
file, the column (a key path inside cooling.json) and the largest relative
change, or the column whose digest changed where no (min, max, sum) moved.

The case is P1 with a mechanical block (omega_m 2.5e7 rad/s, H 1e-12 kg/s,
n_T 1e4) and ``optimize.constraint "injected"``.  It was frozen under
numpy's default SIMD dispatch on an x86-64 host with AVX-512.  numpy's
AVX-512 loops multiply complex numbers with FMA, so a restricted dispatch
(``NPY_DISABLE_CPU_FEATURES``) can move the last bits until the kernel's
complex arithmetic is made dispatch-stable (ROADMAP item 1c).

``PYTHONPATH=src python tests/test_goldens.py`` rewrites every golden and
prints each column's largest relative change against the one it replaces.
"""
from __future__ import annotations

import hashlib
import json
import math
import tempfile
from pathlib import Path

import pytest

from msinoise.cli import main

GOLDENS = Path(__file__).parent / "data" / "goldens"
CASES = sorted(path.name for path in GOLDENS.iterdir() if path.is_dir())


def _run(case: Path, out: Path) -> dict:
    """The frozen form of every file the case's run writes, by golden file name."""
    assert main(["cooling", "--config", str(case / "config.json"), "--out", str(out),
                 "--optimize"]) == 0
    return {"cooling.json": (out / "cooling.json").read_text(),
            "landscape.summary.json": _summary((out / "landscape.csv").read_text())}


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _summary(text: str) -> str:
    """landscape.csv as its sha256 and each column's (min, max, sum) and sha256."""
    header, *rows = text.splitlines()
    columns = {}
    for name, cells in zip(header.split(","), zip(*(row.split(",") for row in rows))):
        values = list(map(float, cells))
        columns[name] = {"min": min(values), "max": max(values), "sum": math.fsum(values),
                         "sha256": _sha256("\n".join(cells))}
    return json.dumps({"sha256": _sha256(text), "columns": columns}, indent=2) + "\n"


def _rel(old: float, new: float) -> float:
    if old == new:
        return 0.0
    return abs(new - old) / abs(old) if old != 0.0 and math.isfinite(old) else math.inf


def _numbers(node, path: str = "") -> dict:
    """{key path: number} of every number in a JSON value."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return {path: node} if type(node) in (int, float) else {}
    return {key: value for name, child in items
            for key, value in _numbers(child, f"{path}.{name}" if path else str(name)).items()}


def _changes(frozen: dict, fresh: dict) -> list[str]:
    """One line per golden file that differs: the column that moved most, and by how much."""
    lines = []
    for name, text in fresh.items():
        if name not in frozen:
            lines.append(f"{name}: no golden")
            continue
        if text == frozen[name]:
            continue
        old, new = json.loads(frozen[name]), json.loads(text)
        digests = []  # the landscape columns whose text changed
        if name == "landscape.summary.json":
            name, old, new = "landscape.csv", old["columns"], new["columns"]
            digests = [column for column in old.keys() & new.keys()
                       if old[column]["sha256"] != new[column]["sha256"]]
        old, new = _numbers(old), _numbers(new)
        moved = {key: _rel(old[key], new[key]) for key in old.keys() & new.keys()}
        column, change = max(moved.items(), key=lambda item: item[1], default=("", 0.0))
        if old.keys() != new.keys():
            lines.append(f"{name}: columns {sorted(old.keys() ^ new.keys())} added or removed")
        elif change > 0.0:
            lines.append(f"{name}: column {column} moved most, relative change {change:.3e}")
        elif digests:
            lines.append(f"{name}: column {min(digests)} changed, but less than its "
                         f"(min, max, sum) resolve")
        else:
            lines.append(f"{name}: bytes differ, but no column's numbers moved")
    return lines


def _frozen(case: Path) -> dict:
    return {path.name: path.read_text() for path in case.iterdir() if path.name != "config.json"}


@pytest.mark.parametrize("case", CASES)
def test_cooling_output_matches_its_golden(tmp_path, case):
    changes = _changes(_frozen(GOLDENS / case), _run(GOLDENS / case, tmp_path))
    assert not changes, f"{case}: " + "; ".join(changes)


def freeze() -> None:
    """Rewrite every case's golden files, printing each column's largest change."""
    for case in CASES:
        with tempfile.TemporaryDirectory() as out:
            fresh = _run(GOLDENS / case, Path(out))
        print(f"{case}: " + ("; ".join(_changes(_frozen(GOLDENS / case), fresh))
                             or "unchanged"))
        for name, text in fresh.items():
            (GOLDENS / case / name).write_text(text)


if __name__ == "__main__":
    freeze()
