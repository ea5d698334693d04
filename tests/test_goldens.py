"""Frozen outputs of the packaged commands, compared byte for byte.

Each case under ``tests/data/goldens/`` is a directory holding the run's
``config.json`` and every file the run must write from it: a ``.json``
sidecar as its bytes, and a ``.csv`` as ``<stem>.summary.json``, the file's
sha256 with each column's (min, max, sum) and sha256.  The sidecar's name
is the command (``compare.json`` runs ``compare``, ``cooling.json`` runs
``cooling``), and a frozen ``landscape.summary.json`` adds ``--optimize``;
a new case is a ``config.json`` beside an empty sidecar, filled in by the
rewrite below.  A mismatch names the file, the column (a key path inside a
sidecar) and the largest relative change, the column whose digest
changed where no (min, max, sum) moved, or a golden file the run no longer
writes.

``p1_mechanical_injected`` is P1 with a mechanical block (omega_m 2.5e7
rad/s, H 1e-12 kg/s, n_T 1e4) and ``optimize.constraint "injected"``, run
through ``cooling --optimize``; ``p1_compare`` is the packaged P1 through
``compare``, whose ``lumped`` block holds the coupling constants.
``p1_south_amplitude`` is P1 with the south port also pumped, by
``amplitude [3e7, 1e7]``, and ``p1_wide_south_pump`` is P1 with ``south
{power_w 1e-3, phase_rad 0.7}`` on a 3 001-point linear grid from -2e9 to
2e9 rad/s, so its spectrum covers negative Omega and its sidecar records
the skipped Omega = 0.  Both run through ``spectrum``, and the ``field``
block of their sidecars holds a two-port carrier (e_minus nonzero).  All
four were frozen under numpy's default SIMD dispatch on an x86-64 host with
AVX-512.  numpy's AVX-512 loops multiply complex numbers with FMA, so a
restricted dispatch (``NPY_DISABLE_CPU_FEATURES``) can move the last bits
until the kernel's complex arithmetic is made dispatch-stable (ROADMAP
item 1c).

``verify.json`` freezes ``verify --json`` at the default seed, each check's
result without its wall time ``runtime_s``; a mismatch names the check and
the field.  ``oracle_equivalence`` rests on a LAPACK solve, so this golden
was frozen under numpy's default SIMD dispatch and the default OpenBLAS
kernel (SkylakeX on that AVX-512 host); another ``OPENBLAS_CORETYPE`` may
move the last bits of its ``measured`` and ``detail``.

``PYTHONPATH=src python tests/test_goldens.py`` rewrites every golden and
prints each column's largest relative change against the one it replaces,
and each changed field of ``verify.json``, ``measured`` among them.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import tempfile
from pathlib import Path

import pytest

from msinoise.cli import main

GOLDENS = Path(__file__).parent / "data" / "goldens"
CASES = sorted(path.name for path in GOLDENS.iterdir() if path.is_dir())
VERIFY = GOLDENS / "verify.json"


def _argv(case: Path) -> list[str]:
    """The command that writes the case's golden files, read off their names."""
    names = {path.name for path in case.iterdir()}
    [command] = {"spectrum", "compare", "cooling"} & {name.removesuffix(".json") for name in names}
    return [command, *(["--optimize"] if "landscape.summary.json" in names else [])]


def _run(case: Path, out: Path) -> dict:
    """The frozen form of every file the case's run writes, by golden file name."""
    assert main([*_argv(case), "--config", str(case / "config.json"), "--out", str(out)]) == 0
    return {path.name if path.suffix == ".json" else f"{path.stem}.summary.json":
            path.read_text() if path.suffix == ".json" else _summary(path.read_text())
            for path in sorted(out.iterdir())}


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
    for name in sorted(frozen.keys() | fresh.keys()):
        if name not in fresh:
            lines.append(f"{name}: not written by the run")
            continue
        text = fresh[name]
        if not frozen.get(name):  # absent, or the empty sidecar of a new case
            lines.append(f"{name}: no golden")
            continue
        if text == frozen[name]:
            continue
        old, new = json.loads(frozen[name]), json.loads(text)
        digests = []  # the landscape columns whose text changed
        if name.endswith(".summary.json"):
            name, old, new = name.replace(".summary.json", ".csv"), old["columns"], new["columns"]
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
def test_output_matches_its_golden(tmp_path, case):
    changes = _changes(_frozen(GOLDENS / case), _run(GOLDENS / case, tmp_path))
    assert not changes, f"{case}: " + "; ".join(changes)


@pytest.mark.parametrize("case", CASES)
def test_a_golden_file_the_run_does_not_write_fails(case):
    frozen = _frozen(GOLDENS / case)
    for name in frozen:
        fresh = {other: text for other, text in frozen.items() if other != name}
        assert _changes(frozen, fresh) == [f"{name}: not written by the run"]


def _verify() -> list[dict]:
    """``verify --json`` at the default seed, each result without ``runtime_s``."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["verify", "--json"]) == 0
    return [{field: value for field, value in result.items() if field != "runtime_s"}
            for result in json.loads(out.getvalue())]


def _verify_changes(frozen: list[dict], fresh: list[dict]) -> list[str]:
    """One line per field that differs, named by its check and field, and one per
    check on one side only."""
    old, new = ({result["name"]: result for result in results} for results in (frozen, fresh))
    lines = []
    for name in dict.fromkeys([*old, *new]):
        if name not in old or name not in new:
            lines.append(f"{name}: {'not run' if name in old else 'no golden'}")
            continue
        for field in sorted(old[name].keys() | new[name].keys()):
            was, now = old[name].get(field), new[name].get(field)
            if was != now:
                rel = f" (relative change {_rel(was, now):.3e})" if field == "measured" else ""
                lines.append(f"{name}.{field}: {was!r} -> {now!r}{rel}")
    return lines


def test_verify_matches_its_golden():
    changes = _verify_changes(json.loads(VERIFY.read_text()), _verify())
    assert not changes, "verify.json: " + "; ".join(changes)


def test_a_changed_verify_field_is_named():
    frozen = json.loads(VERIFY.read_text())
    fresh = json.loads(VERIFY.read_text())
    fresh[2]["measured"] *= 2.0
    fresh[2]["passed"] = False
    name, was = frozen[2]["name"], frozen[2]["measured"]
    assert _verify_changes(frozen, fresh) == [
        f"{name}.measured: {was!r} -> {2.0 * was!r} (relative change 1.000e+00)",
        f"{name}.passed: True -> False"]
    assert _verify_changes(frozen, frozen[1:]) == [f"{frozen[0]['name']}: not run"]


def freeze() -> None:
    """Rewrite every golden, printing each column's largest change and each changed
    field of ``verify.json``."""
    for case in CASES:
        with tempfile.TemporaryDirectory() as out:
            fresh = _run(GOLDENS / case, Path(out))
        print(f"{case}: " + ("; ".join(_changes(_frozen(GOLDENS / case), fresh))
                             or "unchanged"))
        for name, text in fresh.items():
            (GOLDENS / case / name).write_text(text)
    fresh = _verify()
    frozen = json.loads(VERIFY.read_text()) if VERIFY.is_file() else []
    print("verify.json: " + ("; ".join(_verify_changes(frozen, fresh)) or "unchanged"))
    VERIFY.write_text(json.dumps(fresh, indent=2) + "\n")


if __name__ == "__main__":
    freeze()
