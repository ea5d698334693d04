"""Lint: the sideband path forms no product that a BLAS kernel would round.

Every 2x2 sideband quantity is written entry by entry on (2, 2, N) stacks.
A matrix product (``@``, ``np.dot``, ``np.matmul``, ``np.einsum``, ...) or a
``np.linalg`` call hands its last bits to whichever BLAS/LAPACK kernel the
CPU selects, so outputs would stop being byte-identical across machines.
No function of these modules is exempt: the dense oracle
`scattering.oracle_solve` writes its diagonal blocks entry by entry too,
and its one LAPACK call, the LU solve, is `algebra.solve_dense`.

A second lint keeps one reader of user JSON: only `config.py` parses it.
A third keeps one writer of files: only `outputs.py` creates a directory
or writes a file, so the refusal rules it applies first cover every write.
A fourth keeps one intake of sideband grids in the five modules above: no
``np.array``/``np.asarray`` casts to float, which would evaluate a complex
Omega at its real part; `scattering._real_grid` refuses it instead.
A fifth keeps every import in use: each name a module of the package
imports is read in that module, so a deletion leaves no import behind and no
module re-exports another's names (``__all__`` does not count as a read).
A sixth keeps one record of the reduced model: no function of
`lumped_mode` that takes ``lp`` also takes ``k_p``, ``epsilon``, ``kappa``
or ``params``, inputs that `LumpedParams` already carries or is built from.
A seventh keeps one intake of a scalar view's Omega in the five modules
above: no call of ``GRID_TAKERS`` gets a list or tuple literal, so no view
builds its one-point grid by hand past `scattering._one_point`.
An eighth keeps one owner of the phase-stripped port gauge: only `scattering`,
which forms `SidebandBlocks.phases`, and `lumped_mode`, which strips pumps and
exact matrices with them, read ``.phases``.
A ninth keeps one rigidity convention: only `radiation_pressure`, which defines
`_static_spring`, and `lumped_mode`, whose records and views carry it, read the
exact static spring K2, so no caller adds it to a K by hand; every K result of
either model holds K1 and K2 apart.
"""
import ast
import re
from pathlib import Path

import pytest

import msinoise

MODULES = ("scattering", "radiation_pressure", "lumped_mode", "cooling", "outputs")
#: attribute, function and module names that reach BLAS or LAPACK
BANNED = {"dot", "vdot", "inner", "tensordot", "matmul", "einsum", "linalg"}


def blas_uses(source: str) -> list[tuple[int, str]]:
    """(line, what) of every matrix product or linear-algebra call in ``source``."""
    found = []

    def visit(node):
        if isinstance(getattr(node, "op", None), ast.MatMult):
            found.append((node.lineno, "@"))
        elif isinstance(node, ast.Attribute) and node.attr in BANNED:
            found.append((node.lineno, node.attr))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            module = getattr(node, "module", None) or ""
            names = [module, *(alias.name for alias in node.names)]
            if any(BANNED & set(name.split(".")) for name in names):
                found.append((node.lineno, "import"))
        for child in ast.iter_child_nodes(node):
            visit(child)

    visit(ast.parse(source))
    return found


@pytest.mark.parametrize("module", MODULES)
def test_sideband_modules_form_no_blas_products(module):
    path = Path(msinoise.__file__).parent / f"{module}.py"
    uses = blas_uses(path.read_text())
    assert not uses, f"{module}.py: " + ", ".join(f"line {n}: {what}" for n, what in uses)


def test_linter_flags_each_banned_form():
    source = (
        "import numpy as np\n"
        "from numpy.linalg import solve\n"
        "a = b @ c\n"
        "a @= c\n"
        "np.dot(a, b)\n"
        "a.dot(b)\n"
        "np.matmul(a, b)\n"
        "np.einsum('ij,jk', a, b)\n"
        "np.linalg.inv(a)\n"
        "def oracle_solve():\n"
        "    return a @ b\n"
        "a * b + np.multiply.outer(a, b)\n"
    )
    assert [n for n, _ in blas_uses(source)] == [2, 3, 4, 5, 6, 7, 8, 9, 11]


def float_casts(source: str) -> list[int]:
    """Lines of every ``np.array``/``np.asarray`` call with ``dtype=float`` in ``source``."""
    return [node.lineno for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Call)
            and getattr(node.func, "attr", None) in {"array", "asarray"}
            and any(k.arg == "dtype" and ast.unparse(k.value) in {"float", "np.float64"}
                    for k in node.keywords)]


def test_float_cast_linter_flags_each_form():
    source = (
        "np.array([w], dtype=float)\n"
        "np.asarray(grid, dtype=float)\n"
        "np.asarray(grid, dtype=np.float64)\n"
        "np.array(w, dtype=complex)\n"
        "np.zeros(3, dtype=float)\n"
        "grid.astype(float, copy=False)\n"
    )
    assert float_casts(source) == [1, 2, 3]


@pytest.mark.parametrize("module", MODULES)
def test_sideband_modules_cast_no_grid_to_float(module):
    path = Path(msinoise.__file__).parent / f"{module}.py"
    lines = float_casts(path.read_text())
    assert not lines, f"{module}.py: dtype=float casts at lines {lines}; use _real_grid"


def json_reads(source: str) -> list[int]:
    """Lines of every ``json.load``/``json.loads`` use or import in ``source``."""
    reads = {"load", "loads"}
    found = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Attribute) and node.attr in reads
                and isinstance(node.value, ast.Name) and node.value.id == "json"):
            found.append(node.lineno)
        elif (isinstance(node, ast.ImportFrom) and node.module == "json"
              and reads & {alias.name for alias in node.names}):
            found.append(node.lineno)
    return found


def test_only_config_parses_json():
    package = Path(msinoise.__file__).parent
    assert json_reads((package / "config.py").read_text())  # the one reader
    uses = [f"{path.name}:{line}" for path in sorted(package.glob("*.py"))
            if path.name != "config.py" for line in json_reads(path.read_text())]
    assert not uses, "JSON parsed outside config.py: " + ", ".join(uses)


#: methods (of a Path, a file or functions of os) that create, write, trim, move
#: or remove a file or directory
WRITES = {"mkdir", "write_text", "write_bytes", "writelines", "truncate", "ftruncate",
          "unlink", "rename", "replace", "rmdir", "touch"}
#: the `os.open` flags that let a descriptor create or change a file
WRITE_FLAGS = {"O_WRONLY", "O_RDWR", "O_CREAT", "O_TRUNC", "O_APPEND"}


def file_writes(source: str) -> list[int]:
    """Lines of every ``WRITES`` call, ``open`` in a write mode, or ``open`` given
    a ``WRITE_FLAGS`` name in ``source``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        name = getattr(node.func, "attr", getattr(node.func, "id", None))
        if name == "replace" and isinstance(node.func, ast.Name):
            continue  # dataclasses.replace; os.replace and Path.replace are attributes
        modes = [arg.value for arg in [*node.args[:2], *(k.value for k in node.keywords)]
                 if isinstance(arg, ast.Constant) and isinstance(arg.value, str)
                 and re.fullmatch(r"[rwxabt+]+", arg.value)]
        flags = {getattr(part, "attr", getattr(part, "id", None))
                 for arg in [*node.args, *(k.value for k in node.keywords)]
                 for part in ast.walk(arg)}
        if name in WRITES or (name == "open" and (any(set(m) & set("wxa+") for m in modes)
                                                  or flags & WRITE_FLAGS)):
            found.append(node.lineno)
    return found


def test_write_linter_flags_each_form():
    source = (
        "path.mkdir(parents=True)\n"
        "path.write_text(s)\n"
        "path.write_bytes(b)\n"
        "fh.writelines(lines)\n"
        "path.open('w')\n"
        "open(name, 'a')\n"
        "open(name, mode='r+')\n"
        "path.unlink(missing_ok=True)\n"
        "os.rename(a, b)\n"
        "path.replace(target)\n"
        "path.rmdir()\n"
        "path.touch()\n"
        "os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)\n"
        "os.open(path, flags=O_RDWR)\n"
        "os.open(path, os.O_APPEND | os.O_CLOEXEC)\n"
        "os.open(path, os.O_TRUNC)\n"
        "fh.truncate()\n"
        "os.ftruncate(fd, 0)\n"
        "path.open()\n"
        "open('data.csv')\n"
        "os.open(path, os.O_RDONLY)\n"
        "path.read_text()\n"
        "fh.write(s)\n"
        "replace(result, runtime_s=0.0)\n"
    )
    assert file_writes(source) == list(range(1, 19))


def test_only_outputs_writes_files():
    package = Path(msinoise.__file__).parent
    assert file_writes((package / "outputs.py").read_text())  # the one writer
    uses = [f"{path.name}:{line}" for path in sorted(package.glob("*.py"))
            if path.name != "outputs.py" for line in file_writes(path.read_text())]
    assert not uses, "files written outside outputs.py: " + ", ".join(uses)


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) of every name ``source`` imports but never reads; a listing in
    ``__all__`` is no read, and ``from __future__`` imports are exempt."""
    tree = ast.parse(source)
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [(node.lineno, name) for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and getattr(node, "module", None) != "__future__"
            for name in (alias.asname or alias.name.split(".")[0] for alias in node.names)
            if name not in read]


def test_unused_import_linter_flags_each_form():
    source = (
        "from __future__ import annotations\n"
        "import json\n"
        "import numpy as np\n"
        "import os.path\n"
        "from .a import used, unused, exported\n"
        "from .b import x as y\n"
        "__all__ = ['exported']\n"
        "def f(z: y) -> None:\n"
        "    import math\n"
        "    return np.zeros(used)\n"
    )
    assert unused_imports(source) == [(2, "json"), (4, "os"), (5, "unused"),
                                      (5, "exported"), (9, "math")]


def test_every_import_is_used():
    package = Path(msinoise.__file__).parent
    unused = [f"{path.name}:{line} {name}" for path in sorted(package.glob("*.py"))
              for line, name in unused_imports(path.read_text())]
    assert not unused, "imported but never read: " + ", ".join(unused)


#: parameters that restate what a `LumpedParams` carries or is derived from
RESTATED = {"k_p", "epsilon", "kappa", "params"}


def restated_inputs(source: str) -> list[tuple[int, str]]:
    """(line, name) of every ``RESTATED`` parameter of a function in ``source``
    that also takes ``lp``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.Lambda)):
            a = node.args
            names = [arg.arg for arg in [*a.posonlyargs, *a.args, a.vararg, *a.kwonlyargs,
                                         a.kwarg] if arg is not None]
            if "lp" in names:
                found += [(node.lineno, name) for name in names if name in RESTATED]
    return found


def test_restated_input_linter_flags_each_form():
    source = (
        "def fano(lp, epsilon, kappa, k_p, a_plus, grid): ...\n"
        "def errors(params, lp, field, grid): ...\n"
        "def rigidity(lp, /, *, k_p=1.0): ...\n"
        "class C:\n"
        "    def spring(self, lp, *k_p): ...\n"
        "f = lambda lp, **kappa: lp\n"
        "def fine(lp, a_plus, grid): ...\n"
        "def exact(params, k_p): ...\n"
    )
    assert restated_inputs(source) == [
        (1, "epsilon"), (1, "kappa"), (1, "k_p"), (2, "params"), (3, "k_p"),
        (5, "k_p"), (6, "kappa")]


def test_reduced_model_takes_one_record():
    path = Path(msinoise.__file__).parent / "lumped_mode.py"
    found = restated_inputs(path.read_text())
    assert not found, "lumped_mode.py: " + ", ".join(
        f"line {n}: {name} beside lp" for n, name in found)


#: functions that take a sideband grid (`_real_grid`'s is its only argument)
GRID_TAKERS = {"sideband_blocks", "_real_grid", "_approx_mode_entries", "_approx_force_entries",
               "_approx_spring_entries", "approx_spectra", "fano_spectrum"}


def literal_grids(source: str) -> list[tuple[int, str]]:
    """(line, function) of every ``GRID_TAKERS`` call in ``source`` given a list
    or tuple literal."""
    return [(node.lineno, name) for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call)
            and (name := getattr(node.func, "attr", getattr(node.func, "id", None))) in GRID_TAKERS
            and any(isinstance(arg, (ast.List, ast.Tuple))
                    for arg in [*node.args, *(k.value for k in node.keywords)])]


def test_literal_grid_linter_flags_each_form():
    source = (
        "sideband_blocks(params, [big_omega])\n"
        "scattering.sideband_blocks(params, [[w], [-w]])\n"
        "_real_grid((big_omega,))\n"
        "_approx_force_entries(lp, big_omega=[w])\n"
        "_approx_spring_entries(lp, [[w], [-w]])\n"
        "_approx_mode_entries(lp, (0.0,))\n"
        "approx_spectra(lp, field, [w])\n"
        "lumped_mode.fano_spectrum(lp, pump, grid=(w, -w))\n"
        "sideband_blocks(params, np.stack([grid, -grid]))\n"
        "sideband_blocks(params, _one_point('view', w, params))\n"
        "_real_grid(grid)\n"
        "np.stack([grid, -grid])\n"
    )
    assert literal_grids(source) == [
        (1, "sideband_blocks"), (2, "sideband_blocks"), (3, "_real_grid"),
        (4, "_approx_force_entries"), (5, "_approx_spring_entries"), (6, "_approx_mode_entries"),
        (7, "approx_spectra"), (8, "fano_spectrum")]


@pytest.mark.parametrize("module", MODULES)
def test_sideband_modules_build_no_grid_by_hand(module):
    path = Path(msinoise.__file__).parent / f"{module}.py"
    found = literal_grids(path.read_text())
    assert not found, f"{module}.py: " + ", ".join(
        f"line {n}: {name} of a literal grid; use scattering._one_point" for n, name in found)


#: the modules that may read the one-way port phases
PHASE_READERS = {"scattering.py", "lumped_mode.py"}


def phase_reads(source: str) -> list[int]:
    """Lines of every ``.phases`` read, or ``getattr`` of "phases", in ``source``."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if (isinstance(node, ast.Attribute) and node.attr == "phases")
                  or (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "getattr"
                      and any(isinstance(arg, ast.Constant) and arg.value == "phases"
                              for arg in node.args)))


def test_phase_read_linter_flags_each_form():
    source = (
        "b.phases\n"
        "sideband_blocks(params, np.zeros(1)).phases[:, 0]\n"
        "getattr(b, 'phases')\n"
        "phases = np.exp(1j * omega)\n"
        "SidebandBlocks(omega, phases)\n"
        "b.r_tilde\n"
    )
    assert phase_reads(source) == [1, 2, 3]


def test_only_the_reduced_model_meets_the_port_gauge():
    package = Path(msinoise.__file__).parent
    uses = [f"{path.name}:{line}" for path in sorted(package.glob("*.py"))
            if path.name not in PHASE_READERS for line in phase_reads(path.read_text())]
    assert not uses, "port phases read outside scattering and lumped_mode: " + ", ".join(uses)


#: the modules that may read the exact static spring K2
STATIC_SPRING_READERS = {"radiation_pressure.py", "lumped_mode.py"}


def static_spring_reads(source: str) -> list[int]:
    """Lines of every ``_static_spring`` name, attribute, import or ``getattr`` in ``source``."""
    name = "_static_spring"
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if (isinstance(node, ast.Name) and node.id == name)
                  or (isinstance(node, ast.Attribute) and node.attr == name)
                  or (isinstance(node, ast.ImportFrom)
                      and any(alias.name == name for alias in node.names))
                  or (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "getattr"
                      and any(isinstance(arg, ast.Constant) and arg.value == name
                              for arg in node.args)))


def test_static_spring_linter_flags_each_form():
    source = (
        "from .radiation_pressure import _CHUNK, _static_spring\n"
        "k = k1 + _static_spring(params, e)\n"
        "radiation_pressure._static_spring(lp, e)\n"
        "getattr(radiation_pressure, '_static_spring')\n"
        "def _static_spring(record, e): ...\n"
        "k = spec.k1 + spec.k2\n"
        "k1, k2 = rigidity(params, field, w)\n"
    )
    assert static_spring_reads(source) == [1, 2, 3, 4]


def test_only_the_two_models_read_the_static_spring():
    package = Path(msinoise.__file__).parent
    uses = [f"{path.name}:{line}" for path in sorted(package.glob("*.py"))
            if path.name not in STATIC_SPRING_READERS
            for line in static_spring_reads(path.read_text())]
    assert not uses, "static spring read outside radiation_pressure and lumped_mode: " + (
        ", ".join(uses))
