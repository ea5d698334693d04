"""Lint: the sideband path forms no product that a BLAS kernel would round.

Every 2x2 sideband quantity is written entry by entry on (2, 2, N) stacks.
A matrix product (``@``, ``np.dot``, ``np.matmul``, ``np.einsum``, ...) or a
``np.linalg`` call hands its last bits to whichever BLAS/LAPACK kernel the
CPU selects, so outputs would stop being byte-identical across machines.
Only the dense oracle `scattering.oracle_solve` may use them.

A second lint keeps one reader of user JSON: only `config.py` parses it.
"""
import ast
from pathlib import Path

import pytest

import msinoise

MODULES = ("scattering", "radiation_pressure", "lumped_mode", "cooling", "outputs")
#: functions allowed a dense product, by module
EXEMPT = {"scattering": {"oracle_solve"}}
#: attribute, function and module names that reach BLAS or LAPACK
BANNED = {"dot", "vdot", "inner", "tensordot", "matmul", "einsum", "linalg"}


def blas_uses(source: str, exempt=frozenset()) -> list[tuple[int, str]]:
    """(line, what) of every matrix product or linear-algebra call in ``source``."""
    found = []

    def visit(node):
        if isinstance(node, ast.FunctionDef) and node.name in exempt:
            return
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
    uses = blas_uses(path.read_text(), EXEMPT.get(module, set()))
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
    assert [n for n, _ in blas_uses(source, {"oracle_solve"})] == [2, 3, 4, 5, 6, 7, 8, 9]
    assert len(blas_uses(source)) == 9


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
