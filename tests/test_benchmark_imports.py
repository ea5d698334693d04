"""The benchmark reads only live package names.

`perfbench/workloads.py` and `perfbench/run.py` import package modules and
names, and their timed bodies call `config.`, `outputs.` and `verify.`
attributes.  The benchmark is not part of this suite, so a deletion that
leaves one of those reads behind would first fail there.  This test reads
both files with `ast`, runs none of their code, and fails here instead.
"""
import ast
import importlib
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
FILES = ("workloads.py", "run.py")


def package_reads(source: str) -> list[tuple[int, str]]:
    """(line, dotted name) of every package name ``source`` reads.

    These are the modules of ``import msinoise...``, the names of ``from
    msinoise... import name``, the package modules listed in a ``modules =
    (...)`` assignment (the harness imports them in its setup run) and each
    ``module.attribute`` read of a module bound by ``from msinoise import``.
    """
    tree = ast.parse(source)
    found, modules = [], {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [(node.lineno, alias.name) for alias in node.names
                      if alias.name.split(".")[0] == "msinoise"]
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "msinoise":
            for alias in node.names:
                found.append((node.lineno, f"{node.module}.{alias.name}"))
                if node.module == "msinoise":
                    modules[alias.asname or alias.name] = f"msinoise.{alias.name}"
        elif isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "modules" for target in node.targets):
            found += [(item.lineno, item.value) for item in ast.walk(node.value)
                      if isinstance(item, ast.Constant) and isinstance(item.value, str)
                      and item.value.split(".")[0] == "msinoise"]
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules):
            found.append((node.lineno, f"{modules[node.value.id]}.{node.attr}"))
    return sorted(found)


def resolves(dotted: str) -> bool:
    """True if ``dotted`` is an importable module, or attributes of one."""
    parts = dotted.split(".")
    for split in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:split]))
        except ModuleNotFoundError:
            continue
        for name in parts[split:]:
            if not hasattr(obj, name):
                return False
            obj = getattr(obj, name)
        return True
    return False


def test_reader_finds_each_form():
    source = (
        "import msinoise.gone\n"
        "from msinoise import verify, config as cfg\n"
        "from msinoise.outputs import run_spectrum, removed\n"
        "modules = ('msinoise.nowhere', 'numpy')\n"
        "verify.run_all(1), cfg.missing, run_spectrum.unchecked\n"
    )
    reads = package_reads(source)
    assert reads == [
        (1, "msinoise.gone"), (2, "msinoise.config"), (2, "msinoise.verify"),
        (3, "msinoise.outputs.removed"), (3, "msinoise.outputs.run_spectrum"),
        (4, "msinoise.nowhere"), (5, "msinoise.config.missing"), (5, "msinoise.verify.run_all"),
    ]
    assert [dotted for _, dotted in reads if not resolves(dotted)] == [
        "msinoise.gone", "msinoise.outputs.removed", "msinoise.nowhere",
        "msinoise.config.missing",
    ]


@pytest.mark.parametrize("name", FILES)
def test_benchmark_reads_only_live_package_names(name):
    reads = package_reads((PERFBENCH / name).read_text())
    assert reads, f"perfbench/{name} reads no package name"
    missing = [(line, dotted) for line, dotted in reads if not resolves(dotted)]
    assert not missing, f"perfbench/{name} reads names the package lacks: {missing}"
