"""Every imported name is read in its module or re-exported through __all__,
and every name a module exports is read somewhere in the program."""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(
    p for p in (ROOT / "src" / "dechist").glob("*.py") if p.name != "__init__.py"
) + sorted((ROOT / "tests").glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names bound by import statements that the module never reads."""
    tree = ast.parse(source)
    imported: list[str] = []
    exported: set[str] = set()
    read: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(a.asname or a.name).split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported |= set(ast.literal_eval(node.value))
    return [name for name in imported if name not in read | exported]


def test_scanner_flags_only_unread_names():
    source = (
        "from __future__ import annotations\n"
        "import os, os.path as osp\n"
        "import json\n"
        "from math import pi, tau as full_turn\n"
        "__all__ = ['pi']\n"
        "print(os.sep, full_turn)\n"
    )
    assert unused_imports(source) == ["osp", "json"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


# Realization setup belongs to dechist.experiments; the CLI only parses,
# calls and writes, so it cannot start an eigensolve of its own.
SETUP_NAMES = {
    "eigendecompose", "build_hamiltonian", "build_coarsening",
    "sample_haar_state", "select_eigenstate", "macro_dynamics",
}


def test_cli_imports_no_realization_setup():
    tree = ast.parse((ROOT / "src" / "dechist" / "cli.py").read_text())
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names |= {alias.name.split(".")[-1] for alias in node.names}
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.Name):
            names.add(node.id)
    assert names & SETUP_NAMES == set()


def test_cli_import_loads_no_process_pool():
    # A serial sweep never uses the pool, so only a parallel one imports it.
    script = (
        "import sys, dechist.cli\n"
        "print(sorted({'multiprocessing', 'concurrent.futures.process'} & set(sys.modules)))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, check=True)
    assert proc.stdout == "[]\n"


def public_names(source: str) -> list[str]:
    for node in ast.parse(source).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return list(ast.literal_eval(node.value))
    return []


def names_read(source: str) -> set[str]:
    """Loaded names, attribute names and imported names of a module."""
    read: set[str] = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            read |= {alias.name.split(".")[-1] for alias in node.names}
    return read


def unreached_names(root: Path) -> list[str]:
    """Names in a src/dechist module's __all__ that no src/dechist module
    and no tools/ script reads; the package __init__ only re-exports."""
    modules = sorted(
        p for p in (root / "src" / "dechist").glob("*.py") if p.name != "__init__.py"
    )
    readers = modules + sorted((root / "tools").glob("*.py"))
    read = set().union(*(names_read(p.read_text()) for p in readers))
    return sorted(
        name for p in modules for name in public_names(p.read_text()) if name not in read
    )


def test_every_public_name_is_reached():
    assert unreached_names(ROOT) == []
