"""Static checks over the package source.

No linter ships with the toolchain, so the rules the package keeps are
checked here with ``ast``: every name a module imports at module level is
either used in that module or re-exported through ``__all__``, and only
``martingales`` and ``montecarlo`` key Philox generators.
"""

import ast
from pathlib import Path

import pytest

import martkit

MODULES = sorted(Path(martkit.__file__).resolve().parent.glob("*.py"))


def unused_imports(source: str) -> list:
    """Module-level imported names neither used nor listed in __all__."""
    tree = ast.parse(source)
    imported = {}
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = alias.asname or alias.name.partition(".")[0]
                imported[bound] = node.lineno
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            exported = set(ast.literal_eval(node.value))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used and name not in exported)


def test_scan_flags_only_unused_names():
    source = ("from __future__ import annotations\n"
              "import os, math as m\n"
              "from a.b import c, d\n"
              "__all__ = ['d']\n"
              "def f(x: c) -> None:\n"
              "    return m.pi\n")
    assert unused_imports(source) == [(2, "os")]


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_no_unused_module_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def generator_callers() -> set:
    """Modules with a call to ``generator_for``, by bare or dotted name."""
    callers = set()
    for path in MODULES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.attr if isinstance(func, ast.Attribute) \
                    else getattr(func, "id", None)
                if name == "generator_for":
                    callers.add(path.stem)
    return callers


def test_only_the_samplers_key_generators():
    # martingales holds the per-path sampler (and the padding draws of the
    # augmentation), montecarlo the chunk kernel; every other module,
    # coverage experiments included, samples through them
    assert generator_callers() == {"martingales", "montecarlo"}
