"""Static checks over the package source.

No linter ships with the toolchain, so the rules the package keeps are
checked here with ``ast``: every name a module imports at module level is
either used in that module or re-exported through ``__all__``, only
``martingales`` and ``montecarlo`` key Philox generators, only
``montecarlo._new_batch`` builds a chunk's outputs, and every Philox
stream key is assigned in ``martingales`` alone, each to its own value.
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


def call_sites(name: str) -> list:
    """(module, innermost enclosing function) of every call to ``name``,
    called by bare or dotted name."""
    sites = []

    def visit(node, module, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, module, child.name)
                continue
            if isinstance(child, ast.Call):
                func = child.func
                called = func.attr if isinstance(func, ast.Attribute) \
                    else getattr(func, "id", None)
                if called == name:
                    sites.append((module, owner))
            visit(child, module, owner)

    for path in MODULES:
        visit(ast.parse(path.read_text(encoding="utf-8")), path.stem, None)
    return sites


def generator_callers() -> set:
    """Modules with a call to ``generator_for``."""
    return {module for module, _ in call_sites("generator_for")}


def test_only_the_samplers_key_generators():
    # martingales holds the per-path sampler (and the padding draws of the
    # augmentation), montecarlo the chunk kernel; every other module,
    # coverage experiments included, samples through them
    assert generator_callers() == {"martingales", "montecarlo"}


def test_chunk_outputs_have_one_layout():
    # every chunk kernel fills the batch that _new_batch allocates
    assert call_sites("_Batch") == [("montecarlo", "_new_batch")]


def test_stream_keys_have_one_home():
    # STREAM_* constants partition the Philox key space: one module
    # assigns them all, so two uses can never share a value unseen
    keys = []   # (module, name, value) of every assignment
    for path in MODULES:
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.Assign):
                keys.extend((path.stem, t.id, ast.literal_eval(node.value))
                            for t in node.targets
                            if isinstance(t, ast.Name)
                            and t.id.startswith("STREAM_"))
    assert {module for module, _, _ in keys} == {"martingales"}
    values = [value for _, _, value in keys]
    assert len(set(values)) == len(values) >= 5
