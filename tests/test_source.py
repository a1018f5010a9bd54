"""Static checks over the package source.

No linter ships with the toolchain, so the rules the package keeps are
checked here with ``ast``: every name a module imports at module level is
either used in that module or re-exported through ``__all__``, no module
imports scipy anywhere (numpy is the one runtime dependency that
``pyproject.toml`` lists), only ``martingales`` and
``montecarlo`` key Philox generators, the samplers read raw Philox words
(``Generator.random`` is called only by
``martingales.bolthausen_augment``, which draws no family steps), only
``montecarlo._new_batch`` builds a chunk's outputs, and every Philox
stream key is assigned in ``martingales`` alone, each to its own value.
"""

import ast
import re
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


def import_time_imports(source: str, package: str) -> list:
    """Lines that import ``package`` when the module itself is imported:
    every import statement outside a function body."""
    found = []

    def visit(node):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.Lambda)):
                continue
            if isinstance(child, ast.Import):
                names = [alias.name for alias in child.names]
            elif isinstance(child, ast.ImportFrom) and not child.level:
                names = [child.module]
            else:
                names = []
            if any(n.partition(".")[0] == package for n in names):
                found.append(child.lineno)
            visit(child)

    visit(ast.parse(source))
    return found


def test_import_scan_skips_function_bodies():
    source = ("import scipy.special\n"
              "from scipy import optimize\n"
              "if True:\n"
              "    from scipy.special import ndtri\n"
              "class A:\n"
              "    import scipy\n"
              "def f():\n"
              "    from scipy.special import expit\n"
              "    import scipy\n"
              "import scipyx, numpy\n")
    assert import_time_imports(source, "scipy") == [1, 2, 4, 6]


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_scipy_is_imported_on_first_use_only(path):
    # superseded by test_no_scipy_import_anywhere, which also reads
    # function bodies; kept for the module-level half of the rule
    assert import_time_imports(path.read_text(encoding="utf-8"),
                               "scipy") == []


def imports_of(source: str, package: str) -> list:
    """Lines of every import statement naming ``package``, at any depth."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module]
        else:
            continue
        if any(n.partition(".")[0] == package for n in names):
            found.append(node.lineno)
    return sorted(found)


def test_full_import_scan_reads_function_bodies():
    source = ("import scipy.special\n"
              "def f():\n"
              "    from scipy.special import expit\n"
              "    import scipyx, numpy\n"
              "class A:\n"
              "    def g(self):\n"
              "        import scipy\n"
              "from . import scipy\n")
    assert imports_of(source, "scipy") == [1, 3, 7]


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_no_scipy_import_anywhere(path):
    # the interval ends, the normal quantile and the level inversion are
    # computed in the package, so no call loads scipy
    assert imports_of(path.read_text(encoding="utf-8"), "scipy") == []


def test_numpy_is_the_only_runtime_dependency():
    tomllib = pytest.importorskip("tomllib")   # Python 3.11+
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    with pyproject.open("rb") as fh:
        project = tomllib.load(fh)["project"]
    assert [re.split(r"[<>=!~ ;\[]", dep, maxsplit=1)[0]
            for dep in project["dependencies"]] == ["numpy"]


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


def test_samplers_draw_raw_words():
    # the chunk kernels and the per-path sampler compare raw words
    # (random_raw) as 53-bit integers and never form a double uniform;
    # only the augmentation's padding signs use Generator.random
    assert set(call_sites("random")) == {("martingales",
                                          "bolthausen_augment")}


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
