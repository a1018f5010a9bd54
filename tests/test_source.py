"""Static checks over the package source.

No linter ships with the toolchain, so the rules the package keeps are
checked here with ``ast``: every name a module imports at module level is
either used in that module or re-exported through ``__all__``, every
private module-level function, class or constant is read somewhere in
the package, no module imports scipy anywhere (numpy is the one runtime
dependency that ``pyproject.toml`` lists), only ``martingales`` and
``montecarlo`` key Philox generators, the samplers read raw Philox words
(``Generator.random`` is called only by
``martingales.bolthausen_augment``, which draws no family steps), only
``montecarlo._new_batch`` builds a chunk's outputs, ``martingales._decisions``
takes no tilt, every Philox
stream key is assigned in ``martingales`` alone, each to its own value,
every ``module.name`` that README.md quotes resolves, and every public
module-level name has a reader: the package loads it, README quotes it as
``module.name``, or the acceptance suite imports it.
"""

import ast
import importlib
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


def unused_private_names(sources: dict) -> list:
    """(module, name) of every private module-level function, class or
    constant of ``sources`` (module name -> source) that no module reads,
    by bare or dotted name; assigning to a name does not read it."""
    defined, used = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = [t.id for t in node.targets
                         if isinstance(t, ast.Name)]
            elif isinstance(node, ast.AnnAssign) \
                    and isinstance(node.target, ast.Name):
                names = [node.target.id]
            else:
                names = []
            defined += [(module, name) for name in names
                        if name.startswith("_") and not name.endswith("__")]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute) \
                    and isinstance(node.ctx, ast.Load):
                used.add(node.attr)
    return sorted(d for d in defined if d[1] not in used)


def test_private_name_scan_flags_only_unreferenced_names():
    sources = {"a": ("_K = 1\n"
                     "_unused = 2\n"
                     "__all__ = []\n"
                     "def _f(x=_K):\n"
                     "    return _g(x)\n"
                     "def _g(x):\n"
                     "    return x\n"
                     "class _Dead:\n"
                     "    _inner = 3\n"
                     "def public():\n"
                     "    _local = _f()\n"
                     "    return _local\n"),
               "b": ("from . import a\n"
                     "_T: int = 0\n"
                     "a._unused = _T\n")}
    assert unused_private_names(sources) == [("a", "_Dead"),
                                             ("a", "_unused")]


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_every_private_name_is_referenced(path):
    # delete what nothing uses: a private function, class or constant
    # that no module of the package reads is dead code, whatever tests
    # still call it
    sources = {p.stem: p.read_text(encoding="utf-8") for p in MODULES}
    assert [name for module, name in unused_private_names(sources)
            if module == path.stem] == []


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


def test_variance_switch_decisions_have_one_home():
    # the chunk walk and the per-path walk read the same masks, so the
    # family's tilted tie rule is written once
    assert sorted(call_sites("_switch_masks")) == [
        ("martingales", "_variance_switch_walk"),
        ("montecarlo", "_variance_switch_chunk")]


def test_step_draws_have_one_layout():
    # _decisions takes no tilt, so every tilt reads the same 16-bit
    # lanes and no second, untilted layout can come back unseen
    path = Path(martkit.__file__).resolve().parent / "martingales.py"
    defs = [node for node in ast.walk(ast.parse(path.read_text("utf-8")))
            if isinstance(node, ast.FunctionDef)
            and node.name == "_decisions"]
    assert len(defs) == 1
    args = defs[0].args
    assert [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs] \
        == ["bits", "rows", "n"]
    assert args.vararg is args.kwarg is None


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


def quoted_names(text: str) -> list:
    """(module, name) of every backticked ``<module>.<name>`` in ``text``,
    optionally prefixed by ``martkit.``, whose module is a package module."""
    modules = {p.stem for p in MODULES} - {"__init__"}
    return [(m.group(1), m.group(2))
            for m in re.finditer(r"`(?:martkit\.)?(\w+)\.(\w+)", text)
            if m.group(1) in modules]


def test_quoted_name_scan_reads_package_modules_only():
    text = ("`bounds.breve_x(x, eps)`, `martkit.cli` and "
            "`martkit.montecarlo._fold`; not np.exp or `np.add.at` or "
            "`tracing.installed`")
    assert quoted_names(text) == [("bounds", "breve_x"),
                                  ("montecarlo", "_fold")]


def test_readme_quotes_only_names_that_exist():
    # a name the README points at must still be there to read
    readme = Path(__file__).resolve().parent.parent / "README.md"
    missing = [f"{module}.{name}"
               for module, name in quoted_names(readme.read_text("utf-8"))
               if not hasattr(importlib.import_module(f"martkit.{module}"),
                              name)]
    assert missing == []




def public_names(tree: ast.Module) -> dict:
    """Public module-level function, class and constant names of
    ``tree``, each mapped to its defining statement; an ``__all__`` entry
    the module does not define maps to None."""
    names, exported = {}, []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            targets = [node.name]
        elif isinstance(node, ast.Assign):
            targets = [t.id for t in node.targets if isinstance(t, ast.Name)]
            if targets == ["__all__"]:
                exported = ast.literal_eval(node.value)
                continue
        elif isinstance(node, ast.AnnAssign) \
                and isinstance(node.target, ast.Name):
            targets = [node.target.id]
        else:
            targets = []
        names.update((name, node) for name in targets
                     if not name.startswith("_"))
    for name in exported:
        names.setdefault(name, None)
    return names


def unread_public_names(sources: dict, readers: set) -> list:
    """(module, name) of every public name of ``sources`` (module name ->
    source) that is not in ``readers`` (a set of (module, name)) and that
    no module loads, by bare or dotted name, outside the top-level
    statement defining it."""
    defined, loaded_in = [], {}   # name -> statements that load it
    for module, source in sources.items():
        tree = ast.parse(source)
        defined += [(module, name, node) for name, node
                    in public_names(tree).items()]
        for statement in tree.body:
            for node in ast.walk(statement):
                if isinstance(node, ast.Name) \
                        and isinstance(node.ctx, ast.Load):
                    name = node.id
                elif isinstance(node, ast.Attribute) \
                        and isinstance(node.ctx, ast.Load):
                    name = node.attr
                else:
                    continue
                loaded_in.setdefault(name, []).append(statement)
    return sorted((module, name) for module, name, home in defined
                  if (module, name) not in readers
                  and all(s is home for s in loaded_in.get(name, [])))


def test_public_name_scan_flags_only_unread_names():
    sources = {"a": ("__all__ = ['f', 'Quoted', 'gone']\n"
                     "K = 1\n"
                     "def f(x=K):\n"
                     "    return f(x)\n"
                     "class Quoted:\n"
                     "    pass\n"
                     "def g():\n"
                     "    return g()\n"
                     "def _h():\n"
                     "    return 0\n"),
               "b": ("from .a import f\n"
                     "def used():\n"
                     "    return f()\n"
                     "def main():\n"
                     "    return used()\n")}
    assert unread_public_names(sources, {("a", "Quoted")}) == [
        ("a", "g"), ("a", "gone"), ("b", "main")]


def test_public_names_have_a_reader():
    # a public name must serve someone: the package reads it, README
    # states it beside the paper statement or caller it serves, or the
    # acceptance suite imports it; a name nothing reads is deleted
    here = Path(__file__).resolve().parent
    readme = (here.parent / "README.md").read_text("utf-8")
    readers = set(quoted_names(readme))
    for node in ast.walk(ast.parse(
            (here / "test_acceptance.py").read_text("utf-8"))):
        if isinstance(node, ast.ImportFrom) and node.module \
                and node.module.startswith("martkit."):
            readers.update((node.module.partition(".")[2], alias.name)
                           for alias in node.names)
    sources = {p.stem: p.read_text(encoding="utf-8") for p in MODULES}
    assert [f"{module}.{name}" for module, name
            in unread_public_names(sources, readers)] == []
