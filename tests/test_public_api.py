"""No public function or method in ``src/`` that only tests or demos call, and
one import path per public name.

Each public def in ``src/ultrlab/*.py`` must be reached from the program
itself: called from ``src/`` (by name, whatever the owner), read there as an
attribute when it is a property, registered as an argparse handler, or be
``main``. The benchmark also keeps names alive from outside the package: the
attributes ``perfbench/tracer.py`` wraps (its ``TARGETS``) and every attribute
``perfbench/run.py`` reads. Both files are read with ``ast``, not run.

A public name is imported from the module that defines it: the package's
``__init__.py`` re-exports nothing, and no module imports a name it never
reads, unless the tracer patches that name on that module.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = sorted((ROOT / "src" / "ultrlab").glob("*.py"))


def _trees(paths):
    return [(path, ast.parse(path.read_text())) for path in paths]


def _public_defs(trees):
    """(path, qualified name, name, is_property) of every public def: module
    functions and methods of module-level classes, none starting with ``_``."""
    for path, tree in trees:
        for node in tree.body:
            owner, body = "", [node]
            if isinstance(node, ast.ClassDef):
                owner, body = f"{node.name}.", node.body
            for fn in body:
                if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                        and not fn.name.startswith("_"):
                    prop = any(getattr(d, "id", None) == "property" for d in fn.decorator_list)
                    yield path, owner + fn.name, fn.name, prop


def _called_names(trees):
    """Names called as ``f(...)`` or ``obj.f(...)``, and argparse handlers
    (``set_defaults(func=f)``)."""
    names = set()
    for _, tree in trees:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            names.add(func.id if isinstance(func, ast.Name) else getattr(func, "attr", None))
            if getattr(func, "attr", None) == "set_defaults":
                names.update(kw.value.id for kw in node.keywords
                             if kw.arg == "func" and isinstance(kw.value, ast.Name))
    return names


def _attributes_read(trees):
    return {node.attr for _, tree in trees for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}


def _tracer_entries():
    """The ``TARGETS`` of perfbench/tracer.py: (owner, attribute, span name)."""
    tree = ast.parse((ROOT / "perfbench" / "tracer.py").read_text())
    (value,) = [node.value for node in tree.body if isinstance(node, ast.Assign)
                and [getattr(t, "id", None) for t in node.targets] == ["TARGETS"]]
    return ast.literal_eval(value)


def _tracer_targets():
    """The attribute of each ``TARGETS`` entry."""
    return {attr for _, attr, _ in _tracer_entries()}


def _tracer_module_patches():
    """(module file stem, name) of each ``TARGETS`` entry that patches a module
    attribute, not a class's."""
    return {(owner.rpartition(".")[2], attr) for owner, attr, _ in _tracer_entries()
            if ":" not in owner}


def _unread_imports(trees):
    """(module file stem, name) of each name an import binds and the module
    never reads (``import a.b`` binds ``a``)."""
    for path, tree in trees:
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = (alias.asname or alias.name).partition(".")[0]
                    if name not in read:
                        yield path.stem, name


def unreached_public_defs():
    src = _trees(SRC)
    called = _called_names(src) | {"main"}
    read = _attributes_read(src)
    outside = _tracer_targets() | _attributes_read(_trees([ROOT / "perfbench" / "run.py"]))
    return [f"{path.name}: {qualname}" for path, qualname, name, prop in _public_defs(src)
            if name not in called and name not in outside and not (prop and name in read)]


def test_every_public_def_in_src_is_reached_by_the_program_or_the_benchmark():
    assert unreached_public_defs() == []


def test_the_guard_sees_the_defs_and_the_benchmark_names():
    """The guard is not vacuous: it finds public defs in every module that has
    them, properties among them, and the names perfbench pins."""
    defs = {qualname for _, qualname, _, _ in _public_defs(_trees(SRC))}
    assert {"MLP.infer", "RankerMLP.score", "Tensor.matmul", "run_experiment"} <= defs
    assert any(prop for *_, prop in _public_defs(_trees(SRC)))
    assert {"matmul", "elu", "log_softmax", "backward", "step"} <= _tracer_targets()
    assert "groups" in _attributes_read(_trees([ROOT / "perfbench" / "run.py"]))


def test_the_package_init_imports_nothing():
    """``from ultrlab import cli, training`` imports the submodules; a name
    re-exported from ``__init__.py`` would be a second path to it."""
    tree = ast.parse((ROOT / "src" / "ultrlab" / "__init__.py").read_text())
    imports = [ast.unparse(node) for node in ast.walk(tree)
               if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert imports == []


def test_no_module_imports_a_name_it_never_reads():
    unread = set(_unread_imports(_trees(SRC))) - _tracer_module_patches()
    assert sorted(f"{stem}.py: {name}" for stem, name in unread) == []


def test_the_import_guard_sees_unread_imports_and_the_patched_names(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text("import os\nimport numpy.linalg\nfrom x import a, b as c\n"
                   "from . import d\nprint(a, numpy, d)\n")
    assert sorted(_unread_imports(_trees([mod]))) == [("mod", "c"), ("mod", "os")]
    assert ("cli", "run_experiment") in _tracer_module_patches()
    assert ("training", "DatasetView") not in _tracer_module_patches()
