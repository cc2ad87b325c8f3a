"""pktm's imports run one way, up through its layers.

A module imports, at module level, only modules of lower layers:

    model -> traveltime, exactsum -> kirchhoff, synthetics, storage,
    mapreduce -> pipeline -> velocity -> cli

The MapReduce runtime is generic: it moves keys and values and imports
nothing of the seismic code but the exact sums its reduce runs on.
``__init__.py`` and ``__main__.py`` only re-export and are exempt.
"""
import ast
import importlib
import inspect
import pkgutil
import typing
from pathlib import Path

import pktm

PACKAGE = Path(pktm.__file__).parent
LAYERS = (
    ("model",),
    ("traveltime", "exactsum"),
    ("kirchhoff", "synthetics", "storage", "mapreduce"),
    ("pipeline",),
    ("velocity",),
    ("cli",),
)
LAYER = {name: i for i, names in enumerate(LAYERS) for name in names}


def _module_name(path: Path) -> tuple[str, ...]:
    return path.relative_to(PACKAGE).with_suffix("").parts


def _targets(node: ast.AST, module: tuple[str, ...]) -> list[tuple[str, ...]]:
    """The pktm modules (names relative to the package) ``node`` imports."""
    if isinstance(node, ast.Import):
        return [tuple(a.name.split(".")[1:]) for a in node.names
                if a.name.split(".")[0] == "pktm"]
    if not isinstance(node, ast.ImportFrom):
        return []
    if node.level:
        base = module[:len(module) - node.level]
        names = tuple(node.module.split(".")) if node.module else ()
    elif node.module and node.module.split(".")[0] == "pktm":
        base, names = (), tuple(node.module.split(".")[1:])
    else:
        return []
    if names:
        return [base + names]
    # ``from . import protocol`` names modules of the base package
    return [base + (a.name,) for a in node.names]


def intra_package_imports() -> list[tuple[str, str, bool]]:
    """(importer, imported, inside a function) for every pktm import."""
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        module = _module_name(path)

        def visit(node, in_function):
            for child in ast.iter_child_nodes(node):
                for target in _targets(child, module):
                    found.append((".".join(module), ".".join(target),
                                  in_function))
                visit(child, in_function or isinstance(
                    child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)))

        visit(ast.parse(path.read_text(encoding="utf-8")), False)
    return found


def module_level_imports() -> list[tuple[str, str]]:
    return [(importer, imported)
            for importer, imported, in_function in intra_package_imports()
            if not in_function
            and importer.split(".")[-1] not in ("__init__", "__main__")]


def test_every_module_has_a_layer():
    modules = {_module_name(p)[0] for p in PACKAGE.glob("*")
               if p.suffix == ".py" or (p / "__init__.py").exists()}
    assert modules - {"__init__", "__main__"} == set(LAYER)


def test_mapreduce_imports_only_its_siblings_and_exactsum():
    bad = [(a, b) for a, b in module_level_imports()
           if a.startswith("mapreduce.")
           and not (b.startswith("mapreduce") or b == "exactsum")]
    assert bad == []


def test_storage_imports_only_model():
    assert {b for a, b in module_level_imports() if a == "storage"} == {"model"}


def test_imports_run_down_the_layers():
    bad = [(a, b) for a, b in module_level_imports()
           if not a.startswith("mapreduce")
           and LAYER[b.split(".")[0]] >= LAYER[a.split(".")[0]]]
    assert bad == []


def test_no_import_inside_a_function():
    """Every pktm import is at module level, where the layer tests see it."""
    assert [(a, b) for a, b, in_function in intra_package_imports()
            if in_function] == []


def test_every_annotation_resolves():
    """An annotation names only what its module imports: one that names a
    type of another module without importing it hides that dependency
    from the tests above."""
    unresolved = []
    for info in pkgutil.walk_packages(pktm.__path__, "pktm."):
        module = importlib.import_module(info.name)
        for obj in vars(module).values():
            if not ((inspect.isfunction(obj) or inspect.isclass(obj))
                    and obj.__module__ == module.__name__):
                continue
            members = [obj]
            if inspect.isclass(obj):
                members += [m for m in vars(obj).values()
                            if inspect.isfunction(m)]
            for member in members:
                try:
                    typing.get_type_hints(member)
                except NameError as exc:
                    unresolved.append(
                        f"{module.__name__}.{member.__qualname__}: {exc}")
    assert unresolved == []
