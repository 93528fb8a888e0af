"""Every module-level function and class in ``src/franson`` is reachable from
the package's surface, so code that only the tests use lives in the tests.

The roots are the names in ``franson.__all__``, ``cli.main`` (the console
script) and each module's own module-level code.  A definition is reached when
a reached one names it, directly, through a ``from .module import name`` or as
``module_alias.name``.  The scan reads the source with ``ast`` and imports
nothing.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "franson"

# Unreachable by design until the benchmark tracer looks its layers up by name:
# perfbench/spans.py binds these three at import.
TRACER_BOUND = {"correlation.ensemble_fringe", "correlation.chsh_value", "detection.write_timetags"}


def _modules() -> dict[str, ast.Module]:
    return {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(PACKAGE.glob("*.py"))}


def _bindings(module: str, tree: ast.Module) -> tuple[dict[str, str], dict[str, str]]:
    """The module's names bound to package definitions (``name -> "mod.def"``)
    and to package modules (``alias -> "mod"``)."""
    names, aliases = {}, {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names[node.name] = f"{module}.{node.name}"
        elif isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                bound = alias.asname or alias.name
                if node.module is None:
                    aliases[bound] = alias.name
                else:
                    names[bound] = f"{node.module}.{alias.name}"
    return names, aliases


def _references(node: ast.AST, names: dict[str, str], aliases: dict[str, str]) -> set[str]:
    """The package names (``"mod.name"``) that ``node`` mentions."""
    found = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and sub.id in names:
            found.add(names[sub.id])
        elif isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name) and sub.value.id in aliases:
            found.add(f"{aliases[sub.value.id]}.{sub.attr}")
    return found


def _definitions_and_edges(modules: dict[str, ast.Module]) -> tuple[set[str], set[str], dict[str, set[str]]]:
    """Every module-level definition, the roots, and each definition's references."""
    defined, roots, edges = set(), {"cli.main"}, {}
    for module, tree in modules.items():
        names, aliases = _bindings(module, tree)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.add(f"{module}.{node.name}")
                edges[f"{module}.{node.name}"] = _references(node, names, aliases)
            else:
                roots |= _references(node, names, aliases)
    init_names, _ = _bindings("__init__", modules["__init__"])
    for node in modules["__init__"].body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            roots |= {init_names[name] for name in ast.literal_eval(node.value) if name in init_names}
    return defined, roots, edges


def unreachable(modules: dict[str, ast.Module]) -> set[str]:
    defined, roots, edges = _definitions_and_edges(modules)
    seen, todo = set(), list(roots)
    while todo:
        name = todo.pop()
        if name not in seen:
            seen.add(name)
            todo.extend(edges.get(name, ()))
    return defined - seen


def test_only_the_tracer_bound_functions_are_unreachable():
    # a new test-only helper in src fails here; so does a tracer-bound name
    # that is deleted or gains a production caller, which is then the moment
    # to drop it from TRACER_BOUND
    found = unreachable(_modules())
    assert found - TRACER_BOUND == set(), "unreachable from franson.__all__, cli.main or module-level code"
    assert TRACER_BOUND - found == set(), "tracer-bound names now deleted or reached: update TRACER_BOUND"


def test_the_scan_sees_a_call_an_alias_and_an_unreached_definition():
    source = {
        "__init__": "from .a import api\n__all__ = ['api']\n",
        "cli": "from . import a as a_mod\ndef main():\n    return a_mod.via_alias()\n",
        "a": "def api():\n    return helper()\ndef helper():\n    pass\ndef via_alias():\n    pass\n"
        "def orphan():\n    return helper()\nTABLE = {'k': at_import}\ndef at_import():\n    pass\n",
    }
    assert unreachable({name: ast.parse(text) for name, text in source.items()}) == {"a.orphan"}
