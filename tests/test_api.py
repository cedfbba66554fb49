"""Every public function and class of cdfun has a caller outside the tests.

A public top-level function or class of a package module must be
referenced, as a Name or an Attribute, by a package module other than
``__init__.py`` outside its own definition, by a script, or by a benchmark
file, where the strings of ``perfbench/spans.py`` count as the names it
wraps.  A check that ``@_criterion`` registers counts as reached: ``run_all``
calls it through ``CHECKS``.  A name that none of them reaches stays only
with its reason in ``KEPT``.  The names that spans.py wraps must exist, so
deleting one fails here and not only in a traced benchmark run.
"""

import ast
import importlib
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: public names that only the tests call, each with its reason to stay
KEPT = {
    "phrase_to_json": "writes the phrase form that --expr reads",
}


def _names(node) -> set:
    """Every Name id and Attribute attr under node."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
    return out


def _parse(path):
    return ast.parse(path.read_text(encoding="utf-8"), str(path))


def _package_modules():
    return [path for path in sorted((ROOT / "src" / "cdfun").glob("*.py")) if path.name != "__init__.py"]


def _references():
    """(statements, outside): the names each top-level statement of a package
    module other than __init__.py references, keyed by the name it defines
    (None for other statements), and every name the scripts and benchmark
    files reference, the dotted strings of spans.py split at the dots."""
    statements = []
    for path in _package_modules():
        for stmt in _parse(path).body:
            own = stmt.name if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) else None
            statements.append((own, _names(stmt)))
    outside = set()
    for path in sorted((ROOT / "scripts").glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py")):
        tree = _parse(path)
        outside |= _names(tree)
        if path.name == "spans.py":
            for node in ast.walk(tree):
                if isinstance(node, ast.Constant) and isinstance(node.value, str):
                    outside.update(node.value.split("."))
    return statements, outside


def _registered(stmt) -> bool:
    """Whether a definition is decorated with ``@_criterion(...)``."""
    return any(isinstance(d, ast.Call) and isinstance(d.func, ast.Name) and d.func.id == "_criterion"
               for d in stmt.decorator_list)


def _public_definitions() -> dict:
    """{name: docstring} of every public top-level function and class of the
    package modules, but the criteria that ``@_criterion`` registers."""
    return {
        stmt.name: ast.get_docstring(stmt) or ""
        for path in _package_modules()
        for stmt in _parse(path).body
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) and not stmt.name.startswith("_")
        and not _registered(stmt)
    }


def test_every_public_function_and_class_is_reached_outside_the_tests_or_kept():
    statements, outside = _references()
    unreached = {
        name for name in _public_definitions()
        if name not in outside and not any(own != name and name in names for own, names in statements)
    }
    assert unreached - set(KEPT) == set()
    assert set(KEPT) <= unreached, "a kept name is reached after all: drop it from KEPT"


def test_every_kept_name_states_its_reason_in_its_docstring():
    docs = _public_definitions()
    for name in KEPT:
        assert "kept" in docs[name].lower(), name


def test_every_name_the_span_recorder_wraps_exists():
    # perfbench/ is no package, so LAYERS is read from its source
    tree = _parse(ROOT / "perfbench" / "spans.py")
    (layers,) = [
        node.value for node in tree.body
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "LAYERS" for t in node.targets)
    ]
    missing = []
    for module, names in ast.literal_eval(layers).items():
        home = importlib.import_module(f"cdfun.{module}")
        for name in names:
            obj = home
            for part in name.split("."):
                obj = getattr(obj, part, None)
            if not callable(obj):
                missing.append(f"{module}.{name}")
    assert missing == []
