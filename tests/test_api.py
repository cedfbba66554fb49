"""Every public function and class of cdfun has a caller outside the tests.

A name exported from ``cdfun`` must be referenced, as a Name or an
Attribute, by a package module other than ``__init__.py`` outside its own
definition, by a script, or by a benchmark file, where the strings of
``perfbench/spans.py`` count as the names it wraps.  A name that none of
them reaches stays only with its reason in ``KEPT``.
"""

import ast
import inspect
from pathlib import Path

import cdfun

ROOT = Path(__file__).resolve().parents[1]

#: exported names that only the tests call, each with its reason to stay
KEPT = {
    "embed": "the octonions as a subalgebra of levels 4..8; tests compare embedded results with r = 3",
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


def _references():
    """(statements, outside): the names each top-level statement of a package
    module other than __init__.py references, keyed by the name it defines
    (None for other statements), and every name the scripts and benchmark
    files reference, the dotted strings of spans.py split at the dots."""
    statements = []
    for path in sorted((ROOT / "src" / "cdfun").glob("*.py")):
        if path.name != "__init__.py":
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


def _public_callables():
    return sorted(
        name for name in cdfun.__all__
        if inspect.isfunction(getattr(cdfun, name)) or inspect.isclass(getattr(cdfun, name))
    )


def test_every_exported_function_and_class_is_reached_outside_the_tests_or_kept():
    statements, outside = _references()
    unreached = {
        name for name in _public_callables()
        if name not in outside and not any(own != name and name in names for own, names in statements)
    }
    assert unreached - set(KEPT) == set()
    assert set(KEPT) <= unreached, "a kept name is reached after all: drop it from KEPT"


def test_every_kept_name_states_its_reason_in_its_docstring():
    for name in KEPT:
        doc = inspect.getdoc(getattr(cdfun, name)) or ""
        assert "kept" in doc.lower(), name
