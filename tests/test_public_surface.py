"""The package's surface: every name its callers take from the top level
resolves, and every name a module defines is used outside the tests."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "cyclodet"
CALLERS = [*sorted(ROOT.glob("bench/*.py")), *sorted(ROOT.glob("bench/*.md")),
           *sorted(ROOT.glob("demos/*.py")), ROOT / "README.md"]


def _names_taken_from_the_top_level() -> set[str]:
    """Every ``from cyclodet import a, b`` name and every ``cyclodet.a`` in
    the callers' text, code and prose alike."""
    names = set()
    for path in CALLERS:
        text = re.sub(r"#.*", "", path.read_text())
        for group in re.findall(r"from cyclodet import (\([^)]*\)|[\w, ]+)", text):
            names.update(re.findall(r"\w+", group))
        names.update(re.findall(r"\bcyclodet\.(\w+)", text))
    return names


def test_every_name_the_callers_take_from_the_top_level_resolves():
    names = _names_taken_from_the_top_level()
    assert {"classify", "load_iq", "cli", "experiment_harness"} <= names  # the scan finds them
    unresolved = []
    for name in sorted(names):
        try:
            exec(f"from cyclodet import {name}", {})
        except ImportError:
            unresolved.append(name)
    assert unresolved == []


def _definitions(tree: ast.Module):
    """Module-level defs, classes and assigned names, and non-dunder methods."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
        if isinstance(node, ast.ClassDef):
            yield from (item.name for item in node.body
                        if isinstance(item, ast.FunctionDef) and not item.name.startswith("__"))
        if isinstance(node, ast.Assign):
            yield from (target.id for target in node.targets if isinstance(target, ast.Name))
        if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            yield node.target.id


def test_every_module_level_name_is_used_outside_the_tests():
    # A name only the tests call is a helper the package does not need. The
    # top-level re-exports in __init__.py are not a use.
    modules = sorted(set(PACKAGE.glob("*.py")) - {PACKAGE / "__init__.py"})
    defined = [name for path in modules for name in _definitions(ast.parse(path.read_text()))]
    text = "\n".join(path.read_text() for path in [*modules, *CALLERS])
    unused = sorted(
        name for name in set(defined)
        if len(re.findall(rf"\b{name}\b", text)) <= defined.count(name)
    )
    assert unused == []
