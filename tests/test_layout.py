"""Layout: every top-level function and class in src/ is used from src/.

Code that only tests call belongs under tests/.  A top-level definition
counts as used when some other top-level statement of the package names
it: as a Name, as an Attribute, or in an import.  There is no allowlist.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).parents[1] / "src" / "qserre"


def _names(node):
    """Every name a subtree refers to: Names, Attributes and imported names."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.alias):
            yield sub.name.rpartition(".")[2]


def unused_definitions(src=SRC):
    """(module, name) of each top-level def or class no other statement names."""
    statements = [(path.stem, stmt) for path in sorted(src.glob("*.py"))
                  for stmt in ast.parse(path.read_text()).body]
    unused = []
    for module, stmt in statements:
        if not isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            continue
        if not any(stmt.name in _names(other)
                   for _, other in statements if other is not stmt):
            unused.append((module, stmt.name))
    return unused


def test_every_top_level_definition_is_used_in_src():
    assert unused_definitions() == []


def test_the_scan_finds_a_definition_only_its_own_body_names(tmp_path):
    # mutation control: a recursive function named nowhere else is unused,
    # and a name imported by another module counts as a use
    (tmp_path / "a.py").write_text(
        "def lonely(n):\n    return lonely(n - 1) if n else 0\n\n"
        "def shared():\n    return 1\n")
    (tmp_path / "b.py").write_text("from a import shared\n")
    assert unused_definitions(tmp_path) == [("a", "lonely")]
