"""Layout: every function, class and method in src/ is used from src/.

Code that only tests call belongs under tests/.  A top-level definition
counts as used when some other top-level statement of the package names
it: as a Name, as an Attribute, or in an import.  A method other than a
dunder counts as used when another statement names it: a top-level one
outside its class, or another member of its class.  There is no
allowlist.
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


def _named(name, statements):
    return any(name in _names(stmt) for stmt in statements)


def unused_definitions(src=SRC):
    """(module, name) of each top-level def or class, and (module,
    "Class.method") of each non-dunder method, that no other statement names."""
    statements = [(path.stem, stmt) for path in sorted(src.glob("*.py"))
                  for stmt in ast.parse(path.read_text()).body]
    unused = []
    for module, stmt in statements:
        if not isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            continue
        others = [other for _, other in statements if other is not stmt]
        if not _named(stmt.name, others):
            unused.append((module, stmt.name))
        members = stmt.body if isinstance(stmt, ast.ClassDef) else []
        for member in members:
            siblings = [m for m in members if m is not member]
            if (isinstance(member, ast.FunctionDef) and not member.name.startswith("__")
                    and not _named(member.name, others + siblings)):
                unused.append((module, "%s.%s" % (stmt.name, member.name)))
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


def test_the_scan_finds_a_method_only_its_own_body_names(tmp_path):
    # mutation control: a method named by a sibling or from another module
    # is used, a dunder is never flagged, and a recursive one is unused
    (tmp_path / "a.py").write_text(
        "class Box:\n"
        "    def __init__(self):\n        self.n = self.helper()\n\n"
        "    def helper(self):\n        return 1\n\n"
        "    def lonely(self, n):\n        return self.lonely(n - 1) if n else 0\n\n"
        "    def shared(self):\n        return 2\n")
    (tmp_path / "b.py").write_text("from a import Box\n\nBox().shared()\n")
    assert unused_definitions(tmp_path) == [("a", "Box.lonely")]
