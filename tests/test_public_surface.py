"""Every public function, class and method of ``src/moluq`` is used.

A public name (no leading underscore) counts as used when some code other
than its own definition refers to it: an AST name, attribute or import
alias, or a string constant that is a dotted name (as the benchmark's span
targets are), in ``src/moluq``, the acceptance suite, ``perfbench`` or
``tools``.  Helpers that only unit tests call fail here.  The match is by
name, so two definitions with one name count each other's uses.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_DOTTED = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*")


def public_definitions(root: Path) -> list[tuple[str, str]]:
    """(module, qualified name) of each public top-level function and class
    of ``src/moluq``, and of each public method of those classes."""
    found = []
    for path in sorted((root / "src" / "moluq").glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) \
                    or node.name.startswith("_"):
                continue
            found.append((path.stem, node.name))
            if isinstance(node, ast.ClassDef):
                found += [(path.stem, f"{node.name}.{item.name}") for item in node.body
                          if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                          and not item.name.startswith("_")]
    return found


def _referenced(node, enclosing: frozenset, out: set) -> None:
    """Add to ``out`` each name ``node`` refers to, except a name that one
    of the definitions enclosing it defines."""
    names = []
    if isinstance(node, ast.Name):
        names = [node.id]
    elif isinstance(node, ast.Attribute):
        names = [node.attr]
    elif isinstance(node, ast.alias):
        names = node.name.split(".")
    elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
            and _DOTTED.fullmatch(node.value):
        names = node.value.split(".")
    out.update(name for name in names if name not in enclosing)
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        enclosing = enclosing | {node.name}
    for child in ast.iter_child_nodes(node):
        _referenced(child, enclosing, out)


def referenced_names(root: Path) -> set[str]:
    paths = [*(root / "src" / "moluq").glob("*.py"), root / "tests" / "test_acceptance.py",
             *(root / "perfbench").glob("*.py"), *(root / "tools").glob("*.py")]
    out: set[str] = set()
    for path in paths:
        _referenced(ast.parse(path.read_text()), frozenset(), out)
    return out


def unreferenced(root: Path) -> list[str]:
    names = referenced_names(root)
    return [f"{module}.{qualname}" for module, qualname in public_definitions(root)
            if qualname.rsplit(".", 1)[-1] not in names]


def test_every_public_definition_is_referenced():
    assert unreferenced(ROOT) == []


def test_the_rule_sees_a_definition_used_only_by_itself(tmp_path):
    (tmp_path / "src" / "moluq").mkdir(parents=True)
    for part in ("tests", "perfbench", "tools"):
        (tmp_path / part).mkdir()
    (tmp_path / "tests" / "test_acceptance.py").write_text("from m import used\n")
    (tmp_path / "src" / "moluq" / "m.py").write_text(
        "def used():\n    return 1\n\n"
        "def recursive(n):\n    return recursive(n - 1) if n else 0\n\n"
        "class Grid:\n"
        "    def shape(self):\n        return 'Grid'\n\n"
        "    def size(self):\n        return self.shape()\n")
    (tmp_path / "perfbench" / "spans.py").write_text('TARGETS = {"m": ("Grid.size",)}\n')
    assert unreferenced(tmp_path) == ["m.recursive"]
