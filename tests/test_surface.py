"""The library exports only what it or its acceptance tests use.

A public function that only unit tests call is surface with no user: every
function ``fockgauge`` exports must be loaded or called somewhere in the
library's own modules or in ``tests/test_acceptance.py``.  A private
module-level function is the library's own, so something in ``src/`` other
than its own body must name it.
"""

import ast
import inspect
from collections import Counter
from pathlib import Path

import fockgauge

ROOT = Path(__file__).resolve().parents[1]
# documented in README for writing group files, and used by no module
DOCUMENTED_ONLY = {"dump_group_file"}


def _loads(tree: ast.AST) -> Counter:
    """How often each name is loaded or called in ``tree``: bare names and
    attributes."""
    return Counter(node.id if isinstance(node, ast.Name) else node.attr
                   for node in ast.walk(tree)
                   if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load))


def _names_used(path: Path) -> set[str]:
    """Every name loaded or called in ``path``."""
    return set(_loads(ast.parse(path.read_text(encoding="utf-8"))))


def test_every_exported_function_has_a_caller_outside_the_unit_tests():
    sources = [p for p in (ROOT / "src" / "fockgauge").glob("*.py") if p.name != "__init__.py"]
    used = set().union(*map(_names_used, sources + [ROOT / "tests" / "test_acceptance.py"]))
    exported = {name for name, obj in vars(fockgauge).items()
                if inspect.isfunction(obj) and not name.startswith("_")}
    unused = exported - used - DOCUMENTED_ONLY
    assert not unused, sorted(unused)


def test_every_private_helper_is_named_outside_its_own_body():
    # a click command is registered by its decorator, not called by name
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted((ROOT / "src" / "fockgauge").glob("*.py"))}
    named = sum(map(_loads, trees.values()), Counter())
    unnamed = [f"{name}:{node.name}" for name, tree in trees.items() for node in tree.body
               if isinstance(node, ast.FunctionDef) and node.name.startswith("_")
               and not node.decorator_list and named[node.name] == _loads(node)[node.name]]
    assert not unnamed, unnamed
