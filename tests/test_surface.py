"""The library exports only what it or its acceptance tests use.

A public function that only unit tests call is surface with no user: every
function ``fockgauge`` exports must be loaded or called somewhere in the
library's own modules or in ``tests/test_acceptance.py``.
"""

import ast
import inspect
from pathlib import Path

import fockgauge

ROOT = Path(__file__).resolve().parents[1]
# documented in README for writing group files, and used by no module
DOCUMENTED_ONLY = {"dump_group_file"}


def _names_used(path: Path) -> set[str]:
    """Every name loaded or called in ``path``: bare names and attributes."""
    used = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            used.add(node.attr)
    return used


def test_every_exported_function_has_a_caller_outside_the_unit_tests():
    sources = [p for p in (ROOT / "src" / "fockgauge").glob("*.py") if p.name != "__init__.py"]
    used = set().union(*map(_names_used, sources + [ROOT / "tests" / "test_acceptance.py"]))
    exported = {name for name, obj in vars(fockgauge).items()
                if inspect.isfunction(obj) and not name.startswith("_")}
    unused = exported - used - DOCUMENTED_ONLY
    assert not unused, sorted(unused)
