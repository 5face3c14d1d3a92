"""The package has no runtime dependencies: every module under ``src/ncdb``
imports only the standard library and ``ncdb`` itself.

Imports are read from the source with ``ast``, not by importing it, so an
import inside a function or behind a condition is checked too.
"""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "ncdb"


def _absolute_imports(path):
    """(line, top-level module name) of each absolute import in ``path``."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            yield from ((node.lineno, alias.name.partition(".")[0]) for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.partition(".")[0]


def test_package_imports_only_the_standard_library():
    modules = sorted(SRC.glob("*.py"))
    assert len(modules) >= 9
    foreign = [f"{path.name}:{line} imports {name}"
               for path in modules for line, name in _absolute_imports(path)
               if name not in sys.stdlib_module_names and name != "ncdb"]
    assert not foreign
