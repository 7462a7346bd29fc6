"""The package has no runtime dependencies (``dependencies = []`` in
pyproject.toml): every module it imports is in the standard library or
is qalinks itself.  This gate fails on any other import."""

import ast
import sys
from pathlib import Path

PACKAGE = sorted((Path(__file__).resolve().parent.parent
                  / "src" / "qalinks").glob("*.py"))


def _imported_modules(path: Path):
    """(top-level module, line) for every absolute import in the file;
    relative imports stay inside the package."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0], node.lineno


def test_package_imports_only_the_standard_library():
    allowed = set(sys.stdlib_module_names) | {"qalinks"}
    outside = [f"{path.name}:{line}: {name}"
               for path in PACKAGE
               for name, line in _imported_modules(path)
               if name not in allowed]
    assert PACKAGE and not outside, outside


def test_gate_sees_a_third_party_import(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("import os\nfrom numpy import linalg\n"
                     "from . import cfrac\n")
    assert list(_imported_modules(probe)) == [("os", 1), ("numpy", 2)]
