"""ncrewrite uses only the standard library."""

import ast
import pathlib
import sys

SOURCES = sorted((pathlib.Path(__file__).resolve().parent.parent
                  / "src" / "ncrewrite").glob("*.py"))


def imported_modules(path):
    """Top-level names of the modules a source file imports; relative
    imports are ncrewrite's own."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            yield node.module.split(".")[0] if node.level == 0 else "ncrewrite"


def test_only_standard_library_imports():
    assert len(SOURCES) >= 10
    outside = sorted((path.name, name) for path in SOURCES
                     for name in imported_modules(path)
                     if name != "ncrewrite" and name not in sys.stdlib_module_names)
    assert outside == []
