"""The library imports nothing outside the standard library."""

import ast
import sys
from pathlib import Path

import antiassoc

SOURCES = sorted(Path(antiassoc.__file__).parent.glob("*.py"))


def _absolute_imports(path):
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_every_import_is_stdlib():
    imports = {(path.name, name) for path in SOURCES for name in _absolute_imports(path)}
    assert ("core.py", "fractions") in imports
    outside = sorted(
        (file, name) for file, name in imports
        if name.partition(".")[0] not in sys.stdlib_module_names
    )
    assert outside == []


def test_no_source_imports_dataclasses():
    # dataclasses pulls in inspect, a large part of the start-up of aaa.
    imports = {(path.name, name) for path in SOURCES for name in _absolute_imports(path)}
    assert sorted(file for file, name in imports if name == "dataclasses") == []
