"""calmkit's modules import what they use at the top, never inside a function."""

import ast
import pathlib

import calmkit


def test_no_function_level_imports():
    nested = []
    for path in sorted(pathlib.Path(calmkit.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and node.col_offset > 0:
                nested.append("%s:%d" % (path.name, node.lineno))
    assert not nested
