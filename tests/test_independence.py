"""The brute-force oracles share no code with what they check: oracle.py
reads calmkit only through the problem types, the losses and the prox's tie
tolerance, and the cone oracle reads no calmkit module at all."""

import ast
import pathlib

import calmkit

SRC = pathlib.Path(calmkit.__file__).parent
TESTS = pathlib.Path(__file__).parent


def _calmkit_imports(path):
    """(module, names) per import of a calmkit module; names is None for a
    whole-module import."""
    out = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            out += [(a.name, None) for a in node.names
                    if a.name.split(".")[0] == "calmkit"]
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level > 0:
                module = "calmkit" + "." * bool(module) + module
            if module.split(".")[0] == "calmkit":
                out.append((module, {a.name for a in node.names}))
    return out


def test_oracle_imports_only_core_losses_and_the_tie_tolerance():
    imports = _calmkit_imports(SRC / "oracle.py")
    assert imports
    for module, names in imports:
        if module == "calmkit.penalties":
            assert names == {"TIE_REL_TOL"}, names
        else:
            assert module in ("calmkit.core", "calmkit.losses"), module


def test_cone_oracle_imports_no_calmkit_module():
    assert _calmkit_imports(TESTS / "cone_oracle.py") == []


def test_cone_oracle_calls_only_math_functions_and_list_methods():
    # a graph reaches the oracle as data: it reads piece fields, and any
    # method call on a calmkit object would run the code under test
    list_methods = {m for m in dir(list) if not m.startswith("_")}
    calls = [node.func for node in ast.walk(ast.parse((TESTS / "cone_oracle.py").read_text()))
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)]
    assert calls
    for f in calls:
        is_math = isinstance(f.value, ast.Name) and f.value.id == "math"
        assert is_math or f.attr in list_methods, ast.unparse(f)
