"""The benchmark's span tracer wraps calmkit names from outside; each name it
lists must still exist, or installing the tracer raises (or, for methods,
silently traces nothing)."""

import importlib.util
import inspect
import os

TRACING = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "perfbench", "tracing.py")


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_functions_resolve():
    tracing = _tracing()
    missing = [name for module, attr, name in tracing.FUNCTIONS
               if not callable(getattr(module, attr, None))]
    assert not missing


def test_traced_methods_resolve():
    tracing = _tracing()
    missing = [name for module, attr, name in tracing.METHODS
               if not any(cls.__module__ == module.__name__ and attr in cls.__dict__
                          for _, cls in inspect.getmembers(module, inspect.isclass))]
    assert not missing

