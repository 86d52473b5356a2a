"""Every package name the benchmark's traced run wraps must exist.

``perfbench/layers.py`` lists the functions and methods that a traced run
patches.  A change that renames or deletes one of them fails here, in the
test suite, rather than in a benchmark run.  The file is loaded by path,
as it is not part of the package.
"""

import importlib
import importlib.util
from pathlib import Path

LAYERS = Path(__file__).resolve().parent.parent / "perfbench" / "layers.py"


def _layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_functions_resolve():
    layers = _layers()
    assert layers.FUNCTIONS
    for module, func, _ in layers.FUNCTIONS:
        target = getattr(importlib.import_module(f"cosetcq.{module}"), func, None)
        assert callable(target), f"cosetcq.{module}.{func}"


def test_traced_methods_resolve():
    layers = _layers()
    assert layers.METHODS
    for module, cls, attr, _, _ in layers.METHODS:
        klass = getattr(importlib.import_module(f"cosetcq.{module}"), cls, None)
        assert isinstance(klass, type), f"cosetcq.{module}.{cls}"
        # the tracer patches the class's own attribute, not an inherited one
        assert callable(klass.__dict__.get(attr)), f"cosetcq.{module}.{cls}.{attr}"
