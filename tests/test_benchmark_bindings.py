"""The per-layer tracer in ``perfbench/tracing.py`` wraps package names
and reads call arguments by name. A renamed or deleted name breaks
``perfbench/run.py --trace 1``, not the package, so it is pinned here."""

import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

from qpac import hazan_optimize, smallest_eigenvector
from qpac.experiments import ExperimentConfig, run_command
from qpac.table import ResultTable

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up while the class is created
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def test_traced_functions_resolve(tracing):
    for module, func in tracing.FUNCTIONS:
        assert callable(getattr(importlib.import_module(f"qpac.{module}"), func)), (module, func)


def test_traced_methods_resolve(tracing):
    # the tracer patches the method found in the class's own __dict__
    for module, cls_name, meth in tracing.METHODS:
        cls = getattr(importlib.import_module(f"qpac.{module}"), cls_name)
        assert callable(cls.__dict__.get(meth)), (module, cls_name, meth)


def _bound(fn, *args) -> dict:
    bound = inspect.signature(fn).bind(*args)
    bound.apply_defaults()
    return bound.arguments


def test_hooks_read_bound_arguments():
    # the after-hooks bind each call's arguments with defaults applied
    # and index them by these names
    args = _bound(hazan_optimize, object())
    assert args["stop_objective"] is None
    assert args["k_max"] == 300
    assert "h" in _bound(smallest_eigenvector, object())
    assert "path" in _bound(ResultTable.write, object(), "t.csv")


def test_protocols_search_through_the_traced_name(tracing, tmp_path):
    # the tracer rebinds complexity.estimate_min_m wherever qpac binds
    # it; a protocol that searched through another name would leave
    # its search spans at 0
    config = ExperimentConfig(command="scaling", n_min=2, n_max=3, dist="d2", i_max=2,
                              repeats=2, epsilon=0.15, gamma=0.2, delta=0.2,
                              out=str(tmp_path / "s.csv"))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        run_command(config)
    finally:
        tracer.remove()
    searches = [s for s in tracer.spans if s.name == "complexity.estimate_min_m"]
    # one search per n, of all its repeats
    assert len(searches) == 2
