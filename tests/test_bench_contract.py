"""The names of the package that the benchmark in ``perfbench/`` relies on.

A traced run (``perfbench/run.py --trace 1``) wraps every public function
of the modules in ``tracer.LAYERS`` and hangs span names and counters on
the targets of ``tracer._NAMERS`` and ``tracer._HOOKS``; the hooks read
arguments and attributes of what they wrap, and ``perfbench/test_perfbench.py``
reads two re-exported functions.  A rename of any of these breaks the
benchmark, so each is checked here.  This file only reads ``perfbench/``.

``tracer._PREPARE`` is left out: its one key, ``sampling.sample_tuple``,
names a function the sampler no longer has (a known stale hook).
"""

import dataclasses
import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _load_tracer()


def _resolve(qualified: str):
    """The package object named "module.attr[.attr]", as the tracer names it."""
    layer, *attrs = qualified.split(".")
    obj = importlib.import_module(f"nreflect.{layer}")
    for attr in attrs:
        obj = getattr(obj, attr)
    return obj


@pytest.mark.parametrize("layer", tracer.LAYERS)
def test_every_layer_imports(layer):
    importlib.import_module(f"nreflect.{layer}")


@pytest.mark.parametrize("name", sorted({**tracer._HOOKS, **tracer._NAMERS}))
def test_every_hook_and_namer_target_exists(name):
    assert callable(_resolve(name))


def test_the_flow_hook_reads_its_arguments_and_result():
    params = inspect.signature(_resolve("dynamics.rk4_simulate")).parameters
    assert "t_end" in params and "dt" in params
    fields = {f.name for f in dataclasses.fields(_resolve("dynamics.Trajectory"))}
    assert {"ok", "times"} <= fields


def test_the_bit_counter_reads_entries():
    assert isinstance(_resolve("linalg.Matrix.rows"), property)
    assert isinstance(_resolve("scalars.Cyclotomic.coeffs"), property)


@pytest.mark.parametrize("module,attr", [("cli", "nre_residual"), ("gaudin", "rbar_matrix")])
def test_the_reexports_the_self_test_reads(module, attr):
    assert callable(getattr(importlib.import_module(f"nreflect.{module}"), attr))
