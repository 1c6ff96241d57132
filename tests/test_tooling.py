"""The benchmark's span table against the package it wraps.

bench/spans.py wraps package functions by name and reads their arguments by
name; a rename in the package would otherwise only show as a missing or
failing ``--trace 1`` run.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import numpy as np
import pytest

from wnlgo import GridFunction, ModelParams, ProfileSet, Signature, \
    SpectralGrid, TransportParams, close_phase_set, davey_stewartson, \
    evolve_profiles, evolve_semiclassical, oscillatory_initial_data
from wnlgo.transport import _steps

_SPEC = importlib.util.spec_from_file_location(
    "bench_spans", Path(__file__).resolve().parents[1] / "bench" / "spans.py")
spans = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(spans)
COUNTERS = {(module, name): counter for module, name, counter in spans.SPANNED}


@pytest.mark.parametrize("module, name", sorted(COUNTERS))
def test_every_spanned_function_exists(module, name):
    assert callable(getattr(importlib.import_module("wnlgo." + module), name))


def counted(fn, module, first, keywords, **times):
    """The counter of fn's span on fn(first, t_end, dt), with the times passed
    by keyword or by position, bound as the span binds them."""
    signature = inspect.signature(fn)
    bound = signature.bind(first, **times) if keywords \
        else signature.bind(first, *times.values())
    return COUNTERS[module, fn.__name__](bound.arguments, None)


# (t_end - time) / dt = 4.9: each counter rounds the step count as the
# package does
@pytest.mark.parametrize("keywords", [False, True])
def test_split_step_counter_reads_the_evolver_arguments(keywords):
    grid = SpectralGrid(2, np.pi, 16)
    params = ModelParams(1.0, 1.0, 1.0, 0.0, 1, Signature.elliptic(2),
                         davey_stewartson())
    field = oscillatory_initial_data(grid, [(1, 0)], [0.5], params)
    got = counted(evolve_semiclassical, "solver", field, keywords,
                  t_end=0.049, dt=0.01)
    assert got == {"solver.point_steps": _steps(0.049, 0.01)[0] * grid.size}


@pytest.mark.parametrize("keywords", [False, True])
def test_profile_counter_reads_the_evolver_arguments(keywords):
    grid = SpectralGrid(2, np.pi, 16)
    params = TransportParams(1.0, 0.0, 1, davey_stewartson())
    ps = close_phase_set([(1, 0), (1, 1), (0, 1)], Signature.elliptic(2), 1,
                         box_radius=1)
    state = ProfileSet.from_seed(ps, grid, [GridFunction.zeros(grid)] * 3,
                                 params, time=0.5)
    got = counted(evolve_profiles, "transport", state, keywords,
                  t_end=0.549, dt=0.01)
    assert got == {"transport.rk4_steps": _steps(0.049, 0.01)[0]}
