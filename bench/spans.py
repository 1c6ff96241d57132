"""Span recording around the package's public functions, from outside it.

Each wrapped call records a span (name, start, end, parent).  A layer's
self time is the summed duration of its spans minus the duration of their
wrapped children.  Counters record exact work done at the same boundaries.
Nothing inside the package is edited: the wrappers replace the module-level
names (in every ``wnlgo`` module that imported them) and the two
``SpectralGrid`` transform methods.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import time
from collections import Counter, defaultdict

import numpy as np

_FFT_NAMES = ("fftn", "ifftn", "rfftn", "irfftn", "fft2", "ifft2", "rfft2",
              "irfft2")


def _steps(span: float, dt: float) -> int:
    """Time steps the package's integrators take to cover span at step dt."""
    return 0 if span == 0 else max(1, round(abs(span) / dt))


def _snapshot_bytes(args, result):
    return {"grid.write_snapshot.bytes": os.path.getsize(args["path"])}


def _emitted_bytes(args, result):
    return {"experiments.emit_results.bytes":
            sum(os.path.getsize(p) for p in result.values())}


def _kernel_points(args, result):
    return {"kernels.apply_raw.points": np.asarray(args["values"]).size}


def _point_steps(args, result):
    field = args["field"]
    steps = _steps(args["t_end"] - field.time, args["dt"])
    return {"solver.point_steps": steps * field.grid.size}


def _rk4_steps(args, result):
    return {"transport.rk4_steps":
            _steps(args["t_end"] - args["state"].time, args["dt"])}


# (module, function, counter) for every span; the counter maps the bound
# arguments and the result to extra work counts.
SPANNED = (
    ("cli", "main", None),
    ("experiments", "parse_config", None),
    ("experiments", "emit_results", _emitted_bytes),
    ("resonance", "close_phase_set", None),
    ("resonance", "resonant_tuples", None),
    ("transport", "transport_rhs", None),
    ("transport", "evolve_profiles", _rk4_steps),
    ("kernels", "apply_raw", _kernel_points),
    ("solver", "evolve_semiclassical", _point_steps),
    ("solver", "oscillatory_initial_data", None),
    ("solver", "assemble_approximation", None),
    ("solver", "approximation_error", None),
    ("grid", "resample", None),
    ("grid", "write_snapshot", _snapshot_bytes),
    ("norms", "sobolev_norm", None),
    ("norms", "wiener_norm", None),
)

# per-layer metrics reported by a traced run, with units
METRICS = (
    [(f"{m}.{f}.self_s", "s") for m, f, _ in SPANNED]
    + [(name, "count") for name in (
        "resonance.close_phase_set.calls", "resonance.resonant_tuples.calls",
        "transport.evolve_profiles.calls", "transport.rk4_steps",
        "kernels.apply_raw.calls", "kernels.apply_raw.points",
        "solver.evolve_semiclassical.calls", "solver.point_steps",
        "grid.transform.calls", "grid.write_snapshot.calls",
        "fft.calls", "fft.points")]
    + [("experiments.emit_results.bytes", "B"),
       ("grid.write_snapshot.bytes", "B"),
       ("resonance.close_phase_set.peak_mb", "MB")]
)


class Recorder:
    """Spans and counters of one stretch of work, kept in memory."""

    def __init__(self):
        self.reset()

    def reset(self) -> None:
        self.spans = []      # [name, start, end, parent index or -1]
        self.stack = []
        self.counts = Counter()

    def span(self, name: str, fn, counter=None):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(self.spans)
            self.spans.append([name, time.perf_counter(), 0.0,
                               self.stack[-1] if self.stack else -1])
            self.stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.stack.pop()
                self.spans[index][2] = time.perf_counter()
            self.counts[name + ".calls"] += 1
            if counter is not None:
                bound = signature.bind(*args, **kwargs)
                self.counts.update(counter(bound.arguments, result))
            return result
        return wrapper

    def count(self, fn, counts):
        """Wrap fn so that each call adds counts(positional args, result)."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            self.counts.update(counts(args, result))
            return result
        return wrapper

    def summary(self) -> dict:
        """Self time of every span name plus the counters."""
        out = defaultdict(float)
        for name, start, end, parent in self.spans:
            out[name + ".self_s"] += end - start
            if parent >= 0:
                out[self.spans[parent][0] + ".self_s"] -= end - start
        out.update(self.counts)
        return dict(out)


def count_ffts(recorder: Recorder) -> None:
    """Count n-d FFT calls and their complex points, in scipy.fft and numpy.fft.

    Installed before the package is imported, so every way it can reach the
    transforms is counted.  Points are the size of the complex spectrum: the
    output of a forward transform, the input of an inverse one.
    """
    import scipy.fft
    for module in (scipy.fft, np.fft):
        for name in _FFT_NAMES:
            inverse = name.startswith("i")

            def counts(args, result, inverse=inverse):
                spectrum = args[0] if inverse else result
                return {"fft.calls": 1, "fft.points": np.asarray(spectrum).size}
            setattr(module, name, recorder.count(getattr(module, name), counts))


def instrument(recorder: Recorder) -> None:
    """Wrap the spanned functions wherever the package bound their names."""
    from wnlgo.grid import SpectralGrid
    for module_name, _, _ in SPANNED:
        importlib.import_module("wnlgo." + module_name)
    modules = [m for name, m in sys.modules.items()
               if name == "wnlgo" or name.startswith("wnlgo.")]
    for module_name, fn_name, counter in SPANNED:
        original = getattr(sys.modules["wnlgo." + module_name], fn_name)
        wrapped = recorder.span(f"{module_name}.{fn_name}", original, counter)
        for module in modules:
            for attr in [a for a, v in vars(module).items() if v is original]:
                setattr(module, attr, wrapped)

    def one_transform(args, result):
        return {"grid.transform.calls": 1}
    for method in ("forward", "inverse"):
        setattr(SpectralGrid, method,
                recorder.count(getattr(SpectralGrid, method), one_transform))
