"""Reproducible experiment harness: config ingestion, sweeps, CSV/JSON output.

Five experiment kinds, all driven by a JSON config and an eps sweep:

* converge          — geometric-optics approximation error vs the split-step
                      reference solution, sup over snapshot times, slope fit.
* zero-mode         — creation rate of the kappa = 0 amplitude from three
                      seed modes, finite-difference vs the closed-form rate,
                      plus the flat (cancelling-coupling) regime.
* more-weakly       — H^s norms of u(t*) and u(0) across eps for weight
                      exponent J > 1: the created zero mode dominates the
                      final norm (slope J-1) while the initial norm scales
                      as eps^{|s|}.
* inflate           — norm-inflation surrogate: the rescaled family
                      phi_n = eps^{-(beta+1-J)/(2 nu)} u^eps(0) shrinks in
                      H^s while psi_n(t_n) grows in H^sigma.
* sobolev-asymptotics — quadrature slopes of the closed-form Gaussian H^s
                      norms (wkb / coherent profiles) or grid slopes of the
                      scaled-profile family.

Each runner defines only its per-eps work and its assertions; the one
driver, _sweep, runs the eps loop, fits the slopes, builds the metadata and
the SweepResult.  Whatever every sweep should do per eps (a check that each
metric is finite, a timing span) belongs in _sweep.

Determinism: fixed iteration orders everywhere, float repr round-trip
formatting in CSV, no timestamps in data rows; the git hash goes into the
JSON metadata only.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import tempfile
from collections import namedtuple
from dataclasses import dataclass, replace
from functools import lru_cache
from itertools import chain

import numpy as np
import scipy.fft

from . import __version__, kernels as _kernels
from .errors import ConfigError, as_config_error
from .grid import GridFunction, SpectralGrid, pow2_at_least
from .norms import ScaledProfileSpec, gaussian_sobolev_norm, scaled_grid, \
    scaled_profile_norm, sobolev_norm
from .resonance import PhaseSet, Signature, close_phase_set, is_resonant
from .solver import ModelParams, assemble_approximation, approximation_error, \
    evolve_fields, evolve_semiclassical, oscillatory_initial_data, \
    require_admissible, require_resolved
from .transport import ProfileSet, TransportParams, _steps, \
    constant_profile_history, evolve_profiles, plan_facts, zero_mode_rate


# -- configuration -------------------------------------------------------------

_EXPERIMENTS = ("converge", "zero-mode", "more-weakly", "inflate",
                "sobolev-asymptotics")
_CELL_EXPERIMENTS = ("more-weakly", "inflate")  # run on cfg.cell_grid_for(eps)
_PROFILE_EXPERIMENTS = ("converge", "zero-mode", "inflate")  # evolve profiles


def _real(value, name: str) -> float:
    """A finite JSON number, as a float; anything else, an integer beyond
    the float range included, is a ConfigError."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) \
            or not abs(value) <= sys.float_info.max:  # exact for any int
        raise ConfigError(f"{name} must be a finite number, got {value!r}")
    return float(value)


def _integer(value, name: str) -> int:
    """An integral JSON number, as an int; 1.5 or "2" is a ConfigError, and
    so is an integer that no float holds exactly."""
    number = _real(value, name)
    if number != value:  # exact for any int
        raise ConfigError(f"{name} = {number:.6g} is too large for a float "
                          "to hold exactly")
    if number != int(number):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _of_type(kind: type, what: str):
    """Values of kind only: "no" or 0 is not a boolean, 5 not a string."""
    def read(value, name: str):
        if not isinstance(value, kind):
            raise ConfigError(f"{name} must be {what}, got {value!r}")
        return value
    return read


def _one_of(*choices):
    def read(value, name: str):
        if value not in choices:
            raise ConfigError(
                f"unknown {name} {value!r}; expected one of {choices}")
        return value
    return read


def _list_of(read_entry):
    def read(value, name: str) -> tuple:
        if not isinstance(value, (list, tuple)):
            raise ConfigError(f"{name} must be a list, got {value!r}")
        return tuple(read_entry(v, f"{name}[{i}]") for i, v in enumerate(value))
    return read


def _complex(value, name: str) -> complex:
    """A number or a [re, im] pair."""
    if isinstance(value, (list, tuple)):
        if len(value) != 2:
            raise ConfigError(f"{name} must be [re, im], got {value!r}")
        return complex(_real(value[0], name), _real(value[1], name))
    return complex(_real(value, name))


def _signature(value, name: str) -> Signature:
    with as_config_error():
        return Signature.from_string(value)


def _eps_list(value, name: str) -> tuple:
    eps_list = _list_of(_real)(value, name)
    if not eps_list:
        raise ConfigError(f"{name} must be nonempty")
    if any(not 0 < e <= 1 for e in eps_list):
        raise ConfigError(f"{name} entries must be positive and at most 1")
    if any(b >= a for a, b in zip(eps_list, eps_list[1:])):
        raise ConfigError(f"{name} must be strictly decreasing")
    return eps_list


# One table per experiment family: key -> (reader, default), where the
# default ... marks a required key; a nested table is a required section,
# read into the same flat dict of ExperimentConfig fields.  The kernel stays
# a string until _validate_field builds it for grid.dim.
_FIELD_SCHEMA = {
    "experiment": (_one_of(*_EXPERIMENTS), ...),
    "model": {"lam": (_real, ...), "mu": (_real, ...), "nu": (_integer, ...),
              "j_exponent": (_real, 1.0), "signature": (_signature, ...),
              "kernel": (_of_type(str, "a string"), ...)},
    "grid": {"dim": (_integer, ...), "box_pi_multiple": (_real, ...),
             "points_scale": (_real, None), "points_per_axis": (_integer, None)},
    "phases": {"phi0": (_list_of(_list_of(_integer)), ...),
               "box_radius": (_integer, ...), "max_generations": (_integer, 8)},
    "data": {"profile": (_one_of("gaussian", "uniform"), ...),
             "amplitudes": (_list_of(_complex), ...), "width": (_real, 0.0)},
    "eps_list": (_eps_list, ...), "T": (_real, ...), "dt": (_real, ...),
    "snapshots": (_integer, 8), "profile_points": (_integer, 64),
    "profile_dt": (_real, None),  # None: dt
    "rate_dt": (_real, 1e-3), "s": (_real, None), "sigma": (_real, None),
    "beta": (_real, 1.0),
    "output_dir": (_of_type(str, "a string"), ""),
    "expect_inflation": (_of_type(bool, "true or false"), True)}
_SOBOLEV_SCHEMA = {
    "experiment": (_one_of("sobolev-asymptotics"), ...),
    "eps_list": (_eps_list, ...),
    "profile_kind": (_one_of("wkb", "coherent", "scaled"), ...),
    "s": (_real, None), "sigma": (_real, None), "dim": (_integer, 1),
    "beta": (_real, 1.0), "kappa": (_list_of(_real), ()), "width": (_real, 1.0),
    "half_length": (_real, 32.0), "scaled_points": (_integer, 0),
    "output_dir": (_of_type(str, "a string"), "")}
_FIELD_NAMES = {"T": "t_final"}  # config key -> ExperimentConfig field


def _read(section, table: dict, name: str) -> dict:
    """The ExperimentConfig fields of section, read against its table; name
    is "config" or the section's dotted path."""
    if not isinstance(section, dict):
        raise ConfigError(f"{name} must be a JSON object")
    for key in section:
        if key not in table:
            raise ConfigError(f"unknown key {key!r} in {name}")
    values = {}
    for key, entry in table.items():
        read, default = (None, ...) if isinstance(entry, dict) else entry
        if key not in section and default is ...:
            raise ConfigError(f"missing required key {key!r} in {name}")
        path = key if name == "config" else f"{name}.{key}"
        if read is None:
            values.update(_read(section[key], entry, path))
        else:
            values[_FIELD_NAMES.get(key, key)] = \
                read(section[key], path) if key in section else default
    return values


@dataclass(frozen=True)
class ExperimentConfig:
    """Parsed and validated experiment description."""

    experiment: str
    raw: dict
    # model (None for sobolev-asymptotics)
    lam: float = 0.0
    mu: float = 0.0
    nu: int = 1
    j_exponent: float = 1.0
    signature: Signature | None = None
    kernel: _kernels.KernelSpec | None = None
    # grid
    dim: int = 0
    box_pi_multiple: float = 1.0
    points_scale: float | None = None
    points_per_axis: int | None = None
    # phases / data
    phi0: tuple = ()
    box_radius: int = 0
    max_generations: int = 8
    profile: str = ""
    amplitudes: tuple = ()
    width: float = 0.0
    # sweep
    eps_list: tuple = ()
    t_final: float = 0.0
    dt: float = 0.0
    rate_dt: float = 1e-3
    snapshots: int = 8
    profile_points: int = 64
    profile_dt: float = 0.0
    s: float | None = None
    sigma: float | None = None
    beta: float = 1.0
    expect_inflation: bool = True
    output_dir: str = ""
    closure: PhaseSet | None = None
    work: tuple = ()  # the Work items of _work, each within its budget
    # sobolev-asymptotics
    profile_kind: str = ""
    kappa: tuple = ()
    half_length: float = 0.0
    scaled_points: int = 0

    @property
    def half_box(self) -> float:
        return self.box_pi_multiple * math.pi

    def grid_for(self, eps: float) -> SpectralGrid:
        n = self.points_per_axis
        if n is None:
            n = pow2_at_least(self.points_scale / eps)
        with as_config_error():  # a power of two >= 4 points per axis
            return SpectralGrid(self.dim, self.half_box, n)

    def cell_grid_for(self, eps: float, cells: bool = True) -> tuple:
        """(grid, m): grid_for(eps) after its admissibility and resolution
        gates, or (when cells) one period cell of it, m cells per axis.

        Uniform data on integer seeds has period 2 pi eps / g per axis, g the
        gcd of the seed components, and so does every closure mode; the
        split-step flow keeps it (Fourier multipliers, pointwise nonlinearity).
        The box holds M = box_pi_multiple g / eps whole periods, the gcd of
        the modes' lattice shifts; m is the largest power of two dividing M,
        so it divides n.  The cell grid SpectralGrid(dim, L/m, n/m) sees the
        full grid's DFT at every m-th frequency, with the same Nyquist
        frequency, so evolving on it is exact.  L^2 and H^s norms on the cell
        are the full grid's divided by m^(d/2); means are the same.  Gaussian
        data gives m = 1 and grid_for(eps).  Uniform converge does not use
        this: assemble_approximation needs the profile grid's box.
        """
        grid = self.grid_for(eps)
        shifts = require_admissible(grid, self.closure.vectors, eps)
        require_resolved(grid, self.closure.vectors, eps)
        periods = 1
        if cells and self.profile == "uniform":  # all modes zero: no period
            periods = math.gcd(*chain.from_iterable(shifts)) or 1
        m = periods & -periods
        return SpectralGrid(self.dim, grid.half_length / m,
                            grid.points_per_axis // m), m

    def eps_work(self, eps: float, cells: bool) -> tuple:
        """The Work of a split-step run at eps: its grid (one period cell
        when cells, else the whole box) and its point-steps up to T."""
        grid, m = self.cell_grid_for(eps, cells)
        key = "grid.points_scale" if self.points_per_axis is None \
            else "grid.points_per_axis"
        steps = _steps(self.t_final, self.dt)[0]
        return (_grid_work(grid, f"{key} at eps = {eps}", m),
                Work(f"T = {self.t_final} over dt = {self.dt} gives {steps:.4g} "
                     f"steps of {grid.size} points at eps = {eps}",
                     steps * grid.size, _POINT_STEP_BUDGET))

    @property
    def profile_grid(self) -> SpectralGrid:
        with as_config_error():  # a power of two >= 4 points per axis
            return SpectralGrid(self.dim, self.half_box, self.profile_points)

    def profile_work(self) -> tuple:
        """The Work of one profile evolution up to T: the class sums one
        transport rhs holds and its point-steps.  The plan's class sums are
        among the prefix index's level keys, so their count bounds what one
        rhs forms and holds on the profile grid."""
        grid = self.profile_grid
        sums = sum(len(codes) for codes in self.closure.prefix_index.levels)
        steps = _steps(self.t_final, self.profile_dt)[0]
        return (Work(f"phases.box_radius = {self.box_radius} and profile_points "
                     f"= {self.profile_points} give up to {sums} class sums of "
                     f"{grid.size} points in one transport rhs",
                     sums * grid.size, _POINT_BUDGET),
                Work(f"T = {self.t_final} over profile_dt = {self.profile_dt} "
                     f"gives {steps:.4g} RK4 steps of {len(self.closure)} modes "
                     f"on {grid.size} points",
                     steps * len(self.closure) * grid.size, _POINT_STEP_BUDGET))

    @property
    def runs(self) -> list:
        """(grid, m) of each eps in order, read off the work list: the grid
        its run allocates and its m period cells per axis."""
        return [(item.grid, item.cells) for item in self.work if item.cells]

    def phase_set(self) -> PhaseSet:
        """The closure of phi0, computed once by parse_config."""
        return self.closure

    def model_for(self, eps: float) -> ModelParams:
        return ModelParams(eps, self.j_exponent, self.lam, self.mu, self.nu,
                           self.signature, self.kernel)

    def transport_params(self, weight: float = 1.0) -> TransportParams:
        return TransportParams(self.lam, self.mu, self.nu, self.kernel, weight)

    def seed_amplitudes(self, grid: SpectralGrid):
        """Seed profiles sampled directly on the given grid, an iterator that
        makes each as it is read."""
        if self.profile == "uniform":
            return (GridFunction.constant(grid, amp) for amp in self.amplitudes)
        r2 = grid.separable([grid.axis() ** 2] * grid.dim)
        envelope = np.exp(-r2 / (2.0 * self.width * self.width))
        return (GridFunction(grid, amp * envelope) for amp in self.amplitudes)

    def seed_profiles(self, eps: float) -> ProfileSet:
        """Seed data on the profile grid (profile_points per axis), generated
        modes at zero, coupling weight eps^(J-1)."""
        grid = self.profile_grid
        weight = eps ** (self.j_exponent - 1.0)
        return ProfileSet.from_seed(self.phase_set(), grid,
                                    self.seed_amplitudes(grid),
                                    self.transport_params(weight))

    @property
    def samples(self) -> int:
        """Intervals of [0, T] a run samples, 200 or more in a tau scan."""
        return max(self.snapshots, 200 if self.experiment == "inflate" else 0)

    def snapshot_times(self, count: int | None = None) -> list:
        """count + 1 equally spaced times on [0, T] (count defaults to snapshots)."""
        count = self.snapshots if count is None else count
        return [self.t_final * k / count for k in range(count + 1)]


# Budgets of the counts a config implies (_work), each about four times the
# largest such count of the shipped configs, the tests and the benchmark
# configs; a larger count is a config error at parse time, not an allocation
# or an endless run.  Points in one grid, or in the class sums of one
# transport rhs: 4 x criterion 10's 4096^2 box, a 1 GiB complex field; one
# split-step call on such a grid peaks near 5.3 GiB (5.3 fields, with E's
# table built in the call).
_POINT_BUDGET = 2 ** 26
# Points x steps of one split-step run, and modes x points x RK4 steps of one
# profile evolution: 4.1 x criterion 6 at eps = 1/32, 1024^2 x 250 = 2.6e8.
_POINT_STEP_BUDGET = 2 ** 30
# Sampled times of one run: 5.1 x the tau scan's max(snapshots, 200) + 1.
_SAMPLE_BUDGET = 2 ** 10


# A count a config implies, its budget, and text that names the keys setting
# it and says what it counts; an eps's run grid keeps the grid and its m > 0
# period cells per axis.
Work = namedtuple("Work", "text count budget grid cells", defaults=(None, 0))


def _grid_work(grid: SpectralGrid, key: str, cells: int = 0) -> Work:
    return Work(f"{key} gives {grid.points_per_axis}^{grid.dim} = {grid.size} "
                "grid points", grid.size, _POINT_BUDGET, grid, cells)


def _work(cfg: ExperimentConfig) -> tuple:
    """Every count a run of a field config implies: each eps's eps_work (a
    period cell for more-weakly and inflate), the profile grid, profile_work
    where the run evolves profiles on that grid, and the sampled times.
    more-weakly evolves none, and uniform inflate's tau scan one value per
    mode (transport.constant_profile_history)."""
    grid = cfg.profile_grid  # a bad profile_points before the eps gates
    cells = cfg.experiment in _CELL_EXPERIMENTS
    on_grid = cfg.experiment in _PROFILE_EXPERIMENTS \
        and (cfg.experiment, cfg.profile) != ("inflate", "uniform")
    samples = 1 + cfg.samples
    return (*chain.from_iterable(cfg.eps_work(e, cells) for e in cfg.eps_list),
            _grid_work(grid, "profile_points"),
            *(cfg.profile_work() if on_grid else ()),
            Work(f"snapshots = {cfg.snapshots:.4g} gives {samples:.4g} sampled "
                 "times", samples, _SAMPLE_BUDGET))


def require_within_budget(work) -> None:
    """ConfigError for the first item of work whose count is over its budget."""
    for item in work:
        if item.count > item.budget:
            raise ConfigError(f"{item.text}, above the budget of {item.budget}")


def parse_config(raw: dict) -> ExperimentConfig:
    """Read raw against its family's schema table, check the rules that tie
    several keys together, then every count of _work against its budget."""
    sobolev = isinstance(raw, dict) and "experiment" in raw \
        and raw["experiment"] == "sobolev-asymptotics"
    table, validate = (_SOBOLEV_SCHEMA, _validate_sobolev) if sobolev \
        else (_FIELD_SCHEMA, _validate_field)
    cfg = validate(ExperimentConfig(raw=raw, **_read(raw, table, "config")))
    require_within_budget(cfg.work)
    return cfg


def _validate_field(cfg: ExperimentConfig) -> ExperimentConfig:
    """cfg with kernel, closure and profile_dt set; checks the cross-key rules."""
    if (cfg.points_scale is None) == (cfg.points_per_axis is None):
        raise ConfigError(
            "grid needs exactly one of 'points_scale' / 'points_per_axis'")
    if cfg.points_scale is not None \
            and not 0 < cfg.points_scale / cfg.eps_list[-1] < math.inf:
        raise ConfigError(
            "need 0 < grid.points_scale / eps < inf at every eps, got "
            f"{cfg.points_scale} / {cfg.eps_list[-1]}")
    if cfg.signature.dim != cfg.dim:
        raise ConfigError("signature length must equal grid dim")
    with as_config_error():
        cfg = replace(
            cfg, kernel=_kernels.parse_kernel(cfg.kernel, cfg.dim),
            closure=close_phase_set(cfg.phi0, cfg.signature, cfg.nu,
                                    cfg.max_generations, cfg.box_radius),
            profile_dt=cfg.dt if cfg.profile_dt is None else cfg.profile_dt)
    if cfg.t_final < 0 or cfg.dt <= 0 or cfg.profile_dt <= 0 or cfg.rate_dt <= 0:
        raise ConfigError("need T >= 0, dt > 0, profile_dt > 0 and rate_dt > 0")
    if not cfg.t_final / min(cfg.dt, cfg.profile_dt) < math.inf:
        raise ConfigError(
            f"T = {cfg.t_final} over dt = {cfg.dt} or profile_dt = "
            f"{cfg.profile_dt} is not a finite number of steps")
    if cfg.j_exponent < 1:
        raise ConfigError(f"need model.j_exponent >= 1, got {cfg.j_exponent}")
    if cfg.profile == "gaussian" and not cfg.width > 0:
        raise ConfigError(f"gaussian data needs data.width > 0, got {cfg.width}")
    if cfg.snapshots < 1:
        raise ConfigError(f"need snapshots >= 1, got {cfg.snapshots}")
    phase_set = cfg.phase_set()
    if len(cfg.amplitudes) != phase_set.origin_count:
        raise ConfigError(
            f"{phase_set.origin_count} seed modes need as many amplitudes, "
            f"got {len(cfg.amplitudes)}")
    if not any(cfg.amplitudes):
        raise ConfigError("data.amplitudes must not all be zero")
    cfg = replace(cfg, work=_work(cfg))  # exits 3 and 4 before the checks below

    if cfg.experiment == "more-weakly":
        if cfg.s is None:
            raise ConfigError("more-weakly needs 's'")
        if not (cfg.s < 1.0 - cfg.j_exponent < 0.0):
            raise ConfigError(
                f"need s < 1 - J < 0, got s={cfg.s}, J={cfg.j_exponent}")
        if not cfg.j_exponent < 2.0:
            raise ConfigError(f"need J < 2, got J={cfg.j_exponent}")
    if cfg.experiment == "inflate":
        if cfg.s is None or cfg.sigma is None:
            raise ConfigError("inflate needs 's' and 'sigma'")
        _validate_inflation_exponents(cfg)
    if cfg.experiment == "zero-mode":
        origin = (0,) * cfg.dim
        if len(cfg.phi0) != 3 or origin in cfg.phi0 \
                or not is_resonant(cfg.signature, 1, cfg.phi0, origin):
            raise ConfigError(
                "zero-mode needs three nonzero seeds resonant onto 0 under "
                f"signature {cfg.raw['model']['signature']!r}: the rectangle "
                "kappa_2 = kappa_1 + kappa_3, Q(kappa_2) = Q(kappa_1) + Q(kappa_3)")
        if origin not in phase_set.vectors:
            raise ConfigError("zero-mode needs phases.max_generations >= 1")
    return cfg


def _validate_inflation_exponents(cfg: ExperimentConfig) -> None:
    s_abs = abs(cfg.s)
    nu, beta, j = cfg.nu, cfg.beta, cfg.j_exponent
    d = cfg.dim
    s_crit = d / 2.0 - 1.0 / nu
    if not 0.0 < beta <= 1.0:
        raise ConfigError(f"need beta in (0, 1], got {beta}")
    if not 1.0 <= j < 2.0:
        raise ConfigError(f"need J in [1, 2), got {j}")
    if j == 1.0:
        if cfg.s >= -1.0 / (2 * nu):
            raise ConfigError(
                f"inflation with J=1 needs s < -1/(2 nu) = {-1.0 / (2 * nu)}, "
                f"got s={cfg.s}")
        if beta <= (d / 2.0 - s_abs) / (s_crit + s_abs):
            raise ConfigError(
                f"need beta > (d/2-|s|)/(s_c+|s|) = "
                f"{(d / 2.0 - s_abs) / (s_crit + s_abs):.6g}, got {beta}")
    else:
        if cfg.s >= -1.0 / (1 + 2 * nu):
            raise ConfigError(
                f"inflation with J>1 needs s < -1/(1+2 nu) = "
                f"{-1.0 / (1 + 2 * nu)}, got s={cfg.s}")
        if beta <= (d / 2.0 - s_abs - (j - 1.0) / nu) / (s_crit + s_abs):
            raise ConfigError("beta too small for the J>1 inflation path")
        if beta * s_crit >= d / 2.0 - (j - 1.0) * (2.0 + 1.0 / nu):
            raise ConfigError("beta s_c must stay below d/2 - (J-1)(2+1/nu)")


def _validate_sobolev(cfg: ExperimentConfig) -> ExperimentConfig:
    if cfg.dim < 1:
        raise ConfigError(f"need dim >= 1, got {cfg.dim}")
    if cfg.profile_kind in ("wkb", "coherent"):
        if cfg.s is None:
            raise ConfigError(f"{cfg.profile_kind} profile needs 's'")
        if cfg.s == -cfg.dim / 2.0 or cfg.s >= 0:
            raise ConfigError(
                "s must be negative and away from the -d/2 boundary")
    else:
        if cfg.sigma is None:
            raise ConfigError("scaled profile needs 'sigma'")
        if not cfg.kappa:
            raise ConfigError("scaled profile needs 'kappa'")
        if "dim" in cfg.raw and cfg.dim != len(cfg.kappa):
            raise ConfigError(
                f"scaled profile runs in len(kappa) = {len(cfg.kappa)} "
                f"dimensions, but dim is {cfg.dim}")
        if not (cfg.beta > 0 and cfg.width > 0):
            raise ConfigError("scaled profile needs beta > 0 and width > 0")
        with as_config_error():  # half_length > 0, scaled_points 0 or 2^k >= 4
            SpectralGrid(len(cfg.kappa), cfg.half_length, cfg.scaled_points or 4)
    return replace(cfg, work=tuple(
        _grid_work(scaled_grid(_scaled_spec(cfg, eps)),
                   f"scaled_points at eps = {eps}")
        for eps in cfg.eps_list if cfg.profile_kind == "scaled"))


def _scaled_spec(cfg: ExperimentConfig, eps: float) -> ScaledProfileSpec:
    """The scaled family's Gaussian profile at eps."""
    w = cfg.width

    def profile(points):
        r2 = np.sum(points ** 2, axis=-1)
        return np.exp(-r2 / (2.0 * w * w))
    return ScaledProfileSpec(profile, cfg.kappa, cfg.beta, eps,
                             half_length=cfg.half_length,
                             points_per_axis=cfg.scaled_points)


def load_config(path) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except ValueError as exc:  # not JSON, or not UTF-8
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    return parse_config(raw)


# -- results -------------------------------------------------------------------


@dataclass(frozen=True)
class SweepResult:
    """Rows (one per eps, descending), fitted slopes, assertion outcomes."""

    experiment: str
    rows: tuple
    fitted_slopes: dict
    assertions: tuple
    metadata: dict
    series: dict

    @property
    def passed(self) -> bool:
        return all(ok for _, ok, _ in self.assertions)


def fit_power_law(eps_values, values) -> float:
    """Least-squares slope of log(value) against log(eps)."""
    x = np.log(np.asarray(eps_values, dtype=float))
    y = np.asarray(values, dtype=float)
    if np.any(y <= 0):
        raise ValueError("power-law fit needs positive values")
    y = np.log(y)
    xc = x - x.mean()
    return float(np.dot(xc, y - y.mean()) / np.dot(xc, xc))


@lru_cache(maxsize=None)
def _git_hash() -> str:
    """HEAD of the checkout holding the package, looked up once per process."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=os.path.dirname(os.path.abspath(__file__)),
            capture_output=True, text=True, timeout=10, check=False)
        if out.returncode == 0:
            return out.stdout.strip()
    except OSError:
        pass
    return "unknown"


def _require_experiment(cfg: ExperimentConfig, name: str,
                        fits_slope: bool = True) -> None:
    """The checks of the runner for name, before any work: a config for name,
    with at least two eps values when the sweep fits a power law in eps."""
    if cfg.experiment != name:
        raise ConfigError(f"config is for {cfg.experiment!r}, not {name!r}")
    if fits_slope and len(cfg.eps_list) < 2:
        raise ConfigError(
            f"{cfg.experiment} fits a slope in eps and needs at least two "
            f"eps values, got {len(cfg.eps_list)}")


def _sweep(cfg: ExperimentConfig, one, assess, slopes=(), series: str = "",
           meta=None, extra_series=None) -> SweepResult:
    """Run one(eps) over cfg.eps_list in config order and return the result.

    one(eps) gives the metrics of eps, or (metrics, rows) when series names
    the series that concatenates the rows of every eps.  A key of slopes is
    fitted when two eps values or more all give it a positive value.
    assess(metrics, fitted slopes) gives the assertions; a missing fit
    should fail its assertion.  "all values finite" follows them and fails
    on the first nan or inf of the metrics or any series, which the CSVs
    still write.  meta and extra_series are added as given.
    """
    outcomes = [one(eps) for eps in cfg.eps_list]
    all_series = dict(extra_series or {})
    if series:
        outcomes, per_eps = zip(*outcomes)
        all_series[series] = [row for rows in per_eps for row in rows]
    fitted = {}
    for key in slopes:
        values = [m[key] for m in outcomes]
        if len(values) >= 2 and all(v > 0 for v in values):
            fitted[key] = fit_power_law(cfg.eps_list, values)

    metadata = {"config": cfg.raw, "git_hash": _git_hash(),
                "package_version": __version__, **(meta or {})}
    ps = cfg.closure
    if ps is not None:
        metadata["phase_set"] = {
            "count": len(ps), "generations": ps.generations,
            "truncated_by_box": ps.truncated_by_box,
            "truncated_by_generations": ps.truncated_by_generations}
        if cfg.experiment in _PROFILE_EXPERIMENTS:
            metadata["phase_set"].update(plan_facts(ps, cfg.transport_params()))
    if cfg.experiment in _CELL_EXPERIMENTS:
        metadata["cells_per_axis"] = [m for _, m in cfg.runs]
    rows = tuple(zip(cfg.eps_list, outcomes))
    # last, so that each runner's own assertions keep their places
    where = _first_non_finite([*all_series.values(),
                               [dict(m, eps=eps) for eps, m in rows]])
    finite = ("all values finite", not where,
              f"first non-finite: {where}" if where else "no nan or inf")
    return SweepResult(cfg.experiment, rows, fitted,
                       (*assess(outcomes, fitted), finite), metadata,
                       all_series)


def _first_non_finite(tables) -> str:
    """'column at eps = ..., t = ...' for the first nan or inf in the rows
    of tables (every row has an eps or a t, or both), else ''."""
    for row in chain.from_iterable(tables):
        for key, value in row.items():
            if not math.isfinite(value):
                at = ", ".join(f"{k} = {row[k]!r}"
                               for k in ("eps", "t") if k in row)
                return f"{key} at {at}"
    return ""


# -- shared profile-evolution helpers -------------------------------------------


def _profile_snapshots(state: ProfileSet, times, dt: float):
    """Yield the profile states at the given (nondecreasing) times."""
    for t in times:
        state = evolve_profiles(state, t, dt)
        yield state


def _zero_mode_history(cfg: ExperimentConfig, state: ProfileSet, samples: int):
    """(times, ||a_0(t)||_L2, total mass) sampled uniformly on [0, T]."""
    ps = state.phase_set
    j0 = ps.index((0,) * ps.dim)
    times = cfg.snapshot_times(samples)
    norms, masses = [], []
    for snap in _profile_snapshots(state, times, cfg.profile_dt):
        norms.append(snap.amplitudes[j0].l2_norm())
        masses.append(snap.total_mass())
    return times, norms, masses


def _tau_scan(cfg: ExperimentConfig):
    """(times, ||a_0(t)||_L2) of the weight-1 (eps = 1) profile system,
    sampled at max(snapshots, 200) uniform intervals of [0, T].

    Uniform seed profiles stay constant, so their system runs as an ODE for
    one value per mode (transport.constant_profile_history), exactly; the
    L^2 norm of a constant c on the box is |c| (2L)^(d/2).  Gaussian data
    runs on the profile grid.
    """
    samples = cfg.samples
    if cfg.profile != "uniform":
        times, norms, _ = _zero_mode_history(cfg, cfg.seed_profiles(1.0), samples)
        return times, norms
    ps = cfg.phase_set()
    j0 = ps.index((0,) * ps.dim)
    values = list(cfg.amplitudes) + [0j] * (len(ps) - ps.origin_count)
    times = cfg.snapshot_times(samples)
    volume_root = (2.0 * cfg.half_box) ** (cfg.dim / 2.0)
    history = constant_profile_history(ps, cfg.transport_params(1.0), values,
                                       times, cfg.profile_dt)
    return times, [float(abs(v[j0])) * volume_root for v in history]


def _first_local_max(times, values) -> float:
    """Time of the first interior local max before the first non-finite value,
    else of the largest value before it, else the first time: tau never
    lands on a blow-up."""
    finite = np.isfinite(values)
    values = values[:len(values) if finite.all() else int(np.argmin(finite))]
    for k in range(1, len(values) - 1):
        if values[k] >= values[k - 1] and values[k] > values[k + 1]:
            return times[k]
    return times[int(np.argmax(values))] if len(values) else times[0]


def _cell_runs(cfg: ExperimentConfig, t_end: float):
    """Yield (u(0), u(t_end), m) for each eps of cfg.eps_list in order, on
    its period cell cfg.runs gives, with m cells per axis.

    Consecutive eps whose cells have one shape build u(0) first and evolve
    as one stack (solver.evolve_fields), bit-identical to one at a time,
    while the stack's points stay within _POINT_BUDGET; one stack's fields
    are held at a time.  The sweeps' one(eps) takes the next item.
    """
    cells = cfg.runs
    groups = []
    for k, (grid, _) in enumerate(cells):
        if groups and cells[groups[-1][0]][0].shape == grid.shape \
                and (len(groups[-1]) + 1) * grid.size <= _POINT_BUDGET:
            groups[-1].append(k)
        else:
            groups.append([k])
    for group in groups:
        starts = [oscillatory_initial_data(cells[k][0], cfg.phase_set(),
                                           cfg.seed_amplitudes(cells[k][0]),
                                           cfg.model_for(cfg.eps_list[k]))
                  for k in group]
        ends = evolve_fields(starts, t_end, cfg.dt)
        for k, u0, u in zip(group, starts, ends):
            yield u0, u, cells[k][1]


# -- experiment runners ----------------------------------------------------------


def error_series(cfg: ExperimentConfig, eps: float, snapshots=None) -> list:
    """The converge worker at one eps: one row per snapshot time.

    Solves the reference problem, assembles the approximation from the
    profile states at cfg.snapshot_times() and records the approximation
    errors.  By default those states are evolved here, one at a time.
    """
    times = cfg.snapshot_times()
    if snapshots is None:
        state = cfg.seed_profiles(eps)
        snapshots = _profile_snapshots(state, times, cfg.profile_dt)
    grid = cfg.grid_for(eps)
    params = cfg.model_for(eps)
    u = oscillatory_initial_data(grid, cfg.phase_set(),
                                 cfg.seed_amplitudes(grid), params)
    rows = []
    for t, snap in zip(times, snapshots):
        u = evolve_semiclassical(u, t, cfg.dt)
        u_app = assemble_approximation(snap, params, grid)
        l2, sup, wiener = approximation_error(u, u_app)
        del u_app  # not held while the next interval evolves
        rows.append({"eps": eps, "t": t, "mass": u.mass(), "l2_err": l2,
                     "sup_err": sup, "wiener_err": wiener})
    return rows


def run_convergence(cfg: ExperimentConfig) -> SweepResult:
    _require_experiment(cfg, "converge", cfg.t_final > 0 and cfg.lam == 0.0)
    shared_snaps = None
    if cfg.j_exponent == 1.0:
        shared_snaps = list(_profile_snapshots(
            cfg.seed_profiles(1.0), cfg.snapshot_times(), cfg.profile_dt))
    error_keys = ("l2_err", "sup_err", "wiener_err")

    def one(eps: float):
        series_rows = error_series(cfg, eps, shared_snaps)
        # np.max, not max: a NaN after a finite first row must not be dropped
        metrics = {key: float(np.max([r[key] for r in series_rows]))
                   for key in error_keys}
        mass0 = series_rows[0]["mass"]
        metrics["mass_drift"] = abs(series_rows[-1]["mass"] - mass0) / mass0
        return metrics, series_rows

    def assess(metrics, slopes):
        l2s = [m["l2_err"] for m in metrics]
        if cfg.t_final == 0:
            flat = float(np.max(l2s))
            return [("zero-time errors vanish", flat == 0.0,
                     f"max l2 error {flat}")]
        if cfg.lam == 0.0:
            sl = slopes.get("l2_err", math.nan)
            return [("l2 error slope >= 0.9", sl >= 0.9,
                     f"fitted slope {sl:.4f}")]
        mono = all(b < a for a, b in zip(l2s, l2s[1:]))
        return [("errors strictly decreasing in eps", mono,
                 f"l2 errors {['%.6g' % v for v in l2s]}")]

    return _sweep(cfg, one, assess, slopes=error_keys, series="timeseries",
                  meta={"snapshot_times": cfg.snapshot_times()})


def run_zero_mode(cfg: ExperimentConfig) -> SweepResult:
    _require_experiment(cfg, "zero-mode", fits_slope=False)
    phase_set = cfg.phase_set()
    alphas = cfg.seed_profiles(1.0).amplitudes[:phase_set.origin_count]
    sup = max(a.sup_norm() for a in alphas)
    scale = sup ** 2 * max(a.l2_norm() for a in alphas)

    def one(eps: float):
        state0 = cfg.seed_profiles(eps)
        j0 = phase_set.index((0,) * cfg.dim)

        # finite-difference rate at t = 0, refined once to kill the O(h) term
        h = cfg.rate_dt
        a_h = evolve_profiles(state0, h, h / 8.0).amplitudes[j0].values
        a_h2 = evolve_profiles(state0, h / 2.0, h / 8.0).amplitudes[j0].values
        fd_rate = (4.0 * a_h2 - a_h) / h
        predicted = zero_mode_rate(cfg.phi0, alphas, state0.params, cfg.signature)
        pred_sup = float(np.max(np.abs(predicted.values)))
        diff_sup = float(np.max(np.abs(fd_rate - predicted.values)))
        rate_err = diff_sup / pred_sup if pred_sup > 0 else diff_sup

        times, norms, masses = _zero_mode_history(cfg, state0, cfg.snapshots)
        rows = [{"eps": eps, "t": t, "a0_l2": a, "mass": m}
                for t, a, m in zip(times, norms, masses)]
        metrics = {"rate_rel_err": rate_err, "rate_pred_sup": pred_sup,
                   "a0_max": float(np.max(norms)), "a0_final": norms[-1]}
        return metrics, rows

    def assess(metrics, slopes):
        # the couplings cancel: the predicted rate is only rounding
        if all(m["rate_pred_sup"] <= 1e-12 * eps ** (cfg.j_exponent - 1.0)
               * sup ** (2 * cfg.nu + 1) for eps, m in zip(cfg.eps_list, metrics)):
            worst = float(np.max([m["a0_max"] for m in metrics]))
            return [("zero mode stays flat (cancelling couplings)",
                     worst <= 1e-6 * scale,
                     f"max ||a0|| {worst:.3e} vs 1e-6 * scale {1e-6 * scale:.3e}")]
        worst = float(np.max([m["rate_rel_err"] for m in metrics]))
        return [("finite-difference rate matches closed form (sup, relative)",
                 worst <= 1e-4, f"worst relative error {worst:.3e}")]

    return _sweep(cfg, one, assess, series="zero_mode")


# more-weakly passes when the final H^s norm at the smallest eps is more than
# this many times the initial one
_RATIO_MIN = 10.0


def run_more_weakly(cfg: ExperimentConfig) -> SweepResult:
    _require_experiment(cfg, "more-weakly")
    runs = _cell_runs(cfg, cfg.t_final)

    def one(eps: float):
        u0, u, m = next(runs)
        rescale = m ** (cfg.dim / 2.0)
        initial = rescale * sobolev_norm(u0.values, cfg.s)
        final = rescale * sobolev_norm(u.values, cfg.s)
        return {"initial_norm": initial, "final_norm": final,
                "ratio": final / initial}

    def assess(metrics, slopes):
        expected_final = cfg.j_exponent - 1.0
        expected_initial = abs(cfg.s)
        final = slopes.get("final_norm", math.nan)
        initial = slopes.get("initial_norm", math.nan)
        last_ratio = metrics[-1]["ratio"]
        return [
            (f"final-norm slope within 0.15 of {expected_final}",
             abs(final - expected_final) <= 0.15, f"fitted {final:.4f}"),
            (f"initial-norm slope within 0.15 of {expected_initial}",
             abs(initial - expected_initial) <= 0.15, f"fitted {initial:.4f}"),
            (f"final/initial ratio at smallest eps exceeds {_RATIO_MIN}",
             last_ratio > _RATIO_MIN, f"ratio {last_ratio:.3f}"),
        ]

    return _sweep(cfg, one, assess, slopes=("initial_norm", "final_norm"))


def run_inflation(cfg: ExperimentConfig) -> SweepResult:
    _require_experiment(cfg, "inflate")

    # tau: first local max of ||a_0(t)|| in the weight-1 (eps = 1) profile system
    times, norms = _tau_scan(cfg)
    tau = _first_local_max(times, norms)
    tau_series = [{"t": t, "a0_l2": a} for t, a in zip(times, norms)]

    exponent = (cfg.beta + 1.0 - cfg.j_exponent) / (2.0 * cfg.nu)
    runs = _cell_runs(cfg, tau)

    def one(eps: float):
        u0, u_tau, m = next(runs)
        grid = u0.grid
        pref = eps ** (-exponent) * m ** (cfg.dim / 2.0)
        # the norms in y = x eps^((beta-1)/2); beta = 1 gives the grid itself
        ygrid = SpectralGrid(cfg.dim,
                             grid.half_length * eps ** ((cfg.beta - 1.0) / 2.0),
                             grid.points_per_axis)
        phi = pref * sobolev_norm(GridFunction(ygrid, u0.values.values), cfg.s)
        psi = pref * sobolev_norm(GridFunction(ygrid, u_tau.values.values),
                                  cfg.sigma)
        raw = scipy.fft.fftn(u_tau.values.values, workers=1)
        zero_amp = float(abs(raw[(0,) * cfg.dim])) / grid.size
        return {"phi_norm": phi, "psi_norm": psi, "zero_amp": zero_amp}

    def assess(metrics, slopes):
        phis = [m["phi_norm"] for m in metrics]
        psis = [m["psi_norm"] for m in metrics]
        if not cfg.expect_inflation:
            ratios = [b / a for a, b in zip(psis, psis[1:])]
            return [("no inflation signal (psi norms not growing)",
                     all(r <= 1.1 for r in ratios),
                     f"ratios {['%.3f' % r for r in ratios]}")]
        mono = all(b < a for a, b in zip(phis, phis[1:]))
        # squared-norm bookkeeping: psi^2 must grow >= 1.5x per eps halving
        sq_ratios = [(b / a) ** 2 for a, b in zip(psis, psis[1:])]
        predicted = ((cfg.j_exponent - 1.0) - exponent
                     - cfg.dim * (1.0 - cfg.beta) / 4.0)
        psi_slope = slopes.get("psi_norm", math.nan)
        return [
            ("phi norms strictly decreasing", mono,
             f"{['%.6g' % v for v in phis]}"),
            ("psi squared norms grow >= 1.5x per halving",
             all(r >= 1.5 for r in sq_ratios),
             f"squared ratios {['%.3f' % r for r in sq_ratios]}"),
            (f"psi growth exponent within 0.15 of {predicted}",
             abs(psi_slope - predicted) <= 0.15, f"fitted {psi_slope:.4f}"),
        ]

    return _sweep(cfg, one, assess, slopes=("phi_norm", "psi_norm"),
                  meta={"tau": tau}, extra_series={"tau_scan": tau_series})


def run_sobolev_asymptotics(cfg: ExperimentConfig) -> SweepResult:
    _require_experiment(cfg, "sobolev-asymptotics")
    d = cfg.dim

    if cfg.profile_kind == "wkb":
        def one(eps):
            return {"norm": math.sqrt(gaussian_sobolev_norm(1 + 1j / eps, cfg.s, d))}
        predicted = abs(cfg.s) if cfg.s > -d / 2.0 else d / 2.0
    elif cfg.profile_kind == "coherent":
        def one(eps):
            sq = eps ** (-d / 2.0) * gaussian_sobolev_norm(1.0 / eps, cfg.s, d)
            return {"norm": math.sqrt(sq)}
        predicted = abs(cfg.s) / 2.0 if cfg.s > -d / 2.0 else d / 4.0
    else:
        def one(eps):
            return {"norm": scaled_profile_norm(_scaled_spec(cfg, eps), cfg.sigma)}
        predicted = None

    def assess(metrics, slopes):
        if predicted is None:
            return []
        slope = slopes.get("norm", math.nan)
        return [(f"fitted slope within 0.05 of {predicted}",
                 abs(slope - predicted) <= 0.05, f"fitted {slope:.5f}")]

    return _sweep(cfg, one, assess, slopes=("norm",))


_RUNNERS = {
    "converge": run_convergence,
    "zero-mode": run_zero_mode,
    "more-weakly": run_more_weakly,
    "inflate": run_inflation,
    "sobolev-asymptotics": run_sobolev_asymptotics,
}


def run_experiment(cfg: ExperimentConfig) -> SweepResult:
    return _RUNNERS[cfg.experiment](cfg)


# -- output --------------------------------------------------------------------


def _format_cell(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _csv_text(header, rows) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_format_cell(row[h]) for h in header))
    return "\n".join(lines) + "\n"


def emit_results(result: SweepResult, out_dir) -> dict:
    """Write sweep.csv, per-series CSVs, and metadata.json; returns paths."""
    os.makedirs(out_dir, exist_ok=True)
    paths = {}

    metric_keys = sorted({k for _, m in result.rows for k in m})
    header = ["eps"] + metric_keys
    rows = [dict(m, eps=eps) for eps, m in result.rows]
    sweep_path = os.path.join(out_dir, "sweep.csv")
    _atomic_write(sweep_path, _csv_text(header, rows))
    paths["sweep"] = sweep_path

    for name in sorted(result.series):
        series_rows = result.series[name]
        if not series_rows:
            continue
        keys = list(series_rows[0].keys())
        path = os.path.join(out_dir, f"{name}.csv")
        _atomic_write(path, _csv_text(keys, series_rows))
        paths[name] = path

    meta = dict(result.metadata)
    meta["experiment"] = result.experiment
    meta["fitted_slopes"] = result.fitted_slopes
    meta["assertions"] = [
        {"name": n, "passed": ok, "detail": detail}
        for n, ok, detail in result.assertions]
    meta_path = os.path.join(out_dir, "metadata.json")
    _atomic_write(meta_path, json.dumps(meta, sort_keys=True, indent=2) + "\n")
    paths["metadata"] = meta_path
    return paths
