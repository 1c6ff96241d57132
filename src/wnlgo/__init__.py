"""Spectral laboratory for multiphase weakly nonlinear geometric optics.

Semiclassical NLS-type models with a local power nonlinearity and an
optional degree-zero Fourier-multiplier perturbation (Davey-Stewartson,
dipolar Gross-Pitaevskii):

    i eps u_t + (eps^2 / 2) Delta_eta u = eps^J (lam E(|u|^{2 nu}) + mu |u|^{2 nu}) u

for multiphase oscillatory data sum_j alpha_j(x) exp(i kappa_j . x / eps).
The package provides the discrete Fourier calculus, the multiplier kernels,
exact integer resonance combinatorics, the coupled transport system for the
profiles, an exact split-step reference solver, the semiclassical Sobolev /
Wiener norm toolbox, and a reproducible experiment harness.
"""

__version__ = "0.1.0"  # first: experiments records it in metadata.json

from .errors import AdmissibilityError, ConfigError, ResolutionError
from .grid import GridFunction, SpectralGrid, read_snapshot, resample, \
    write_snapshot
from .kernels import DIPOLAR_SCALE, KernelSpec, apply, apply_raw, custom, \
    davey_stewartson, dipolar, evaluate, identity, \
    oscillatory_coefficient_limit, parse_kernel, zero
from .norms import ScaledProfileSpec, gaussian_sobolev_norm, \
    scaled_profile_norm, sobolev_norm, wiener_norm
from .resonance import PhaseSet, Signature, as_wave_vector, close_phase_set, \
    is_resonant, resonant_tuples
from .solver import ModelParams, SemiclassicalField, assemble_approximation, \
    approximation_error, evolve_fields, evolve_semiclassical, \
    oscillatory_initial_data, require_admissible, require_resolved
from .transport import ProfileSet, TransportParams, evolve_profiles, \
    transport_rhs, zero_mode_rate
from .experiments import ExperimentConfig, SweepResult, emit_results, \
    fit_power_law, load_config, parse_config, run_convergence, run_experiment, \
    run_inflation, run_more_weakly, run_sobolev_asymptotics, run_zero_mode

__all__ = [
    "AdmissibilityError", "ConfigError", "ResolutionError",
    "GridFunction", "SpectralGrid", "read_snapshot", "resample",
    "write_snapshot",
    "DIPOLAR_SCALE", "KernelSpec", "apply", "apply_raw", "custom",
    "davey_stewartson", "dipolar", "evaluate", "identity",
    "oscillatory_coefficient_limit", "parse_kernel", "zero",
    "ScaledProfileSpec", "gaussian_sobolev_norm", "scaled_profile_norm",
    "sobolev_norm", "wiener_norm",
    "PhaseSet", "Signature", "as_wave_vector", "close_phase_set",
    "is_resonant", "resonant_tuples",
    "ModelParams", "SemiclassicalField", "assemble_approximation",
    "approximation_error", "evolve_fields", "evolve_semiclassical",
    "oscillatory_initial_data", "require_admissible", "require_resolved",
    "ProfileSet", "TransportParams", "evolve_profiles", "transport_rhs",
    "zero_mode_rate",
    "ExperimentConfig", "SweepResult", "emit_results", "fit_power_law",
    "load_config", "parse_config", "run_convergence", "run_experiment",
    "run_inflation", "run_more_weakly", "run_sobolev_asymptotics",
    "run_zero_mode",
    "__version__",
]
