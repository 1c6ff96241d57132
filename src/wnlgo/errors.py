"""Error types shared across the package.

Three distinguishable failure modes, so callers (and the CLI exit codes) can
tell configuration mistakes apart from physically inadmissible parameters:

* AdmissibilityError — a carrier wave vector divided by eps falls off the
  grid-frequency lattice (the field would not be periodic on the box).
* ResolutionError — the grid cannot resolve the requested oscillation.
* ConfigError — malformed or inconsistent experiment configuration.
"""

from contextlib import contextmanager


class AdmissibilityError(ValueError):
    """kappa/eps is not representable on the grid-frequency lattice."""


class ResolutionError(ValueError):
    """Grid too coarse for the requested carrier frequencies."""


class ConfigError(ValueError):
    """Invalid experiment configuration."""


@contextmanager
def as_config_error():
    """Report a ValueError raised while reading user input as a ConfigError."""
    try:
        yield
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
