"""Workload configs and the correctness checks applied to each pass.

Every check here recomputes what it needs from the config alone (a refit,
a closed form, a brute-force enumeration); none compares with stored output
of the program.  A failed check raises :class:`CheckFailed`.
"""

from __future__ import annotations

import csv
import json
import math
import os
import random
import struct
from dataclasses import dataclass

import numpy as np


class CheckFailed(Exception):
    """An output of the program failed a correctness check."""


@dataclass(frozen=True)
class Workload:
    name: str
    command: str          # wnlgo subcommand
    base: object          # root directory -> config before the seed is applied
    checks: tuple         # names of the output checks, in order
    # The seed also scales each amplitude by a factor in [0.95, 1.05],
    # except where the amount of work depends on the magnitudes.
    vary_magnitudes: bool = True

    def config(self, root: str, seed: int) -> dict:
        """The config the program receives: base with seeded amplitudes."""
        cfg = self.base(root)
        rng = random.Random(seed)
        # A common phase is an exact symmetry; relative phases stay within
        # 0.2 rad because wider ones move the eps = 1/4 error of converge-ds
        # out of the O(eps) regime that its slope check fits (bench/README.md).
        common = rng.uniform(0.0, 2.0 * math.pi)
        amps = []
        for a in cfg["data"]["amplitudes"]:
            scale = rng.uniform(0.95, 1.05)
            mag = a * scale if self.vary_magnitudes else a
            phase = common + rng.uniform(-0.2, 0.2)
            amps.append([mag * math.cos(phase), mag * math.sin(phase)])
        cfg["data"]["amplitudes"] = amps
        return cfg

    def setup_points(self, cfg: dict) -> int:
        """Points per axis of the first profile grid the CLI run builds."""
        if self.command == "inflate" and cfg["data"]["profile"] == "uniform":
            return 4  # the tau scan resolves constant profiles on a 4^d grid
        return cfg.get("profile_points", 64)


def _converge_config(root: str) -> dict:
    with open(os.path.join(root, "configs", "converge_ds_elliptic.json"),
              encoding="utf-8") as fh:
        cfg = json.load(fh)
    cfg["eps_list"] = [0.25, 0.125, 0.0625]
    return cfg


def _inflate_config(root: str) -> dict:
    # criterion 11's local cubic case, eps down to 1/16
    return {
        "experiment": "inflate",
        "model": {"lam": 0.0, "mu": 1.0, "nu": 1, "signature": "++",
                  "kernel": "zero"},
        "grid": {"dim": 2, "box_pi_multiple": 1.0, "points_scale": 16},
        "phases": {"phi0": [[1, 0], [1, 1], [0, 1]], "box_radius": 4},
        "data": {"profile": "uniform", "amplitudes": [0.7, 0.7, 0.7]},
        "eps_list": [0.25, 0.125, 0.0625],
        "T": 5.0, "dt": 0.005, "profile_dt": 0.005,
        "s": -0.6, "sigma": -1.0, "beta": 1.0,
    }


def _profiles_config(nu: int, box_radius: int, t_final: float):
    # profiles reads a field-experiment config; only the first eps is used,
    # and eps = 1 with n = 256 resolves carriers up to |kappa|_1 = 32.
    return lambda root: {
        "experiment": "converge",
        "model": {"lam": 1.0, "mu": 0.0, "nu": nu, "signature": "-+",
                  "kernel": "ds"},
        "grid": {"dim": 2, "box_pi_multiple": 1.0, "points_per_axis": 256},
        "phases": {"phi0": [[1, 0], [1, 1], [0, 1]], "box_radius": box_radius},
        "data": {"profile": "gaussian", "amplitudes": [0.4, 0.32, 0.36],
                 "width": 0.42},
        "eps_list": [1.0],
        "T": t_final,
        "dt": 0.01,
        "snapshots": 5,
        "profile_points": 32,
        "profile_dt": 0.01,
    }


WORKLOADS = {w.name: w for w in (
    Workload("converge-ds", "converge", _converge_config,
             ("exit", "mass_drift", "l2_slope")),
    # tau, the end time of every split-step run, moves with the magnitudes
    # (1.525 to 1.75 over seeds 1-6 when they varied); uniform data makes
    # relative phases a symmetry, so tau and the work do not depend on the seed
    Workload("inflate-local", "inflate", _inflate_config,
             ("exit", "psi_exponent"), vary_magnitudes=False),
    Workload("profiles-wide", "profiles", _profiles_config(1, 16, 0.1),
             ("exit", "modes", "seed_profiles", "mass")),
    Workload("profiles-quintic", "profiles", _profiles_config(2, 2, 0.05),
             ("exit", "modes", "seed_profiles", "mass")),
)}


# -- expectations computed from the config alone --------------------------------


def brute_force_closure(phi0, signature: str, nu: int, box_radius: int,
                        max_generations: int) -> list:
    """Phase-set closure by enumerating every (2 nu + 1)-tuple of the set.

    Order: seeds, then each generation's new vectors sorted.  A tuple
    (k_1, ..., k_{2nu+1}) is resonant onto k = k_1 - k_2 + k_3 - ... when
    Q(k) = Q(k_1) - Q(k_2) + ... with Q(k) = sum_m eta_m k_m^2.
    """
    etas = np.array([1 if c == "+" else -1 for c in signature], dtype=np.int64)
    vectors = [tuple(v) for v in phi0]
    known = set(vectors)
    for _ in range(max_generations):
        vecs = np.array(vectors, dtype=np.int64)
        quads = (etas * vecs * vecs).sum(axis=1)
        lin = np.zeros((1, len(etas)), dtype=np.int64)
        quad = np.zeros(1, dtype=np.int64)
        for pos in range(2 * nu + 1):  # every tuple, as a flat array
            sign = 1 if pos % 2 == 0 else -1
            lin = (lin[:, None, :] + sign * vecs[None, :, :]).reshape(-1, len(etas))
            quad = (quad[:, None] + sign * quads[None, :]).reshape(-1)
        keep = ((etas * lin * lin).sum(axis=1) == quad) & \
            (np.abs(lin).max(axis=1) <= box_radius)
        fresh = {tuple(t) for t in lin[keep].tolist()} - known
        if not fresh:
            break
        vectors.extend(sorted(fresh))
        known.update(fresh)
    return vectors


def expectations(workload: Workload, cfg: dict) -> dict:
    """Values the checks compare against, computed once per run."""
    if workload.command != "profiles":
        return {}
    phases, model = cfg["phases"], cfg["model"]
    return {"modes": brute_force_closure(
        phases["phi0"], model["signature"], model["nu"], phases["box_radius"],
        phases.get("max_generations", 8))}


# -- output readers (independent of the package) -----------------------------------

SNAPSHOT_HEADER = struct.Struct("<4sIIId")


def read_wglf(path: str):
    """(dim, n, half_length, complex64 array) from a WGLF snapshot file."""
    with open(path, "rb") as fh:
        data = fh.read()
    magic, _version, dim, n, half = SNAPSHOT_HEADER.unpack_from(data)
    if magic != b"WGLF":
        raise CheckFailed(f"{path}: bad magic {magic!r}")
    payload = np.frombuffer(data, dtype=np.complex64,
                            offset=SNAPSHOT_HEADER.size)
    if payload.size != n ** dim:
        raise CheckFailed(f"{path}: {payload.size} samples for n={n}, d={dim}")
    return dim, n, half, payload.reshape((n,) * dim)


def _read_sweep(out: str, eps_list) -> dict:
    with open(os.path.join(out, "sweep.csv"), newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    eps = [float(r["eps"]) for r in rows]
    if eps != [float(e) for e in eps_list]:
        raise CheckFailed(f"sweep.csv eps column {eps} != config {eps_list}")
    return {key: [float(r[key]) for r in rows] for key in rows[0]}


def _slope(x, y) -> float:
    """Least-squares slope of log y against log x."""
    lx = [math.log(v) for v in x]
    ly = [math.log(v) for v in y]
    mx, my = sum(lx) / len(lx), sum(ly) / len(ly)
    num = sum((a - mx) * (b - my) for a, b in zip(lx, ly))
    return num / sum((a - mx) ** 2 for a in lx)


# -- checks ------------------------------------------------------------------------


def check_exit(rc: int, **_) -> None:
    if rc != 0:
        raise CheckFailed(f"CLI exited {rc}")


def check_mass_drift(out: str, cfg: dict, **_) -> None:
    # the split-step solver is unitary: only rounding changes the mass
    drift = _read_sweep(out, cfg["eps_list"])["mass_drift"]
    if not max(drift) <= 1e-10:
        raise CheckFailed(f"mass drift {max(drift):.3e} > 1e-10")


def check_l2_slope(out: str, cfg: dict, **_) -> None:
    # the ansatz is O(eps) accurate in L^2
    sweep = _read_sweep(out, cfg["eps_list"])
    slope = _slope(sweep["eps"], sweep["l2_err"])
    if not slope >= 0.9:
        raise CheckFailed(f"L2 error slope {slope:.4f} < 0.9")


def check_psi_exponent(out: str, cfg: dict, **_) -> None:
    # (J - 1) - (beta + 1 - J) / (2 nu) - d (1 - beta) / 4
    j = cfg["model"].get("j_exponent", 1.0)
    nu, beta, d = cfg["model"]["nu"], cfg.get("beta", 1.0), cfg["grid"]["dim"]
    predicted = (j - 1.0) - (beta + 1.0 - j) / (2.0 * nu) - d * (1.0 - beta) / 4.0
    sweep = _read_sweep(out, cfg["eps_list"])
    slope = _slope(sweep["eps"], sweep["psi_norm"])
    if not abs(slope - predicted) <= 0.15:
        raise CheckFailed(f"psi exponent {slope:.4f} not within 0.15 of {predicted}")


def _index(out: str) -> dict:
    with open(os.path.join(out, "index.json"), encoding="utf-8") as fh:
        return json.load(fh)


def check_modes(out: str, expected: dict, **_) -> None:
    modes = [tuple(v) for v in _index(out)["modes"]]
    if modes != expected["modes"]:
        raise CheckFailed(f"index.json lists {len(modes)} modes, brute-force "
                          f"closure has {len(expected['modes'])} (or order differs)")


def _snapshots(out: str, cfg: dict) -> list:
    """Per snapshot time, the list of mode arrays (complex128)."""
    index = _index(out)
    count, times = len(index["modes"]), cfg["snapshots"] + 1
    grid = [[None] * count for _ in range(times)]
    for entry in index["files"]:
        k = round(entry["t"] * cfg["snapshots"] / cfg["T"])
        dim, n, half, values = read_wglf(os.path.join(out, entry["file"]))
        if (dim, n) != (cfg["grid"]["dim"], cfg["profile_points"]) or \
                not math.isclose(half, cfg["grid"]["box_pi_multiple"] * math.pi):
            raise CheckFailed(f"{entry['file']}: grid ({dim}, {n}, {half})")
        grid[k][entry["mode"]] = values.astype(np.complex128)
    if any(a is None for row in grid for a in row):
        raise CheckFailed("index.json does not list one file per mode and time")
    return grid


def check_seed_profiles(out: str, cfg: dict, **_) -> None:
    snaps = _snapshots(out, cfg)
    n, half = cfg["profile_points"], cfg["grid"]["box_pi_multiple"] * math.pi
    x = -half + (2.0 * half / n) * np.arange(n)
    r2 = x[:, None] ** 2 + x[None, :] ** 2
    width = cfg["data"]["width"]
    seeds = cfg["data"]["amplitudes"]
    for j, values in enumerate(snaps[0]):
        want = np.zeros((n, n))
        if j < len(seeds):
            want = complex(*seeds[j]) * np.exp(-r2 / (2.0 * width * width))
        # complex64 keeps 24 mantissa bits
        if np.max(np.abs(values - want)) > 2.0 ** -22 * max(1.0, np.max(np.abs(want))):
            raise CheckFailed(f"t=0 profile of mode {j} differs from its seed")


def check_mass(out: str, cfg: dict, **_) -> None:
    # sum_j ||a_j||^2 is conserved by the profile system
    masses = [sum(float(np.vdot(a, a).real) for a in row)
              for row in _snapshots(out, cfg)]
    drift = max(abs(m - masses[0]) for m in masses) / masses[0]
    if drift > 1e-6:
        raise CheckFailed(f"profile mass drifts by {drift:.3e} (> 1e-6)")


CHECKS = {
    "exit": check_exit,
    "mass_drift": check_mass_drift,
    "l2_slope": check_l2_slope,
    "psi_exponent": check_psi_exponent,
    "modes": check_modes,
    "seed_profiles": check_seed_profiles,
    "mass": check_mass,
}


def run_checks(workload: Workload, rc: int, out: str, cfg: dict,
               expected: dict) -> None:
    """Raise CheckFailed at the first check the pass's output fails."""
    for name in workload.checks:
        CHECKS[name](rc=rc, out=out, cfg=cfg, expected=expected)
