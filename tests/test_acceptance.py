"""Acceptance checklist: twelve headline checks, one test (and one PASS/FAIL
line) per criterion.

Run with ``pytest -v tests/test_acceptance.py`` (add ``-s`` to see the
printed lines live).  The heavy sweeps share module-scoped fixtures; the
whole file takes about three minutes (174 s measured on a 2-vCPU machine).
"""

import json
import math
import time
from itertools import product

import numpy as np
import pytest

from wnlgo import GridFunction, ScaledProfileSpec, Signature, SpectralGrid, \
    close_phase_set, davey_stewartson, is_resonant, \
    oscillatory_coefficient_limit, scaled_profile_norm, sobolev_norm
from wnlgo.experiments import emit_results, parse_config, run_experiment

from oracles import parallelogram_oracle, rectangle_oracle

ELLIPTIC = Signature.elliptic(2)
HYPERBOLIC = Signature.from_string("-+")
PHI0 = ((1, 0), (1, 1), (0, 1))


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'}  {name}  ({detail})")
    assert ok, f"{name}: {detail}"


def _gaussian_seed_config(**overrides):
    cfg = {
        "experiment": "converge",
        "model": {"lam": 1.0, "mu": 0.0, "nu": 1, "signature": "++",
                  "kernel": "ds"},
        "grid": {"dim": 2, "box_pi_multiple": 1.0, "points_scale": 16},
        "phases": {"phi0": [[1, 0], [1, 1], [0, 1]], "box_radius": 4},
        "data": {"profile": "gaussian", "amplitudes": [0.4, 0.32, 0.36],
                 "width": 0.42},
        "eps_list": [0.25, 0.125, 0.0625, 0.03125],
        "T": 0.5,
        "dt": 0.002,
        "snapshots": 5,
        "profile_points": 64,
        "profile_dt": 0.002,
    }
    cfg.update(overrides)
    return cfg


def test_criterion_01_resonance_exactness():
    t0 = time.time()
    ps = close_phase_set(PHI0, ELLIPTIC, 1, box_radius=4)
    closure_ok = ps.vectors == ((1, 0), (1, 1), (0, 1), (0, 0))
    kappas = ((2, 1), (3, 3), (1, 2))
    signature_ok = is_resonant(HYPERBOLIC, 1, kappas, (0, 0)) \
        and not is_resonant(ELLIPTIC, 1, kappas, (0, 0))
    elapsed = time.time() - t0
    _report("criterion 1: resonance exactness",
            closure_ok and signature_ok and elapsed < 1.0,
            f"closure {ps.vectors}, signature split ok={signature_ok}, "
            f"{elapsed:.3f}s")


def test_criterion_02_oracle_equivalence():
    t0 = time.time()
    mismatches = 0
    checked = 0

    def check(k1, k2, k3, target):
        nonlocal mismatches, checked
        checked += 1
        if rectangle_oracle((k1, k2, k3), target) != \
                is_resonant(ELLIPTIC, 1, (k1, k2, k3), target):
            mismatches += 1
        if parallelogram_oracle((k1, k2, k3), target) != \
                is_resonant(HYPERBOLIC, 1, (k1, k2, k3), target):
            mismatches += 1

    vals = range(-3, 4)
    lattice = list(product(vals, vals))
    for k1 in lattice:
        for k2 in lattice:
            for k3 in lattice:
                target = (k1[0] - k2[0] + k3[0], k1[1] - k2[1] + k3[1])
                check(k1, k2, k3, target)

    rng = np.random.default_rng(2024)
    draws = rng.integers(-6, 7, size=(10_000, 4, 2))
    for k1, k2, k3, shift in draws:
        k1, k2, k3 = tuple(k1), tuple(k2), tuple(k3)
        target = (k1[0] - k2[0] + k3[0], k1[1] - k2[1] + k3[1])
        check(k1, k2, k3, target)
        # off-lattice target exercises the linear-mismatch branch
        check(k1, k2, k3, (target[0] + int(shift[0]), target[1] + int(shift[1])))

    elapsed = time.time() - t0
    _report("criterion 2: oracle equivalence",
            mismatches == 0 and elapsed < 30.0,
            f"{checked} triples checked, {mismatches} mismatches, "
            f"{elapsed:.1f}s")


@pytest.fixture(scope="module")
def zero_mode_runs():
    base = {
        "experiment": "zero-mode",
        "model": {"lam": 1.0, "mu": 0.0, "nu": 1, "signature": "++",
                  "kernel": "ds"},
        "grid": {"dim": 2, "box_pi_multiple": 1.0, "points_per_axis": 64},
        "phases": {"phi0": [[1, 0], [1, 1], [0, 1]], "box_radius": 4},
        "data": {"profile": "gaussian", "amplitudes": [0.7, 0.56, 0.63],
                 "width": 0.42},
        "eps_list": [1.0],
        "T": 0.5,
        "dt": 0.002,
        "rate_dt": 1e-3,
        "profile_points": 256,
        "profile_dt": 0.002,
    }
    t0 = time.time()
    driven = run_experiment(parse_config(base))
    flat_cfg = dict(base, model=dict(base["model"], mu=-0.5))
    flat = run_experiment(parse_config(flat_cfg))
    return driven, flat, time.time() - t0


def test_criterion_03_zero_mode_rate(zero_mode_runs):
    driven, flat, elapsed = zero_mode_runs
    (_, metrics), = driven.rows
    details = "; ".join(d for _, _, d in driven.assertions + flat.assertions)
    _report("criterion 3: zero-mode creation rate",
            driven.passed and flat.passed and elapsed < 120.0,
            f"rate rel err {metrics['rate_rel_err']:.3e}; {details}; "
            f"{elapsed:.1f}s")


def test_criterion_04_mass_conservation(zero_mode_runs):
    driven, _, _ = zero_mode_runs
    masses = [row["mass"] for row in driven.series["zero_mode"]]
    drift = max(abs(m - masses[0]) for m in masses) / masses[0]
    _report("criterion 4: profile mass conservation",
            drift <= 1e-8,
            f"relative drift {drift:.3e} over [0, 0.5]")


def test_criterion_05_approximation_local_nonlinearity():
    t0 = time.time()
    cfg = _gaussian_seed_config()
    cfg["model"] = {"lam": 0.0, "mu": 1.0, "nu": 1, "signature": "++",
                    "kernel": "zero"}
    result = run_experiment(parse_config(cfg))
    slope = result.fitted_slopes["l2_err"]
    elapsed = time.time() - t0
    _report("criterion 5: approximation error slope (local nonlinearity)",
            result.passed and 0.9 <= slope <= 1.3,
            f"l2 slope {slope:.4f} in [0.9, 1.3], {elapsed:.1f}s")


def test_criterion_06_approximation_nonlocal_both_signatures():
    t0 = time.time()
    elliptic = run_experiment(parse_config(_gaussian_seed_config()))
    hyper_cfg = _gaussian_seed_config(profile_points=128)
    hyper_cfg["model"]["signature"] = "-+"
    hyper_cfg["grid"]["points_scale"] = 24
    hyper_cfg["phases"]["box_radius"] = 2
    hyperbolic = run_experiment(parse_config(hyper_cfg))
    elapsed = time.time() - t0
    detail = "; ".join(d for r in (elliptic, hyperbolic)
                       for _, _, d in r.assertions)
    _report("criterion 6: non-local approximation errors decrease",
            elliptic.passed and hyperbolic.passed,
            f"{detail}; {elapsed:.1f}s")


def test_criterion_07_nonlocal_localization():
    t0 = time.time()
    grid = SpectralGrid(2, np.pi, 1024)
    r2 = sum(c ** 2 for c in grid.mesh())
    envelope = GridFunction(grid, np.exp(-r2 / (2.0 * 0.42 ** 2)) + 0j)
    eps_list = [2.0 ** -k for k in range(2, 7)]
    gaps = oscillatory_coefficient_limit(davey_stewartson(), (1, 0),
                                         envelope, eps_list)
    decreasing = all(b < a for a, b in zip(gaps, gaps[1:]))
    ratio = gaps[-1] / gaps[0]
    elapsed = time.time() - t0
    _report("criterion 7: oscillatory-kernel localization",
            decreasing and ratio < 0.2 and elapsed < 60.0,
            f"gaps {['%.4g' % g for g in gaps]}, final/initial "
            f"{ratio:.4f}, {elapsed:.1f}s")


def test_criterion_08_gaussian_norm_slopes():
    t0 = time.time()
    eps_list = [2.0 ** -k for k in range(8, 17, 2)]
    outcomes = []
    for kind in ("wkb", "coherent"):
        for d, s in ((1, -0.25), (1, -1.0), (2, -0.5), (2, -2.0)):
            cfg = parse_config({"experiment": "sobolev-asymptotics",
                                "profile_kind": kind, "s": s, "dim": d,
                                "eps_list": eps_list})
            result = run_experiment(cfg)
            outcomes.append((kind, d, s, result.passed,
                             result.fitted_slopes["norm"]))
    elapsed = time.time() - t0
    all_ok = all(ok for _, _, _, ok, _ in outcomes)
    detail = ", ".join(f"{kind} d={d} s={s}: {slope:.4f}"
                       for kind, d, s, _, slope in outcomes)
    _report("criterion 8: closed-form norm slopes (0.05 tolerance)",
            all_ok and elapsed < 60.0, f"{detail}; {elapsed:.1f}s")


def test_criterion_09_scaled_profile_norms():
    t0 = time.time()
    sigma = -1.0
    eps_list = [2.0 ** -k for k in range(2, 7)]  # four octaves
    grid = SpectralGrid(1, 32.0, 512)
    x = grid.mesh()[0]
    f = GridFunction(grid, np.exp(-x ** 2 / (2.0 * 3.0 ** 2)) + 0j)
    l2 = f.l2_norm()

    # spreading (beta < 1): H^sigma approaches eps^{-d(1-beta)/4} ||f||_L2
    spread = []
    for eps in eps_list:
        got = scaled_profile_norm(ScaledProfileSpec(f, (0.0,), 0.5, eps), sigma)
        spread.append(got / (eps ** -0.125 * l2))
    spread_ok = all(abs(r - 1.0) <= 0.05 for r in spread)

    # beta = 1: plain H^sigma norm, no scaling at all
    exact = []
    ref = sobolev_norm(f, sigma)
    for eps in eps_list:
        got = scaled_profile_norm(ScaledProfileSpec(f, (0.0,), 1.0, eps), sigma)
        exact.append(abs(got - ref) / ref)
    exact_ok = all(e <= 0.05 for e in exact)

    # concentration (beta > 1): squared norm ~ delta^{d+2|sigma|} times the
    # |xi|^{2 sigma} moment of fhat (mean-zero profile keeps it integrable)
    g2 = SpectralGrid(1, 32.0, 2048)
    x2 = g2.mesh()[0]
    f2 = GridFunction(g2, np.cos(10.0 * x2) * np.exp(-x2 ** 2 / 8.0) + 0j)
    fhat = g2.forward(f2.values)
    xi = g2.frequency_axis()
    mask = xi != 0
    moment = float(np.sum(np.abs(xi[mask]) ** (2 * sigma)
                          * np.abs(fhat[mask]) ** 2) * g2.spectral_cell_volume)
    conc = []
    for eps in eps_list:
        got = scaled_profile_norm(ScaledProfileSpec(f2, (0.0,), 1.5, eps), sigma)
        delta = eps ** 0.25
        conc.append(got ** 2 / (delta ** 3 * moment))
    conc_ok = all(abs(r - 1.0) <= 0.05 for r in conc)

    # carrier on (kappa != 0): ratio to the bracket-weighted bound stays bounded
    carrier_ratios = []
    for eps in eps_list:
        got = scaled_profile_norm(ScaledProfileSpec(f, (5.0,), 0.5, eps), sigma)
        bracket = (1.0 + (5.0 * eps ** -0.75) ** 2) ** (sigma / 2.0)
        carrier_ratios.append(got / (bracket * eps ** -0.125 * l2))
    carrier_ok = all(0.5 <= r <= 2.0 for r in carrier_ratios)

    elapsed = time.time() - t0
    _report("criterion 9: scaled-profile norm laws (5% over 4 octaves)",
            spread_ok and exact_ok and conc_ok and carrier_ok
            and elapsed < 300.0,
            f"spread {['%.4f' % r for r in spread]}, "
            f"beta=1 rel err max {max(exact):.2e}, "
            f"concentration {['%.4f' % r for r in conc]}, "
            f"carrier {['%.4f' % r for r in carrier_ratios]}, {elapsed:.1f}s")


def test_criterion_10_more_weakly_nonlinear_threshold():
    t0 = time.time()
    cfg = {
        "experiment": "more-weakly",
        "model": {"lam": 0.0, "mu": 1.0, "nu": 1, "signature": "++",
                  "kernel": "zero", "j_exponent": 1.5},
        "grid": {"dim": 2, "box_pi_multiple": 1.0, "points_scale": 16},
        "phases": {"phi0": [[1, 0], [1, 1], [0, 1]], "box_radius": 4},
        "data": {"profile": "uniform", "amplitudes": [2.0, 1.0, 2.0]},
        "eps_list": [2.0 ** -5, 2.0 ** -6, 2.0 ** -7, 2.0 ** -8],
        "T": 1.25,
        "dt": 0.01,
        "s": -0.75,
    }
    result = run_experiment(parse_config(cfg))
    elapsed = time.time() - t0
    detail = "; ".join(d for _, _, d in result.assertions)
    _report("criterion 10: weak-nonlinearity norm growth",
            result.passed,
            f"final slope {result.fitted_slopes['final_norm']:.4f} "
            f"(target 0.5), initial slope "
            f"{result.fitted_slopes['initial_norm']:.4f} (target 0.75); "
            f"{detail}; {elapsed:.0f}s")


def _inflation_config(lam, mu, kernel):
    return {
        "experiment": "inflate",
        "model": {"lam": lam, "mu": mu, "nu": 1, "signature": "++",
                  "kernel": kernel},
        "grid": {"dim": 2, "box_pi_multiple": 1.0, "points_scale": 16},
        "phases": {"phi0": [[1, 0], [1, 1], [0, 1]], "box_radius": 4},
        "data": {"profile": "uniform", "amplitudes": [0.7, 0.7, 0.7]},
        "eps_list": [0.25, 0.125, 0.0625, 0.03125],
        "T": 5.0,
        "dt": 0.005,
        "profile_dt": 0.005,
        "s": -0.6,
        "sigma": -1.0,
        "beta": 1.0,
    }


def test_criterion_11_norm_inflation_surrogate():
    t0 = time.time()
    nls = run_experiment(parse_config(_inflation_config(0.0, 1.0, "zero")))
    ds = run_experiment(parse_config(_inflation_config(1.0, 0.0, "ds")))
    elapsed = time.time() - t0
    detail = "; ".join(
        f"{label} psi slope {r.fitted_slopes['psi_norm']:.4f} "
        f"(target -0.5), tau {r.metadata['tau']:.2f}"
        for label, r in (("local", nls), ("non-local", ds)))
    _report("criterion 11: norm-inflation surrogate",
            nls.passed and ds.passed, f"{detail}; {elapsed:.0f}s")


def test_criterion_12_determinism(tmp_path):
    t0 = time.time()
    cfg = parse_config({
        "experiment": "zero-mode",
        "model": {"lam": 1.0, "mu": 0.0, "nu": 1, "signature": "++",
                  "kernel": "ds"},
        "grid": {"dim": 2, "box_pi_multiple": 1.0, "points_per_axis": 64},
        "phases": {"phi0": [[1, 0], [1, 1], [0, 1]], "box_radius": 4},
        "data": {"profile": "gaussian", "amplitudes": [0.7, 0.56, 0.63],
                 "width": 0.42},
        "eps_list": [1.0, 0.5],
        "T": 0.1,
        "dt": 0.002,
        "profile_points": 64,
        "profile_dt": 0.002,
    })
    contents = []
    for name in ("first", "second"):
        out = tmp_path / name
        paths = emit_results(run_experiment(cfg), out)
        contents.append({key: open(p, "rb").read()
                         for key, p in sorted(paths.items())})
    identical = contents[0] == contents[1]
    elapsed = time.time() - t0
    _report("criterion 12: bit-identical reruns",
            identical and elapsed < 60.0,
            f"{len(contents[0])} files compared byte-for-byte, {elapsed:.1f}s")
