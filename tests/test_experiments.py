import copy
import json
import os
import random
import re
import subprocess
import time

import numpy as np
import pytest
import scipy.fft

from wnlgo import AdmissibilityError, ConfigError, GridFunction, \
    ProfileSet, __version__, ResolutionError, ScaledProfileSpec, \
    SemiclassicalField, SpectralGrid, evolve_semiclassical, \
    oscillatory_initial_data, read_snapshot, require_admissible, \
    require_resolved, scaled_profile_norm, sobolev_norm
from wnlgo.cli import main
from wnlgo import cli, experiments, kernels
from wnlgo.experiments import emit_results, fit_power_law, load_config, \
    parse_config, run_convergence, run_experiment

from oracles import evolve_one_at_a_time

CONFIGS = os.path.join(os.path.dirname(__file__), os.pardir, "configs")
README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def field_config(**overrides):
    cfg = {
        "experiment": "converge",
        "model": {"lam": 0.0, "mu": 1.0, "nu": 1, "signature": "++",
                  "kernel": "zero"},
        "grid": {"dim": 2, "box_pi_multiple": 1.0, "points_per_axis": 64},
        "phases": {"phi0": [[1, 0], [1, 1], [0, 1]], "box_radius": 4},
        "data": {"profile": "uniform", "amplitudes": [0.5, 0.4, 0.3]},
        "eps_list": [0.5],
        "T": 0.0,
        "dt": 0.01,
        "snapshots": 1,
        "profile_points": 8,
        "profile_dt": 0.01,
    }
    cfg.update(overrides)
    return cfg


def zero_mode_config(**overrides):
    cfg = field_config(experiment="zero-mode", T=0.05, snapshots=2)
    cfg["model"] = {"lam": 1.0, "mu": 0.0, "nu": 1, "signature": "++",
                    "kernel": "ds"}
    cfg["eps_list"] = [1.0]
    cfg["rate_dt"] = 1e-3
    cfg.update(overrides)
    return cfg


def more_weakly_config(**overrides):
    # criterion 10's config at larger eps, where the n = 16/eps grids are small
    cfg = field_config(experiment="more-weakly", T=1.25, dt=0.01, s=-0.75,
                       eps_list=[0.25, 1 / 6, 0.125])
    cfg["model"]["j_exponent"] = 1.5
    cfg["grid"] = {"dim": 2, "box_pi_multiple": 1.0, "points_scale": 16}
    cfg["data"]["amplitudes"] = [2.0, 1.0, 2.0]
    cfg.update(overrides)
    return cfg


def inflate_config(**overrides):
    # criterion 11's local cubic sweep at its two largest eps
    cfg = field_config(experiment="inflate", T=5.0, dt=0.005, profile_dt=0.005,
                       s=-0.6, sigma=-1.0, beta=1.0, eps_list=[0.25, 0.125])
    cfg["grid"] = {"dim": 2, "box_pi_multiple": 1.0, "points_scale": 16}
    cfg["data"]["amplitudes"] = [0.7, 0.7, 0.7]
    cfg.update(overrides)
    return cfg


# sobolev_wkb.json switched to the scaled-profile family (in len(kappa) = 1
# dimension, so dim must follow)
SCALED = {"profile_kind": "scaled", "sigma": -0.5, "kappa": [1.0], "dim": 1,
          "eps_list": [0.25, 0.125]}


class TestFitPowerLaw:
    def test_exact_power_law(self):
        eps = [0.5, 0.25, 0.125, 0.0625]
        vals = [3.7 * e ** 1.8 for e in eps]
        assert abs(fit_power_law(eps, vals) - 1.8) < 1e-10

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            fit_power_law([0.5, 0.25], [1.0, 0.0])


class TestConfigValidation:
    def test_not_an_object(self):
        with pytest.raises(ConfigError):
            parse_config(["not", "a", "dict"])

    def test_missing_experiment(self):
        with pytest.raises(ConfigError, match="experiment"):
            parse_config({})

    def test_unknown_experiment(self):
        with pytest.raises(ConfigError, match="unknown experiment"):
            parse_config({"experiment": "frobnicate"})

    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError, match="unknown key 'bogus'"):
            parse_config(field_config(bogus=1))

    def test_missing_model_key(self):
        cfg = field_config()
        del cfg["model"]["kernel"]
        with pytest.raises(ConfigError, match="missing required key 'kernel'"):
            parse_config(cfg)

    def test_unknown_section_key(self):
        cfg = field_config()
        cfg["data"]["extra"] = 3
        with pytest.raises(ConfigError, match="unknown key 'extra' in data"):
            parse_config(cfg)

    def test_exactly_one_points_key(self):
        cfg = field_config()
        cfg["grid"]["points_scale"] = 16
        with pytest.raises(ConfigError, match="exactly one"):
            parse_config(cfg)
        del cfg["grid"]["points_scale"]
        del cfg["grid"]["points_per_axis"]
        with pytest.raises(ConfigError, match="exactly one"):
            parse_config(cfg)

    def test_signature_must_match_dim(self):
        cfg = field_config()
        cfg["model"]["signature"] = "+++"
        with pytest.raises(ConfigError, match="signature"):
            parse_config(cfg)

    def test_kernel_axis_must_be_finite(self):
        cfg = field_config(
            grid={"dim": 3, "box_pi_multiple": 1.0, "points_per_axis": 32},
            phases={"phi0": [[1, 0, 0], [1, 1, 0], [0, 1, 0]], "box_radius": 1},
            eps_list=[1.0], profile_points=16)
        cfg["model"].update(signature="+++", kernel="dipolar:0,0,1")
        parse_config(cfg)
        cfg["model"]["kernel"] = "dipolar:nan,0,1"
        with pytest.raises(ConfigError, match="finite"):
            parse_config(cfg)

    def test_gaussian_profile_needs_width(self):
        cfg = field_config()
        cfg["data"]["profile"] = "gaussian"
        with pytest.raises(ConfigError, match="width"):
            parse_config(cfg)

    def test_eps_list_strictly_decreasing(self):
        with pytest.raises(ConfigError, match="decreasing"):
            parse_config(field_config(eps_list=[0.25, 0.5]))
        with pytest.raises(ConfigError, match="nonempty"):
            parse_config(field_config(eps_list=[]))
        with pytest.raises(ConfigError, match="positive"):
            parse_config(field_config(eps_list=[0.5, -0.25]))

    def test_amplitude_count_matches_seeds(self):
        cfg = field_config()
        cfg["data"]["amplitudes"] = [0.5, 0.4]
        with pytest.raises(ConfigError, match="amplitudes"):
            parse_config(cfg)

    def test_complex_amplitudes_parse(self):
        cfg = field_config()
        cfg["data"]["amplitudes"] = [[0.5, 0.1], 0.4, 0.3]
        assert parse_config(cfg).amplitudes[0] == 0.5 + 0.1j
        cfg["data"]["amplitudes"] = [[0.5, 0.1, 0.2], 0.4, 0.3]
        with pytest.raises(ConfigError, match="re, im"):
            parse_config(cfg)

    def test_time_step_validation(self):
        with pytest.raises(ConfigError, match="dt"):
            parse_config(field_config(dt=0.0))
        with pytest.raises(ConfigError, match="T"):
            parse_config(field_config(T=-1.0))

    def test_inadmissible_eps_rejected_at_parse_time(self):
        with pytest.raises(AdmissibilityError):
            parse_config(field_config(eps_list=[0.3]))

    def test_under_resolved_grid_rejected_at_parse_time(self):
        cfg = field_config(eps_list=[0.25])
        cfg["grid"]["points_per_axis"] = 8
        with pytest.raises(ResolutionError):
            parse_config(cfg)

    def test_more_weakly_threshold_checks(self):
        base = field_config(experiment="more-weakly", T=0.5, s=-0.75)
        base["model"]["j_exponent"] = 1.5
        parse_config(base)  # valid
        bad = copy.deepcopy(base)
        bad["s"] = -0.25  # needs s < 1 - J = -0.5
        with pytest.raises(ConfigError, match="s < 1 - J"):
            parse_config(bad)
        bad = copy.deepcopy(base)
        bad["model"]["j_exponent"] = 2.5
        with pytest.raises(ConfigError):
            parse_config(bad)
        bad = copy.deepcopy(base)
        del bad["s"]
        with pytest.raises(ConfigError, match="'s'"):
            parse_config(bad)

    def test_inflation_threshold_checks(self):
        base = field_config(experiment="inflate", T=1.0, s=-0.6, sigma=-1.0,
                            beta=1.0)
        parse_config(base)  # valid J=1 point: s < -1/2, beta = 1
        bad = copy.deepcopy(base)
        bad["s"] = -0.4
        with pytest.raises(ConfigError, match="-1/"):
            parse_config(bad)
        bad = copy.deepcopy(base)
        bad["beta"] = 0.1  # below (d/2 - |s|) / (s_c + |s|)
        with pytest.raises(ConfigError, match="beta"):
            parse_config(bad)
        bad = copy.deepcopy(base)
        del bad["sigma"]
        with pytest.raises(ConfigError, match="sigma"):
            parse_config(bad)

    def test_zero_mode_needs_rectangle(self):
        cfg = zero_mode_config()
        cfg["phases"]["phi0"] = [[1, 0], [2, 1], [0, 1]]
        with pytest.raises(ConfigError, match="rectangle"):
            parse_config(cfg)

    def test_sobolev_config_checks(self):
        ok = {"experiment": "sobolev-asymptotics", "profile_kind": "wkb",
              "s": -0.25, "dim": 1, "eps_list": [0.5, 0.25]}
        parse_config(ok)
        with pytest.raises(ConfigError, match="profile_kind"):
            parse_config(dict(ok, profile_kind="plane"))
        with pytest.raises(ConfigError, match="'s'"):
            parse_config({"experiment": "sobolev-asymptotics",
                          "profile_kind": "wkb", "eps_list": [0.5]})
        with pytest.raises(ConfigError, match="-d/2"):
            parse_config(dict(ok, s=-0.5))  # exactly the -d/2 boundary
        with pytest.raises(ConfigError, match="kappa"):
            parse_config({"experiment": "sobolev-asymptotics",
                          "profile_kind": "scaled", "sigma": -1.0,
                          "eps_list": [0.5]})

    def test_scaled_dim_must_match_kappa(self):
        # eps = 1/4 would need a 512^3 grid, over the point budget at parse
        # time: eps = 1/2 runs on 256^3
        scaled = {"experiment": "sobolev-asymptotics", "profile_kind": "scaled",
                  "sigma": -1.0, "kappa": [1.0, 0.0, 0.0],
                  "eps_list": [1.0, 0.5]}
        parse_config(scaled)  # dim omitted: len(kappa) dimensions
        parse_config(dict(scaled, dim=3))
        with pytest.raises(ConfigError, match="dim is 2"):
            parse_config(dict(scaled, dim=2))
        with pytest.raises(ConfigError, match="scaled_points at eps = 0.25 "
                                              "gives 512"):
            parse_config(dict(scaled, eps_list=[0.5, 0.25]))


def _schema_keys(table, prefix=""):
    """Every key of a schema table, section keys dotted (model.lam)."""
    for key, entry in table.items():
        if isinstance(entry, dict):
            yield from _schema_keys(entry, f"{prefix}{key}.")
        else:
            yield prefix + key


def test_readme_config_tables_match_the_schema():
    with open(README, encoding="utf-8") as fh:
        section = fh.read().split("## Config format", 1)[1].split("\n## ", 1)[0]
    tables = [block.splitlines()[2:] for block in section.split("\n\n")
              if block.startswith("|")]
    # the backticked names in each table's first column
    documented = [{name for row in rows
                   for name in re.findall(r"`([^`]+)`", row.split("|")[1])}
                  for rows in tables]
    assert documented == [set(_schema_keys(experiments._FIELD_SCHEMA)),
                          set(_schema_keys(experiments._SOBOLEV_SCHEMA))]


def test_load_config_rejects_bad_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(ConfigError, match="not valid JSON"):
        load_config(path)


def test_runner_rejects_mismatched_config():
    cfg = parse_config(zero_mode_config())
    with pytest.raises(ConfigError, match="not 'converge'"):
        run_convergence(cfg)


def test_zero_time_convergence_errors_vanish():
    result = run_experiment(parse_config(field_config()))
    assert result.passed
    name, ok, detail = result.assertions[0]
    assert "zero-time" in name and ok


def test_zero_mode_rate_assertion_passes():
    result = run_experiment(parse_config(zero_mode_config()))
    assert result.passed
    (eps, metrics), = result.rows
    assert metrics["rate_rel_err"] < 1e-6


@pytest.mark.parametrize("make_config", [
    zero_mode_config, inflate_config, more_weakly_config],
    ids=["zero-mode", "inflate", "more-weakly"])
def test_finite_runs_pass_the_finiteness_check_last(make_config):
    result = run_experiment(parse_config(make_config()))
    assert result.assertions[-1] == ("all values finite", True,
                                     "no nan or inf")


class TestEmitResults:
    def test_files_and_layout(self, tmp_path):
        raw = zero_mode_config()
        result = run_experiment(parse_config(raw))
        paths = emit_results(result, tmp_path)
        sweep = (tmp_path / "sweep.csv").read_text().splitlines()
        assert sweep[0] == "eps,a0_final,a0_max,rate_pred_sup,rate_rel_err"
        assert len(sweep) == 2
        series = (tmp_path / "zero_mode.csv").read_text().splitlines()
        assert series[0] == "eps,t,a0_l2,mass"
        assert len(series) == 4  # three sample times, one eps
        meta = json.loads((tmp_path / "metadata.json").read_text())
        assert meta["experiment"] == "zero-mode"
        assert meta["config"] == raw
        assert meta["assertions"][0]["passed"] is True
        assert set(paths) == {"sweep", "zero_mode", "metadata"}

    def test_reruns_are_bit_identical(self, tmp_path):
        cfg = parse_config(field_config())
        for name in ("a", "b"):
            emit_results(run_experiment(cfg), tmp_path / name)
        for fname in ("sweep.csv", "timeseries.csv", "metadata.json"):
            one = (tmp_path / "a" / fname).read_bytes()
            two = (tmp_path / "b" / fname).read_bytes()
            assert one == two, fname

    def test_git_runs_once_per_process(self, tmp_path, monkeypatch):
        calls = []
        run = subprocess.run

        def counted_run(args, **kwargs):
            calls.append(args)
            return run(args, **kwargs)
        monkeypatch.setattr(subprocess, "run", counted_run)
        experiments._git_hash.cache_clear()
        for name in ("a", "b"):
            emit_results(run_experiment(parse_config(zero_mode_config())),
                         tmp_path / name)
        assert calls == [["git", "rev-parse", "HEAD"]]
        for name in ("a", "b"):
            meta = json.loads((tmp_path / name / "metadata.json").read_text())
            assert meta["git_hash"] == experiments._git_hash()
            assert meta["package_version"] == __version__

    def test_metadata_reports_the_phase_set(self, tmp_path):
        # criterion 6's hyperbolic closure: box radius 2 cuts it short
        raw = field_config()
        raw["model"]["signature"] = "-+"
        raw["phases"]["box_radius"] = 2
        emit_results(run_experiment(parse_config(raw)), tmp_path)
        meta = json.loads((tmp_path / "metadata.json").read_text())
        assert meta["phase_set"] == {"count": 9, "generations": 3,
                                     "truncated_by_box": True,
                                     "truncated_by_generations": False,
                                     "coupled_classes": 38,
                                     "zero_coefficient_classes": 0,
                                     "pair_products": 45}

    def test_metadata_reports_the_resolved_plan(self, tmp_path):
        # the DS coefficient of the classes keyed kappa_j - kappa_l = (0, +-1)
        # is 0 with mu = 0; their couplings and the pair products of their
        # sums are skipped (10 products in the full plan)
        with open(os.path.join(CONFIGS, "converge_ds_elliptic.json")) as fh:
            raw = json.load(fh)
        raw.update(T=0.0, eps_list=[0.25, 0.125])
        emit_results(run_experiment(parse_config(raw)), tmp_path)
        meta = json.loads((tmp_path / "metadata.json").read_text())
        assert meta["phase_set"] == {"count": 4, "generations": 1,
                                     "truncated_by_box": False,
                                     "truncated_by_generations": False,
                                     "coupled_classes": 8,
                                     "zero_coefficient_classes": 2,
                                     "pair_products": 8}

    @pytest.mark.parametrize("make_config, plan", [
        (zero_mode_config, True), (inflate_config, True),
        (more_weakly_config, False)],
        ids=["zero-mode", "inflate", "more-weakly"])
    def test_plan_facts_only_where_profiles_evolve(self, make_config, plan):
        result = run_experiment(parse_config(make_config()))
        assert ("pair_products" in result.metadata["phase_set"]) == plan

    @pytest.mark.parametrize("kind", ["more-weakly", "inflate"])
    def test_metadata_reports_cells_per_axis(self, tmp_path, kind):
        raw = (more_weakly_config if kind == "more-weakly" else
               inflate_config)(eps_list=[0.5, 0.25, 1 / 6])
        emit_results(run_experiment(parse_config(raw)), tmp_path)
        meta = json.loads((tmp_path / "metadata.json").read_text())
        assert meta["cells_per_axis"] == [2, 4, 2]
        assert "cells" not in (tmp_path / "sweep.csv").read_text()


class TestPeriodCell:
    @pytest.mark.parametrize("phi0, box_pi_multiple, eps, m", [
        ([[1, 0], [1, 1], [0, 1]], 1.0, 1 / 6, 2),  # M = 6
        ([[1, 0], [1, 1], [0, 1]], 1.0, 0.25, 4),
        ([[2, 0], [2, 2], [0, 2]], 1.0, 0.25, 8),  # gcd 2
        ([[1, 0], [1, 1], [0, 1]], 2.0, 0.25, 8)],
        ids=["eps-1/6", "eps-1/4", "gcd-2", "box-2pi"])
    def test_cells_per_axis(self, phi0, box_pi_multiple, eps, m):
        raw = field_config(eps_list=[eps])
        raw["grid"].update(points_per_axis=128, box_pi_multiple=box_pi_multiple)
        raw["phases"]["phi0"] = phi0
        cfg = parse_config(raw)
        grid, cells = cfg.cell_grid_for(eps)
        full = cfg.grid_for(eps)
        assert cells == m
        assert grid == SpectralGrid(2, full.half_length / m, 128 // m)
        require_admissible(grid, cfg.phase_set().vectors, eps)
        require_resolved(grid, cfg.phase_set().vectors, eps)

    def test_gaussian_data_keeps_the_full_grid(self):
        raw = field_config(eps_list=[0.25])
        raw["data"].update(profile="gaussian", width=0.5)
        cfg = parse_config(raw)
        assert cfg.cell_grid_for(0.25) == (cfg.grid_for(0.25), 1)

    @pytest.mark.parametrize("make_config, cells", [
        (field_config, False), (more_weakly_config, True),
        (inflate_config, True)], ids=["converge", "more-weakly", "inflate"])
    def test_runs_are_the_work_lists_grids(self, make_config, cells):
        # the sweeps read each eps's grid and cells per axis off the work
        # list parse_config keeps: a period cell where the sweep runs on one
        cfg = parse_config(make_config(eps_list=[0.5, 0.25]))
        want = [cfg.cell_grid_for(eps) if cells else (cfg.grid_for(eps), 1)
                for eps in cfg.eps_list]
        assert cfg.runs == want
        assert all(item.count <= item.budget for item in cfg.work)


def _full_grid_row(cfg, eps: float, tau) -> dict:
    """One sweep.csv row recomputed on the whole box, grid_for(eps)."""
    grid = cfg.grid_for(eps)
    u0 = oscillatory_initial_data(grid, cfg.phase_set(),
                                  cfg.seed_amplitudes(grid), cfg.model_for(eps))
    if cfg.experiment == "more-weakly":
        initial = sobolev_norm(u0.values, cfg.s)
        final = sobolev_norm(
            evolve_semiclassical(u0, cfg.t_final, cfg.dt).values, cfg.s)
        return {"initial_norm": initial, "final_norm": final,
                "ratio": final / initial}
    u_tau = evolve_semiclassical(u0, tau, cfg.dt).values.values
    ygrid = SpectralGrid(cfg.dim, grid.half_length * eps ** ((cfg.beta - 1) / 2),
                         grid.points_per_axis)
    pref = eps ** (-(cfg.beta + 1 - cfg.j_exponent) / (2 * cfg.nu))
    return {"phi_norm": pref * sobolev_norm(GridFunction(ygrid, u0.values.values),
                                            cfg.s),
            "psi_norm": pref * sobolev_norm(GridFunction(ygrid, u_tau), cfg.sigma),
            "zero_amp": abs(np.mean(u_tau))}


def _ds_inflate_config():
    raw = inflate_config()
    raw["model"].update(lam=1.0, mu=0.0, kernel="ds")
    return raw


@pytest.mark.parametrize("make_config", [
    inflate_config, _ds_inflate_config,
    lambda: inflate_config(beta=0.9, expect_inflation=False),
    more_weakly_config], ids=["inflate-local", "inflate-ds", "inflate-beta-0.9",
                              "more-weakly"])
def test_period_cell_runs_match_the_full_grid(make_config):
    cfg = parse_config(make_config())
    result = run_experiment(cfg)
    assert all(m > 1 for m in result.metadata["cells_per_axis"])
    for eps, row in result.rows:
        want = _full_grid_row(cfg, eps, result.metadata.get("tau"))
        assert set(row) == set(want)
        for key, value in want.items():
            assert abs(row[key] - value) <= 1e-12 * abs(value), (eps, key)


def _one_at_a_time(fields, t_end, dt):
    """evolve_fields by the oracle: each field evolved alone."""
    return [SemiclassicalField(GridFunction(f.grid, v), t_end, f.params)
            for f, v in zip(fields, evolve_one_at_a_time(fields, t_end, dt))]


def _hyperbolic_config(box_radius=4):
    with open(os.path.join(CONFIGS, "inflate_ds_hyperbolic.json"),
              encoding="utf-8") as fh:
        raw = json.load(fh)
    raw["phases"]["box_radius"] = box_radius
    return raw


def _gaussian_inflate_config():
    raw = inflate_config()
    raw["data"].update(profile="gaussian", width=0.5)
    return raw


class TestCellStacks:
    """The sweeps evolve runs of equal-shape period cells as one stack."""

    def run(self, monkeypatch, cfg):
        """(rows, fields per evolve_fields call) of one run of cfg."""
        sizes = []
        evolve = experiments.evolve_fields

        def spy(fields, t_end, dt):
            sizes.append(len(fields))
            return evolve(fields, t_end, dt)
        monkeypatch.setattr(experiments, "evolve_fields", spy)
        rows = run_experiment(cfg).rows
        monkeypatch.setattr(experiments, "evolve_fields", evolve)
        return rows, sizes

    @pytest.mark.parametrize("make_config", [
        lambda: inflate_config(eps_list=[0.25, 0.125, 0.0625]),
        lambda: more_weakly_config(eps_list=[0.25, 0.125, 0.0625]),
        _ds_inflate_config, _hyperbolic_config],
        ids=["inflate-local", "more-weakly-J1.5", "inflate-ds",
             "inflate-ds-hyperbolic"])
    def test_rows_match_one_at_a_time(self, monkeypatch, make_config):
        cfg = parse_config(make_config())
        rows, sizes = self.run(monkeypatch, cfg)
        assert sizes == [len(cfg.eps_list)]
        monkeypatch.setattr(experiments, "evolve_fields", _one_at_a_time)
        assert run_experiment(cfg).rows == rows

    @pytest.mark.parametrize("make_config, sizes", [
        (_gaussian_inflate_config, [1, 1]),  # whole boxes of 64^2 and 128^2
        (more_weakly_config, [1, 1, 1])],  # cells of 16^2, 64^2 and 16^2
        ids=["gaussian", "cell-shapes-differ"])
    def test_each_shape_runs_in_its_own_stack(self, monkeypatch, make_config,
                                              sizes):
        cfg = parse_config(make_config())
        assert self.run(monkeypatch, cfg)[1] == sizes

    def test_cells_of_one_shape_share_one_table(self, monkeypatch):
        # E's multiplier depends on the kernel and the grid shape alone, so
        # the three eps of one stack of 16^2 cells build one table
        cfg = parse_config(dict(_ds_inflate_config(),
                                eps_list=[0.25, 0.125, 0.0625]))
        kernels._half_multiplier.cache_clear()
        assert self.run(monkeypatch, cfg)[1] == [3]
        assert kernels._half_multiplier.cache_info().currsize == 1

    def test_point_budget_splits_a_stack(self, monkeypatch):
        cfg = parse_config(inflate_config(eps_list=[0.25, 0.125, 0.0625]))
        rows, sizes = self.run(monkeypatch, cfg)
        assert sizes == [3]
        monkeypatch.setattr(experiments, "_POINT_BUDGET", 2 * 16 ** 2)
        assert self.run(monkeypatch, cfg) == (rows, [2, 1])


def test_hyperbolic_ds_inflation_holds_at_two_boxes():
    # criterion 11's DS sweep under the -+ signature: the phase set is cut by
    # the box at radius 3 and 4 alike, and tau and every assertion agree
    results = [run_experiment(parse_config(_hyperbolic_config(box)))
               for box in (3, 4)]
    for result in results:
        assert result.passed, result.assertions
        assert result.metadata["phase_set"]["truncated_by_box"]
    assert results[0].metadata["tau"] == results[1].metadata["tau"]


@pytest.mark.parametrize("values, tau", [
    ([0.1, 0.3, 0.2, 0.4], 1), ([0.1, 0.2, 0.3, 0.4], 3),
    ([0.1, 0.2, np.nan, np.nan], 1), ([0.1, 0.2, 0.3, np.inf], 2),
    ([np.inf, np.nan, np.nan, np.nan], 0)],
    ids=["local-max", "rising", "nan", "inf", "no-finite-value"])
def test_first_local_max_stops_at_a_blow_up(values, tau):
    # the first local max, else the largest value, of the finite prefix,
    # else the first time
    assert experiments._first_local_max([0, 1, 2, 3], values) == tau


def _inflate_with(lam, mu, kernel):
    return inflate_config(model={"lam": lam, "mu": mu, "nu": 1,
                                 "signature": "++", "kernel": kernel})


@pytest.mark.parametrize("lam, mu, kernel", [
    (0.0, 1.0, "zero"), (1.0, 0.5, "ds"), (0.5, 0.3, "identity")],
    ids=["local", "ds", "identity"])
def test_constant_tau_scan_matches_the_grid(lam, mu, kernel):
    # uniform data's tau scan, one value per mode, against the weight-1
    # profile system of the same data on a 4^2 grid
    cfg = parse_config(_inflate_with(lam, mu, kernel))
    times, norms = experiments._tau_scan(cfg)
    grid = SpectralGrid(cfg.dim, cfg.half_box, 4)
    state = ProfileSet.from_seed(cfg.phase_set(), grid, cfg.seed_amplitudes(grid),
                                 cfg.transport_params(1.0))
    grid_times, grid_norms, _ = experiments._zero_mode_history(
        cfg, state, len(times) - 1)
    assert times == grid_times and len(times) == 201
    tau = experiments._first_local_max(times, norms)
    assert 0 < tau < cfg.t_final
    assert tau == experiments._first_local_max(grid_times, grid_norms)
    assert np.max(np.abs(np.subtract(norms, grid_norms))) \
        <= 1e-13 * max(grid_norms)


class TestTauScanWork:
    """Profile-grid evolutions and FFTs of whole runs, counted."""

    def count(self, monkeypatch, cfg):
        calls = dict.fromkeys(("evolve_profiles", "fftn", "ifftn", "rfftn",
                               "irfftn"), 0)

        def counting(name, original):
            def counted(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)
            return counted
        monkeypatch.setattr(experiments, "evolve_profiles", counting(
            "evolve_profiles", experiments.evolve_profiles))
        for name in ("fftn", "ifftn", "rfftn", "irfftn"):
            monkeypatch.setattr(scipy.fft, name,
                                counting(name, getattr(scipy.fft, name)))
        result = run_experiment(cfg)
        return calls, result

    @pytest.mark.parametrize("make_config, real", [
        (inflate_config, False), (_ds_inflate_config, True)],
        ids=["local", "ds"])
    def test_uniform_scan_has_no_grid_work(self, monkeypatch, make_config,
                                           real):
        # per eps: u0 (one fftn per seed mode, one ifftn for the sum), two
        # Sobolev norms and the zero-mode amplitude (one fftn each); one
        # split-step solve to tau of the stack of every eps, whose cells
        # share a shape (N + 1 fftn / ifftn, N rfftn / irfftn with the DS
        # kernel); nothing else
        cfg = parse_config(make_config())
        calls, result = self.count(monkeypatch, cfg)
        n = round(result.metadata["tau"] / cfg.dt)
        solves = len(cfg.eps_list)
        seeds = len(cfg.amplitudes)
        assert calls == {"evolve_profiles": 0,
                         "fftn": solves * (seeds + 3) + n + 1,
                         "ifftn": solves + n + 1, "rfftn": n * real,
                         "irfftn": n * real}

    def test_gaussian_scan_runs_on_the_grid(self, monkeypatch):
        raw = inflate_config(T=1.0)
        raw["data"].update(profile="gaussian", width=0.5)
        cfg = parse_config(raw)
        calls, result = self.count(monkeypatch, cfg)
        n = round(result.metadata["tau"] / cfg.dt)
        solves = len(cfg.eps_list)
        seeds = len(cfg.amplitudes)
        # per eps as above, but each whole box has its own shape, so each
        # eps is its own split-step solve; 201 samples of [0, 1], one step
        # of profile_dt each: two advections
        assert calls == {"evolve_profiles": 201,
                         "fftn": solves * (seeds + n + 4) + 400,
                         "ifftn": solves * (n + 2) + 400, "rfftn": 0,
                         "irfftn": 0}

    def test_zero_mode_runs_on_the_grid(self, monkeypatch):
        calls, _ = self.count(monkeypatch, parse_config(zero_mode_config()))
        assert calls["evolve_profiles"] == 5  # two rate steps, three samples
        assert calls["fftn"] > 0 and calls["rfftn"] > 0


class TestCli:
    def write(self, tmp_path, cfg):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg), encoding="utf-8")
        return str(path)

    def test_resonance_stdout(self, capsys):
        assert main(["resonance", "--phi0", "1,0;1,1;0,1",
                     "--box-radius", "4", "--target", "0,0"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["count"] == 4
        assert payload["generations"] == 1
        assert [1, 0] in payload["phi"] and [0, 0] in payload["phi"]
        assert len(payload["tuples"]) == 9

    def test_resonance_to_file(self, tmp_path):
        out = tmp_path / "closure.json"
        assert main(["--out", str(out), "resonance", "--phi0", "1,0;1,1;0,1",
                     "--signature=-+", "--box-radius", "2"]) == 0
        payload = json.loads(out.read_text())
        assert payload["count"] == 9
        assert payload["truncated"] is True

    def test_experiment_pass_exit_zero(self, tmp_path, capsys):
        cfg_path = self.write(tmp_path, zero_mode_config())
        out_dir = tmp_path / "results"
        code = main(["--config", cfg_path, "--out", str(out_dir), "zero-mode"])
        assert code == 0
        assert "PASS" in capsys.readouterr().out
        assert (out_dir / "sweep.csv").exists()

    def test_failed_assertion_exit_one(self, tmp_path, capsys):
        # coarse-eps wkb sweep sits far from its asymptotic slope
        cfg_path = self.write(tmp_path, {
            "experiment": "sobolev-asymptotics", "profile_kind": "wkb",
            "s": -1.0, "dim": 1, "eps_list": [0.5, 0.25]})
        code = main(["--config", cfg_path, "--out", str(tmp_path / "r"),
                     "sobolev-asymptotics"])
        assert code == 1
        assert "FAIL" in capsys.readouterr().out

    def test_config_error_exit_two(self, tmp_path, capsys):
        cfg_path = self.write(tmp_path, field_config(bogus=1))
        code = main(["--config", cfg_path, "--out", str(tmp_path / "r"),
                     "converge"])
        assert code == 2
        assert "config error" in capsys.readouterr().err

    def test_mismatched_command_exit_two(self, tmp_path):
        cfg_path = self.write(tmp_path, field_config())
        assert main(["--config", cfg_path, "--out", str(tmp_path / "r"),
                     "zero-mode"]) == 2

    def test_admissibility_exit_three(self, tmp_path):
        cfg_path = self.write(tmp_path, field_config(eps_list=[0.3]))
        assert main(["--config", cfg_path, "--out", str(tmp_path / "r"),
                     "converge"]) == 3

    def test_resolution_exit_four(self, tmp_path):
        cfg = field_config(eps_list=[0.25])
        cfg["grid"]["points_per_axis"] = 8
        cfg_path = self.write(tmp_path, cfg)
        assert main(["--config", cfg_path, "--out", str(tmp_path / "r"),
                     "converge"]) == 4

    @pytest.mark.parametrize("overrides, grid, code, prefix", [
        ({"eps_list": [0.3, 0.15]}, {"points_scale": 64}, 3, "admissibility"),
        ({}, {"points_per_axis": 8}, 4, "resolution")],
        ids=["inadmissible", "under-resolved"])
    def test_lattice_gates_come_before_the_experiment_checks(
            self, tmp_path, capsys, overrides, grid, code, prefix):
        # inflate without sigma fails its runner's own check, but an eps off
        # the lattice or an under-resolved grid is reported first
        with open(os.path.join(CONFIGS, "inflate_ds_hyperbolic.json")) as fh:
            cfg = json.load(fh)
        del cfg["sigma"]
        cfg.update(overrides)
        cfg["grid"] = {"dim": 2, "box_pi_multiple": 1.0, **grid}
        assert main(["--config", self.write(tmp_path, cfg),
                     "--out", str(tmp_path / "r"), "inflate"]) == code
        assert capsys.readouterr().err.startswith(prefix + " error: ")

    @pytest.mark.parametrize("eps, box, code, message", [
        (5e-324, 1.0, 3, "admissibility error: kappa component 1/eps is off"),
        (1e-307, 4.0, 4, "resolution error: 64 points per axis")],
        ids=["ratio-overflows", "need-overflows"])
    def test_extreme_eps_is_a_typed_error(self, tmp_path, capsys, eps, box,
                                          code, message):
        # kappa/eps beyond the float range once raised OverflowError from
        # round(inf) in the lattice test; at 1e-307 the ratios are integral
        # floats, and the resolution error took math.ceil(inf)
        with open(os.path.join(CONFIGS, "zero_mode_ds.json")) as fh:
            cfg = json.load(fh)
        cfg["eps_list"] = [eps]
        cfg["grid"]["box_pi_multiple"] = box
        assert main(["--config", self.write(tmp_path, cfg),
                     "--out", str(tmp_path / "r"), "zero-mode"]) == code
        err = capsys.readouterr().err
        assert err.startswith(message)
        assert "Traceback" not in err

    @pytest.mark.parametrize("points_scale, overrides, message", [
        (1e10, {"eps_list": [1e-300]}, "grid.points_scale / eps < inf"),
        (0, {}, "grid.points_scale / eps"),
        (-16, {}, "grid.points_scale / eps"),
        (None, {"T": 1e308}, "T = 1e+308 over dt = 0.01"),
        (None, {"T": 1.0, "profile_dt": 1e-320}, "not a finite number of steps")],
        ids=["scale-over-eps-inf", "scale-0", "scale-negative", "T-over-dt-inf",
             "T-over-profile-dt-inf"])
    def test_unbounded_or_empty_grid_and_step_counts_exit_two(
            self, tmp_path, capsys, points_scale, overrides, message):
        # points_scale / eps = inf once sent pow2_at_least into an endless
        # loop, T / dt = inf an OverflowError out of the step count, and a
        # non-positive points_scale to a 4-point grid's resolution error
        cfg = field_config(**overrides)
        if points_scale is not None:
            cfg["grid"] = {"dim": 2, "box_pi_multiple": 1.0,
                           "points_scale": points_scale}
        code = main(["--config", self.write(tmp_path, cfg),
                     "--out", str(tmp_path / "r"), "converge"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("config error:") and message in err
        assert "Traceback" not in err

    def test_missing_config_exit_two(self, tmp_path):
        assert main(["--out", str(tmp_path / "r"), "converge"]) == 2

    @pytest.mark.parametrize("command", ["zero-mode", "profiles", "simulate"])
    @pytest.mark.parametrize("paths, message", [
        (["--config", "missing.json", "--out", "r"], "cannot read config"),
        (["--config", "config.json"], "no output directory"),
        (["--config", "config.json", "--out", "file"], "not a directory"),
        (["--config", "config.json", "--out", "file/r"], "not a directory")])
    def test_unusable_paths_exit_two_before_any_work(
            self, tmp_path, capsys, monkeypatch, command, paths, message):
        def no_work(*args, **kwargs):
            raise AssertionError("the run started")
        for name in ("evolve_profiles", "evolve_semiclassical",
                     "evolve_fields"):
            monkeypatch.setattr(experiments, name, no_work)
        self.write(tmp_path, zero_mode_config())
        (tmp_path / "file").write_text("")
        monkeypatch.chdir(tmp_path)
        assert main(paths + [command]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and message in err

    @pytest.mark.parametrize("command", ["profiles", "simulate"])
    def test_field_commands_refuse_a_sobolev_config(self, tmp_path, capsys,
                                                   command):
        cfg = {"experiment": "sobolev-asymptotics", "profile_kind": "wkb",
               "s": -0.25, "dim": 1, "eps_list": [0.5, 0.25]}
        assert main(["--config", self.write(tmp_path, cfg),
                     "--out", str(tmp_path / "r"), command]) == 2
        assert "needs a field experiment config" in capsys.readouterr().err

    def test_diverged_errors_fail(self, tmp_path, capsys):
        # the profile RK4 overflows: every error after t = 0 is NaN, which a
        # finite first row must not hide from the monotonicity assertion
        cfg = {"experiment": "converge",
               "model": {"lam": 1.0, "mu": 0.0, "nu": 1, "signature": "++",
                         "kernel": "ds"},
               "grid": {"dim": 2, "box_pi_multiple": 1.0,
                        "points_per_axis": 64},
               "phases": {"phi0": [[1, 0], [1, 1], [0, 1]], "box_radius": 4},
               "data": {"profile": "gaussian", "amplitudes": [40, 32, 36],
                        "width": 0.42},
               "eps_list": [0.5, 0.25], "T": 1.0, "dt": 0.01, "snapshots": 4,
               "profile_points": 16, "profile_dt": 0.25}
        with np.errstate(over="ignore", invalid="ignore"):
            code = main(["--config", self.write(tmp_path, cfg),
                         "--out", str(tmp_path / "r"), "converge"])
        assert code == 1
        out = capsys.readouterr().out
        assert "FAIL  errors strictly decreasing in eps  " \
               "(l2 errors ['nan', 'nan'])" in out

    @pytest.mark.parametrize("mu, own_line", [
        (0.0, "PASS  finite-difference rate matches closed form"),
        (-0.5, "FAIL  zero mode stays flat (cancelling couplings)  "
               "(max ||a0|| nan")], ids=["driven", "flat"])
    def test_diverged_zero_mode_fails(self, tmp_path, capsys, mu, own_line):
        # the rate at t = 0 is fine, but the history overflows after t = 0.5;
        # sweep.csv keeps its nan, and the run must not pass
        with open(os.path.join(CONFIGS, "zero_mode_ds.json")) as fh:
            cfg = json.load(fh)
        cfg["model"]["mu"] = mu
        cfg["data"]["amplitudes"] = [40, 32, 36]
        cfg["grid"]["points_per_axis"] = 32
        cfg.update(T=5, profile_dt=0.5, rate_dt=1e-6, snapshots=10,
                   profile_points=32)
        with np.errstate(over="ignore", invalid="ignore"):
            code = main(["--config", self.write(tmp_path, cfg),
                         "--out", str(tmp_path / "r"), "zero-mode"])
        assert code == 1
        out = capsys.readouterr().out.splitlines()
        assert out[0].startswith(own_line)
        assert out[1] == ("FAIL  all values finite  (first non-finite: "
                          "a0_l2 at eps = 1.0, t = 1.0)")
        sweep = (tmp_path / "r" / "sweep.csv").read_text().splitlines()
        assert sweep[0] == "eps,a0_final,a0_max,rate_pred_sup,rate_rel_err"
        assert sweep[1].startswith("1.0,nan,nan,")
        meta = json.loads((tmp_path / "r" / "metadata.json").read_text())
        assert meta["assertions"][-1]["name"] == "all values finite"

    @pytest.mark.parametrize("model, branch", [
        ({"kernel": "zero", "mu": -0.5}, "finite-difference rate"),
        ({"kernel": "identity", "mu": -0.5}, "finite-difference rate"),
        ({"nu": 2, "mu": -0.5}, "finite-difference rate"),
        ({"kernel": "identity", "mu": -1.0}, "zero mode stays flat")],
        ids=["zero-driven", "identity-driven", "ds-quintic-driven",
             "identity-flat"])
    def test_zero_mode_branch_follows_the_predicted_rate(
            self, tmp_path, capsys, model, branch):
        # lam + 2 mu = 0 cancels the creation coefficient only for the DS
        # kernel at nu = 1; every other zero mode here is driven but the
        # identity kernel's at mu = -lam
        with open(os.path.join(CONFIGS, "zero_mode_ds.json")) as fh:
            cfg = json.load(fh)
        cfg["model"].update(model)
        cfg["grid"]["points_per_axis"] = 32
        cfg.update(T=0.2, profile_points=32)
        code = main(["--config", self.write(tmp_path, cfg),
                     "--out", str(tmp_path / "r"), "zero-mode"])
        out = capsys.readouterr().out.splitlines()
        assert out[0].startswith("PASS  " + branch)
        assert code == 0

    @pytest.mark.parametrize("phi0, code", [
        ([[2, 1], [3, 3], [1, 2]], 0), ([[1, 1], [2, 0], [1, -1]], 2)],
        ids=["resonant", "not-resonant"])
    def test_zero_mode_seeds_resonate_under_the_signature(
            self, tmp_path, capsys, phi0, code):
        # under '+-' the first rectangle resonates onto 0 although its sides
        # are not Euclidean-orthogonal; the second is orthogonal but does not
        with open(os.path.join(CONFIGS, "zero_mode_ds.json")) as fh:
            cfg = json.load(fh)
        cfg["model"]["signature"] = "+-"
        cfg["phases"]["phi0"] = phi0
        cfg["data"]["amplitudes"] = [0.9, 0.7, 0.8]
        cfg.update(T=0.2, profile_points=64)
        assert main(["--config", self.write(tmp_path, cfg),
                     "--out", str(tmp_path / "r"), "zero-mode"]) == code
        out = capsys.readouterr()
        if code == 2:
            assert "resonant onto 0 under signature '+-'" in out.err
        else:
            assert out.out.startswith("PASS  finite-difference rate")

    def test_tau_scan_blown_up_from_the_start_fails(self, tmp_path, capsys):
        # a seed zero mode of amplitude 1e308 makes the scan's first sample
        # inf: tau is the first time, and the run fails its finiteness check
        cfg = inflate_config()
        cfg["phases"]["phi0"] = [[0, 0], [1, 0], [1, 1], [0, 1]]
        cfg["data"]["amplitudes"] = [1e308, 0.7, 0.7, 0.7]
        with np.errstate(over="ignore", invalid="ignore"):
            code = main(["--config", self.write(tmp_path, cfg),
                         "--out", str(tmp_path / "r"), "inflate"])
        assert code == 1
        out = capsys.readouterr().out.splitlines()
        assert out[-1] == ("FAIL  all values finite  (first non-finite: "
                           "a0_l2 at t = 0.0)")
        meta = json.loads((tmp_path / "r" / "metadata.json").read_text())
        assert meta["tau"] == 0.0

    def test_scaled_sobolev_sweep_runs(self, tmp_path, capsys):
        # the scaled family has no predicted slope: its one assertion is
        # the finiteness check, and each norm is scaled_profile_norm's
        cfg = dict(SCALED, experiment="sobolev-asymptotics", width=0.8,
                   beta=0.5)
        assert main(["--config", self.write(tmp_path, cfg),
                     "--out", str(tmp_path / "r"),
                     "sobolev-asymptotics"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert [line for line in out if not line.startswith("slope")] \
            == ["PASS  all values finite  (no nan or inf)"]
        lines = (tmp_path / "r" / "sweep.csv").read_text().splitlines()
        assert lines[0] == "eps,norm"
        rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
        assert [eps for eps, _ in rows] == cfg["eps_list"]

        def profile(points):
            return np.exp(-np.sum(points ** 2, axis=-1) / (2.0 * 0.8 * 0.8))
        assert [norm for _, norm in rows] == [
            scaled_profile_norm(ScaledProfileSpec(profile, (1.0,), 0.5, eps,
                                                  half_length=32.0), -0.5)
            for eps in cfg["eps_list"]]

    def test_profiles_writes_snapshots(self, tmp_path):
        cfg_path = self.write(tmp_path, field_config(T=0.02, snapshots=1))
        out_dir = tmp_path / "profiles"
        assert main(["--config", cfg_path, "--out", str(out_dir),
                     "profiles"]) == 0
        index = json.loads((out_dir / "index.json").read_text())
        # 4 closure modes x 2 snapshot times
        assert len(index["files"]) == 8
        first = index["files"][0]["file"]
        amp = read_snapshot(str(out_dir / first))
        assert amp.grid.points_per_axis == 8
        assert np.allclose(amp.values, 0.5, atol=1e-6)

    def test_simulate_writes_timeseries(self, tmp_path):
        cfg_path = self.write(tmp_path, field_config(T=0.02, snapshots=2))
        out_dir = tmp_path / "sim"
        assert main(["--config", cfg_path, "--out", str(out_dir),
                     "simulate"]) == 0
        lines = (out_dir / "timeseries.csv").read_text().splitlines()
        assert lines[0] == "t,mass,l2_err,sup_err,wiener_err"
        assert len(lines) == 4

    def test_converge_closes_the_phase_set_once(self, tmp_path, monkeypatch):
        calls = []
        closure = experiments.close_phase_set

        def counted(*args, **kwargs):
            calls.append(args)
            return closure(*args, **kwargs)
        for module in (experiments, cli):
            monkeypatch.setattr(module, "close_phase_set", counted)
        cfg_path = self.write(tmp_path, field_config(T=0.02, snapshots=2,
                                                     eps_list=[0.5, 0.25]))
        # the run completes; its slope assertion over so short a time may fail
        assert main(["--config", cfg_path, "--out", str(tmp_path / "r"),
                     "converge"]) in (0, 1)
        assert (tmp_path / "r" / "sweep.csv").exists()
        assert len(calls) == 1

    @pytest.mark.parametrize("section,key,value", [
        ("model", "nu", 1.5), (None, "T", float("nan")),
        ("model", "signature", "+x"),
        ("phases", "phi0", [[1.5, 0], [1, 1], [0, 1]]),
        ("phases", "box_radius", 0), ("model", "kernel", 5),
        ("data", "amplitudes", 0.7), ("grid", "points_per_axis", 48),
        (None, "snapshots", 0), (None, "rate_dt", 0), (None, "rate_dt", -1e-3),
        (None, "output_dir", 5), ("data", "width", 0), ("data", "width", -0.42),
        ("model", "j_exponent", 0.5), (None, "eps_list", [2.0]),
        ("phases", "max_generations", 0), ("phases", "max_generations", -1),
        ("phases", "phi0", 3), ("phases", "phi0", [[True, 0], [1, 1], [0, 1]]),
        ("grid", "points_per_axis", 2 ** 20), (None, "profile_points", 2 ** 22),
        ("grid", "points_per_axis", 10 ** 400), (None, "T", -10 ** 400),
        ("data", "amplitudes", [[10 ** 400, 0], 1, 1]),
        ("phases", "phi0", [[10 ** 400, 0], [1, 1], [0, 1]])],
        ids=["nu-1.5", "T-NaN", "signature-+x", "phi0-1.5", "box_radius-0",
             "kernel-5", "amplitudes-0.7", "points-48", "snapshots-0",
             "rate_dt-0", "rate_dt-negative", "output_dir-5", "width-0",
             "width-negative", "j_exponent-0.5", "eps-2", "max_generations-0",
             "max_generations-negative", "phi0-3", "phi0-true",
             "points-2^20", "profile_points-2^22", "points-1e400",
             "T-minus-1e400", "amplitudes-1e400", "phi0-1e400"])
    def test_bad_values_exit_two(self, tmp_path, capsys, section, key, value):
        # an integer beyond the float range is a config error too, not an
        # OverflowError from the float conversion
        with open(os.path.join(CONFIGS, "zero_mode_ds.json")) as fh:
            cfg = json.load(fh)
        (cfg[section] if section else cfg)[key] = value
        code = main(["--config", self.write(tmp_path, cfg),
                     "--out", str(tmp_path / "r"), "zero-mode"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("config error:")
        assert "Traceback" not in err
        assert key in err

    @pytest.mark.parametrize("overrides", [
        {"dim": 0}, dict(SCALED, beta=0), dict(SCALED, scaled_points=48),
        dict(SCALED, eps_list=[2.0, 0.5]),
        dict(SCALED, dim=2, kappa=[1.0, 0.0, 0.0]), dict(SCALED, kappa=5),
        dict(SCALED, scaled_points=2 ** 27),
        dict(SCALED, kappa=[1.0, 0.0], dim=2, eps_list=[2.0 ** -10, 2.0 ** -12])],
        ids=["dim-0", "scaled-beta-0", "scaled-points-48", "scaled-eps-2",
             "scaled-dim-2-kappa-3", "kappa-5", "scaled-points-2^27",
             "scaled-auto-2^17"])
    def test_sobolev_bad_values_exit_two(self, tmp_path, capsys, overrides):
        with open(os.path.join(CONFIGS, "sobolev_wkb.json")) as fh:
            cfg = json.load(fh)
        cfg.update(overrides)
        code = main(["--config", self.write(tmp_path, cfg),
                     "--out", str(tmp_path / "r"), "sobolev-asymptotics"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("config error:")
        assert "Traceback" not in err

    @pytest.mark.parametrize("command, profile", [
        ("converge", "uniform"), ("inflate", "gaussian")])
    def test_points_scale_over_budget_exit_two(self, tmp_path, capsys, command,
                                               profile):
        # 16 / eps = 2^20 points per axis on the whole box, which both runs
        # solve (Gaussian data has no period cell)
        cfg = (field_config if command == "converge" else inflate_config)(
            eps_list=[2.0 ** -15, 2.0 ** -16])
        cfg["grid"] = {"dim": 2, "box_pi_multiple": 1.0, "points_scale": 16}
        cfg["data"].update(profile=profile, width=0.5)
        code = main(["--config", self.write(tmp_path, cfg),
                     "--out", str(tmp_path / "r"), command])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("config error: grid.points_scale at eps = ")
        assert "Traceback" not in err

    def test_budget_counts_the_period_cell(self, tmp_path, capsys):
        # uniform more-weakly runs each eps on one 16^2 period cell; simulate
        # solves the whole box of the first eps, 2^19 points per axis
        raw = more_weakly_config(eps_list=[2.0 ** -15, 2.0 ** -16])
        cfg = parse_config(raw)
        assert [cfg.cell_grid_for(e)[0].points_per_axis
                for e in cfg.eps_list] == [16, 16]
        code = main(["--config", self.write(tmp_path, raw),
                     "--out", str(tmp_path / "r"), "simulate"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("config error: grid.points_scale at eps = ")
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize("overrides, message", [
        ({"snapshots": 1e308}, "snapshots = 1e+308 gives 1e+308 sampled times"),
        ({"T": 1e300, "dt": 1, "profile_dt": 1}, "T = 1e+300 over dt = 1"),
        ({"snapshots": 10 ** 308}, "snapshots = 1e+308 is too large for a float")],
        ids=["snapshots-1e308", "T-1e300", "snapshots-10^308"])
    def test_unbounded_work_exit_two_at_once(self, tmp_path, capsys,
                                             overrides, message):
        # snapshot_times once built 1e308 floats, and the step count would
        # have asked for 1e300 steps; 10**308 is an integer no float holds
        with open(os.path.join(CONFIGS, "converge_ds_elliptic.json")) as fh:
            cfg = json.load(fh)
        cfg.update(overrides)
        path = self.write(tmp_path, cfg)
        start = time.perf_counter()
        code = main(["--config", path, "--out", str(tmp_path / "r"), "converge"])
        elapsed = time.perf_counter() - start
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("config error: " + message)
        assert elapsed < 1.0
        assert not (tmp_path / "r").exists()

    def test_class_sums_over_budget_exit_two(self, tmp_path, capsys,
                                             monkeypatch):
        # the 65-mode closure of box 16 has 1215 class sums, and one rhs on
        # 256^2 profile points would hold 1215 * 2^16 > 2^26 points of them
        raw = field_config(eps_list=[1.0], profile_points=256)
        raw["model"] = {"lam": 1.0, "mu": 0.0, "nu": 1, "signature": "-+",
                        "kernel": "ds"}
        raw["grid"]["points_per_axis"] = 256
        raw["phases"]["box_radius"] = 16

        def allocate(*args, **kwargs):
            raise AssertionError("profiles allocated past the budget check")
        monkeypatch.setattr(experiments.ExperimentConfig, "seed_profiles",
                            allocate)
        code = main(["--config", self.write(tmp_path, raw),
                     "--out", str(tmp_path / "r"), "profiles"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("config error: phases.box_radius = 16 and "
                              "profile_points = 256 give up to 1215 class sums")
        assert not (tmp_path / "r").exists()
        raw["profile_points"] = 128
        assert len(parse_config(raw).phase_set()) == 65

    @pytest.mark.parametrize("command", ["profiles", "simulate"])
    def test_profile_work_is_budgeted_where_profiles_evolve(
            self, tmp_path, capsys, command):
        # uniform inflate's tau scan runs one value per mode, so its own run
        # parses at 256^2 profile points; profiles and simulate evolve the
        # profile system on that grid, 17 modes x 2^16 points x 1000 steps
        with open(os.path.join(CONFIGS, "inflate_ds_hyperbolic.json")) as fh:
            cfg = json.load(fh)
        cfg["profile_points"] = 256
        assert [item.text for item in parse_config(cfg).work
                if "RK4" in item.text or "class sums" in item.text] == []
        code = main(["--config", self.write(tmp_path, cfg),
                     "--out", str(tmp_path / "r"), command])
        assert code == 2
        assert capsys.readouterr().err.startswith(
            "config error: T = 5.0 over profile_dt = 0.005 gives 1000 RK4 "
            "steps of 17 modes on 65536 points")
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize("command, make_config", [
        ("converge", field_config), ("more-weakly", more_weakly_config),
        ("inflate", inflate_config)])
    def test_zero_seed_data_exit_two(self, tmp_path, capsys, command,
                                     make_config):
        # vanishing data has no mass to drift and no norm to fit
        cfg = make_config()
        cfg["data"]["amplitudes"] = [0, 0, 0]
        code = main(["--config", self.write(tmp_path, cfg),
                     "--out", str(tmp_path / "r"), command])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("config error:") and "data.amplitudes" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("value", ["no", 0, None])
    def test_expect_inflation_must_be_boolean(self, tmp_path, capsys, value):
        with open(os.path.join(CONFIGS, "zero_mode_ds.json")) as fh:
            cfg = json.load(fh)
        cfg["expect_inflation"] = value
        code = main(["--config", self.write(tmp_path, cfg),
                     "--out", str(tmp_path / "r"), "zero-mode"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("config error:") and "expect_inflation" in err
        assert parse_config(dict(cfg, expect_inflation=False)).expect_inflation \
            is False

    @pytest.mark.parametrize("command, overrides", [
        ("converge", {}),
        ("more-weakly", {"model": {"lam": 0.0, "mu": 1.0, "nu": 1,
                                   "signature": "++", "kernel": "zero",
                                   "j_exponent": 1.5}, "s": -0.75}),
        ("inflate", {"s": -0.75, "sigma": 0.0}),
    ])
    def test_slope_sweep_needs_two_eps(self, tmp_path, capsys, command,
                                       overrides):
        # a one-eps fit is NaN; the runner refuses it before any work
        cfg = field_config(experiment=command, T=0.02, snapshots=1,
                           **overrides)
        code = main(["--config", self.write(tmp_path, cfg),
                     "--out", str(tmp_path / "r"), command])
        err = capsys.readouterr().err
        assert code == 2
        assert "at least two eps values" in err
        assert not (tmp_path / "r").exists()

    def test_sobolev_sweep_needs_two_eps(self, tmp_path, capsys):
        cfg = {"experiment": "sobolev-asymptotics", "profile_kind": "wkb",
               "s": -0.25, "dim": 1, "eps_list": [0.5]}
        code = main(["--config", self.write(tmp_path, cfg),
                     "--out", str(tmp_path / "r"), "sobolev-asymptotics"])
        assert code == 2
        assert "at least two eps values" in capsys.readouterr().err

    @pytest.mark.parametrize("command, output", [("profiles", "index.json"),
                                                 ("simulate", "timeseries.csv")])
    def test_single_eps_runs_need_no_fit(self, tmp_path, command, output):
        # the config the converge sweep refuses: one eps, lam = 0, T > 0
        cfg_path = self.write(tmp_path, field_config(T=0.02, snapshots=1))
        assert main(["--config", cfg_path, "--out", str(tmp_path / "r"),
                     command]) == 0
        assert (tmp_path / "r" / output).exists()

    def test_single_eps_converge_without_fit_still_runs(self, tmp_path):
        # lam != 0 asserts only monotonicity, T = 0 only vanishing errors
        for overrides in ({"T": 0.0},
                          {"model": {"lam": 1.0, "mu": 0.0, "nu": 1,
                                     "signature": "++", "kernel": "ds"},
                           "T": 0.02}):
            cfg_path = self.write(tmp_path, field_config(**overrides))
            assert main(["--config", cfg_path, "--out", str(tmp_path / "r"),
                         "converge"]) == 0

    @pytest.mark.parametrize("flags", [
        ["--phi0", "1,0;1,1;0,1", "--box-radius", "0"],
        ["--phi0", "1,0;1,1;0,1", "--signature=+x", "--box-radius", "2"],
        ["--phi0", "1.5,0", "--box-radius", "2"],
        ["--phi0", "1,0;1,1;0,1", "--box-radius", "2", "--target", "5,5"],
        ["--phi0", "1,0;1,1;0,1", "--box-radius", "2", "--max-generations",
         "-1"]])
    def test_resonance_bad_input_exit_two(self, capsys, flags):
        assert main(["resonance"] + flags) == 2
        assert capsys.readouterr().err.startswith("config error:")

    @pytest.mark.parametrize("out", [os.path.join("missing", "x.json"), "."])
    def test_resonance_bad_out_exit_two(self, tmp_path, capsys, out):
        # a missing directory, and a directory in place of the file
        out = str(tmp_path / out)
        assert main(["--out", out, "resonance", "--phi0", "1,0;1,1;0,1",
                     "--box-radius", "2"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and repr(out) in err
        assert os.listdir(tmp_path) == []

    def test_resonance_needs_box_radius(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["resonance", "--phi0", "1,0;1,1;0,1"])
        assert exc.value.code == 2
        assert "--box-radius" in capsys.readouterr().err

    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_threads_below_one_is_a_usage_error(self, tmp_path, capsys,
                                                threads):
        with pytest.raises(SystemExit) as exc:
            main(["--config", os.path.join(CONFIGS, "sobolev_wkb.json"),
                  "--out", str(tmp_path / "r"), f"--threads={threads}",
                  "sobolev-asymptotics"])
        assert exc.value.code == 2
        assert "--threads: must be >= 1" in capsys.readouterr().err
        assert not (tmp_path / "r").exists()

    def test_threads_above_one_is_a_usage_error(self, tmp_path, capsys):
        # sweeps run on one thread; --threads 1 stays accepted
        with pytest.raises(SystemExit) as exc:
            main(["--config", os.path.join(CONFIGS, "sobolev_wkb.json"),
                  "--out", str(tmp_path / "r"), "--threads", "2",
                  "sobolev-asymptotics"])
        assert exc.value.code == 2
        assert "--threads: must be >= 1 and at most 1" \
            in capsys.readouterr().err
        assert not (tmp_path / "r").exists()


# -- seeded config fuzz ---------------------------------------------------------

FUZZ_BASES = {"field": field_config(), "zero-mode": zero_mode_config()}
for _name in ("converge_ds_elliptic", "zero_mode_ds", "sobolev_wkb"):
    with open(os.path.join(CONFIGS, _name + ".json"), encoding="utf-8") as _fh:
        FUZZ_BASES[_name] = json.load(_fh)
# runs through cli.main too: small enough that every mutation stays cheap
FUZZ_RUN = ("field", "zero-mode")
FUZZ_KINDS = ("swap-type", 0, -1, 3, "delete", "unknown-key")


def _leaves(node, path=()):
    """Paths to every scalar of a JSON tree."""
    if isinstance(node, (dict, list)):
        items = node.items() if isinstance(node, dict) else enumerate(node)
        for key, value in items:
            yield from _leaves(value, path + (key,))
    else:
        yield path


def _nodes(node, path=()):
    """Paths to every node below the root of a JSON tree: dicts, lists and
    scalars."""
    if isinstance(node, (dict, list)):
        items = node.items() if isinstance(node, dict) else enumerate(node)
        for key, value in items:
            yield path + (key,)
            yield from _nodes(value, path + (key,))


def _mutate(cfg: dict, path: tuple, kind) -> dict:
    """cfg with one node changed: type swapped, set, deleted, or a key added."""
    cfg = copy.deepcopy(cfg)
    parent = cfg
    for key in path[:-1]:
        parent = parent[key]
    leaf = path[-1]
    if kind == "swap-type":
        value = parent[leaf]
        parent[leaf] = [value] if isinstance(value, str) else str(value)
    elif kind == "delete":
        del parent[leaf]
    elif kind == "unknown-key":
        (parent if isinstance(parent, dict) else cfg)["fuzz_key"] = 1
    else:
        parent[leaf] = kind
    return cfg


def _fuzz_cases(count: int = 150, seed: int = 5):
    rng = random.Random(seed)
    cases = []
    for _ in range(count):
        base = rng.choice(sorted(FUZZ_BASES))
        path = rng.choice(list(_leaves(FUZZ_BASES[base])))
        kind = rng.choice(FUZZ_KINDS)
        label = "-".join([base, ".".join(map(str, path)), str(kind)])
        cases.append(pytest.param(base, path, kind, id=label))
    return cases


@pytest.mark.parametrize("base, path, kind", _fuzz_cases())
def test_config_fuzz(tmp_path, capsys, base, path, kind):
    cfg = _mutate(FUZZ_BASES[base], path, kind)
    try:
        parse_config(cfg)
    except (ConfigError, AdmissibilityError, ResolutionError):
        pass
    if base in FUZZ_RUN:
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(cfg), encoding="utf-8")
        code = main(["--config", str(config_path), "--out",
                     str(tmp_path / "r"), FUZZ_BASES[base]["experiment"]])
        assert code in (0, 1, 2, 3, 4)
        assert "Traceback" not in capsys.readouterr().err


def test_every_node_mutation_parses_or_raises_a_typed_error():
    # every node of every fuzz base (sections, lists and scalars) x every
    # kind, and the extreme floats, through parse_config only
    escapes, cases = [], 0
    for base, cfg in sorted(FUZZ_BASES.items()):
        for path in _nodes(cfg):
            for kind in FUZZ_KINDS + (5e-324, 1e308):
                cases += 1
                try:
                    parse_config(_mutate(cfg, path, kind))
                except (ConfigError, AdmissibilityError, ResolutionError):
                    pass
                except Exception as exc:
                    escapes.append((base, path, kind, repr(exc)))
    assert cases == 8 * 160  # 119 scalars and 41 dicts and lists
    assert escapes == []
