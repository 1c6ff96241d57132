"""Command-line entry point.

Subcommands
-----------
resonance             closure / resonant-tuple queries, JSON output
profiles              evolve the profile system, write WGLF snapshots + index
simulate              one split-step run, time-series CSV of errors
converge, zero-mode, more-weakly, inflate, sobolev-asymptotics
                      config-driven sweeps (see experiments module)

Exit codes: 0 all assertions pass, 1 an assertion failed, 2 config error,
3 inadmissible eps, 4 under-resolved grid.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys

from .errors import AdmissibilityError, ConfigError, ResolutionError, \
    as_config_error
from .experiments import _EXPERIMENTS, _RUNNERS, emit_results, error_series, \
    _atomic_write, _csv_text, _profile_snapshots, load_config
from .grid import write_snapshot
from .resonance import Signature, close_phase_set, resonant_tuples


def _parse_vector(text: str) -> tuple:
    return tuple(int(p) for p in text.split(","))


def _threads(text: str) -> int:
    """--threads N, which must be 1: sweeps run on one thread."""
    with contextlib.suppress(ValueError):
        if int(text) == 1:
            return 1
    raise argparse.ArgumentTypeError(
        f"must be >= 1 and at most 1 (sweeps run on one thread), got {text}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wnlgo",
        description="spectral laboratory for multiphase weakly nonlinear "
                    "geometric optics")
    parser.add_argument("--config", help="path to a JSON experiment config")
    parser.add_argument("--out", help="output directory (or file for "
                                      "'resonance')")
    parser.add_argument("--threads", type=_threads, default=1, metavar="N",
                        help="threads for sweep entries; only 1")
    sub = parser.add_subparsers(dest="command", required=True)

    res = sub.add_parser("resonance", help="close a phase set, list tuples")
    res.add_argument("--phi0", required=True,
                     help="semicolon-separated wave vectors, e.g. '1,0;1,1;0,1'")
    res.add_argument("--signature", default=None,
                     help="one +/- per axis, e.g. '++' (default: elliptic)")
    res.add_argument("--nu", type=int, default=1)
    res.add_argument("--box-radius", type=int, required=True,
                     help="closure box sup-norm radius, >= the seeds' sup-norm")
    res.add_argument("--max-generations", type=int, default=8)
    res.add_argument("--target", default=None,
                     help="wave vector whose resonant tuples to list")

    for name in ("profiles", "simulate") + _EXPERIMENTS:
        sub.add_parser(name)
    return parser


def _cmd_resonance(args) -> int:
    if args.out and (os.path.isdir(args.out)
                     or not os.path.isdir(os.path.dirname(args.out) or ".")):
        raise ConfigError(
            f"--out {args.out!r} is not a file in an existing directory")
    with as_config_error():
        phi0 = tuple(_parse_vector(part) for part in args.phi0.split(";"))
        if args.signature is None:
            signature = Signature.elliptic(len(phi0[0]))
        else:
            signature = Signature.from_string(args.signature)
        ps = close_phase_set(phi0, signature, args.nu,
                             max_generations=args.max_generations,
                             box_radius=args.box_radius)
        if args.target is not None:
            target = _parse_vector(args.target)
            idx = ps.index(target)
    payload = {
        "phi": [list(v) for v in ps.vectors],
        "generations": ps.generations,
        "truncated": ps.truncated,
        "count": len(ps),
    }
    if args.target is not None:
        payload["target"] = list(target)
        payload["tuples"] = [[list(ps.vectors[i]) for i in t]
                             for t in resonant_tuples(ps, idx)]
    text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    if args.out:
        _atomic_write(args.out, text)
    else:
        sys.stdout.write(text)
    return 0


def _config_and_out(args) -> tuple:
    """(config, output directory) of a config-driven command, or a
    ConfigError before any work."""
    if not args.config:
        raise ConfigError(f"'{args.command}' needs --config")
    cfg = load_config(args.config)
    # runners check their own configs; profiles and simulate need a field one
    if args.command not in _RUNNERS and cfg.closure is None:
        raise ConfigError(f"'{args.command}' needs a field experiment config")
    out = args.out or cfg.output_dir
    if not out:
        raise ConfigError("no output directory: pass --out or set output_dir")
    existing = os.path.abspath(out)
    while not os.path.exists(existing):
        existing = os.path.dirname(existing)
    if not os.path.isdir(existing):
        raise ConfigError(f"cannot make output directory {out!r}: "
                          f"{existing!r} is not a directory")
    return cfg, out


def _cmd_profiles(args) -> int:
    cfg, out = _config_and_out(args)
    os.makedirs(out, exist_ok=True)
    times = cfg.snapshot_times()
    index = {"modes": [list(v) for v in cfg.phase_set().vectors],
             "times": times, "files": []}
    # one state at a time; no name here holds on to the seed state
    states = _profile_snapshots(cfg.seed_profiles(cfg.eps_list[0]), times,
                                cfg.profile_dt)
    for k, state in enumerate(states):
        for j, amp in enumerate(state.amplitudes):
            fname = f"profile_j{j}_t{k}.wglf"
            write_snapshot(amp, os.path.join(out, fname))
            index["files"].append({"file": fname, "mode": j, "t": times[k]})
    _atomic_write(os.path.join(out, "index.json"),
                  json.dumps(index, sort_keys=True, indent=2) + "\n")
    return 0


def _cmd_simulate(args) -> int:
    """The converge worker at the first eps, written as one time series."""
    cfg, out = _config_and_out(args)
    # the whole box, also for a config whose own runs use one period cell
    cfg.require_grid_budget(cfg.eps_list[0], cells=False)
    os.makedirs(out, exist_ok=True)
    rows = error_series(cfg, cfg.eps_list[0])
    _atomic_write(os.path.join(out, "timeseries.csv"),
                  _csv_text(["t", "mass", "l2_err", "sup_err", "wiener_err"],
                            rows))
    return 0


def _cmd_experiment(args) -> int:
    cfg, out = _config_and_out(args)
    # the runner of the command, which refuses a config for another one
    result = _RUNNERS[args.command](cfg)
    emit_results(result, out)
    for name, ok, detail in result.assertions:
        sys.stdout.write(f"{'PASS' if ok else 'FAIL'}  {name}  ({detail})\n")
    for key, slope in sorted(result.fitted_slopes.items()):
        sys.stdout.write(f"slope  {key} = {slope:.4f}\n")
    return 0 if result.passed else 1


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "resonance":
            return _cmd_resonance(args)
        if args.command == "profiles":
            return _cmd_profiles(args)
        if args.command == "simulate":
            return _cmd_simulate(args)
        return _cmd_experiment(args)
    except ConfigError as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return 2
    except AdmissibilityError as exc:
        sys.stderr.write(f"admissibility error: {exc}\n")
        return 3
    except ResolutionError as exc:
        sys.stderr.write(f"resolution error: {exc}\n")
        return 4


if __name__ == "__main__":
    sys.exit(main())
