"""Show that every output check rejects a deliberately corrupted output.

    python3 bench/selftest.py

Run from the repository root.  For each workload it makes one CLI pass
(seed 1), requires every check to accept the output, then corrupts a copy
of the output in one way per check and requires that check to reject it.
Exits 0 when every check behaves, 1 otherwise.  Takes about half a minute.
"""

import contextlib
import csv
import io
import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import numpy as np  # noqa: E402

import workloads  # noqa: E402
from workloads import CHECKS, CheckFailed  # noqa: E402


def _edit_column(column: str, edit):
    """Corruption: rewrite one column of sweep.csv, row by row."""
    def corrupt(out):
        path = os.path.join(out, "sweep.csv")
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        values = [float(r[column]) for r in rows]
        for row, value in zip(rows, edit(values)):
            row[column] = repr(value)
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
            writer.writeheader()
            writer.writerows(rows)
    return corrupt


def _scale_snapshot(mode: int, last_time: bool):
    """Corruption: scale one WGLF payload by 1.001."""
    def corrupt(out):
        with open(os.path.join(out, "index.json"), encoding="utf-8") as fh:
            files = json.load(fh)["files"]
        times = sorted({f["t"] for f in files})
        t = times[-1] if last_time else times[0]
        name = next(f["file"] for f in files if f["mode"] == mode and f["t"] == t)
        path = os.path.join(out, name)
        with open(path, "rb") as fh:
            data = fh.read()
        head = workloads.SNAPSHOT_HEADER.size
        payload = np.frombuffer(data, dtype=np.complex64, offset=head) * np.float32(1.001)
        with open(path, "wb") as fh:
            fh.write(data[:head] + payload.astype(np.complex64).tobytes())
    return corrupt


def _drop_last_mode(out):
    path = os.path.join(out, "index.json")
    with open(path, encoding="utf-8") as fh:
        index = json.load(fh)
    index["modes"] = index["modes"][:-1]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(index, fh)


# check name -> (description, corruption of an output directory)
CORRUPTIONS = {
    "mass_drift": ("mass_drift column + 1e-9", _edit_column(
        "mass_drift", lambda v: [x + 1e-9 for x in v])),
    "l2_slope": ("l2_err at the smallest eps x 3", _edit_column(
        "l2_err", lambda v: v[:-1] + [3.0 * v[-1]])),
    "psi_exponent": ("psi_norm at the smallest eps x 2", _edit_column(
        "psi_norm", lambda v: v[:-1] + [2.0 * v[-1]])),
    "modes": ("last mode dropped from index.json", _drop_last_mode),
    "seed_profiles": ("t=0 snapshot of mode 0 x 1.001", _scale_snapshot(0, False)),
    "mass": ("last snapshot of mode 0 x 1.001", _scale_snapshot(0, True)),
}


def main() -> int:
    from wnlgo import cli
    base = os.path.join(HERE, "runs", f"selftest-{os.getpid()}")
    bad = 0
    try:
        for workload in workloads.WORKLOADS.values():
            work = os.path.join(base, workload.name)
            os.makedirs(work)
            cfg = workload.config(ROOT, 1)
            cfg_path = os.path.join(work, "config.json")
            with open(cfg_path, "w", encoding="utf-8") as fh:
                json.dump(cfg, fh)
            out = os.path.join(work, "out")
            with contextlib.redirect_stdout(io.StringIO()):
                rc = cli.main(["--config", cfg_path, "--out", out,
                               "--threads", "1", workload.command])
            expected = workloads.expectations(workload, cfg)
            args = {"rc": rc, "out": out, "cfg": cfg, "expected": expected}
            try:
                workloads.run_checks(workload, rc, out, cfg, expected)
                print(f"ok    {workload.name}: clean output passes every check")
            except CheckFailed as exc:
                bad += 1
                print(f"FAIL  {workload.name}: clean output fails: {exc}")
            for name in workload.checks:
                if name == "exit":
                    label, corrupted = "exit code 1", dict(args, rc=1)
                else:
                    label, corrupt = CORRUPTIONS[name]
                    copy = os.path.join(work, f"bad-{name}")
                    shutil.copytree(out, copy)
                    corrupt(copy)
                    corrupted = dict(args, out=copy)
                try:
                    CHECKS[name](**corrupted)
                except CheckFailed as exc:
                    print(f"ok    {workload.name}: check {name} rejects {label} ({exc})")
                else:
                    bad += 1
                    print(f"FAIL  {workload.name}: check {name} accepts {label}")
    finally:
        shutil.rmtree(base, ignore_errors=True)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
