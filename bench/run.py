"""Benchmark of the wnlgo CLI: four workloads, end-to-end or per layer.

    python3 bench/run.py --workload converge-ds --seed 1 --seconds 20 --trace 0

Run from the repository root (the package is imported from ``src/``).  One
run is one process with one thread.  It times set-up in forked copies of
itself, makes one untimed warm-up pass (one ``wnlgo.cli.main`` call), then
repeats passes for ``--seconds`` seconds, checking the output of every pass.
The last line of standard output is one JSON object: ``correct``,
``attempted`` and ``failed`` passes, and the metrics, end-to-end with
``--trace 0`` and per layer with ``--trace 1``.  See bench/README.md.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

import numpy as np  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_SECONDS = 3.0       # set-up repeats for this long: 3 to 15 times
TICK_S = 0.1              # speed probe period
PROBE_LOOP = 5000         # iterations of the probe's Python loop
PROBE_STREAM = 1 << 21    # float64 elements the probe adds 1 to (16 MiB)
NOMINAL_PROBE_S = 2.0e-3  # probe duration at nominal speed


class Speedometer:
    """Samples the speed of the CPU this process runs on, every TICK_S.

    On the 2-vCPU machine this benchmark was tuned on, a vCPU's speed
    drifts by up to a third over seconds to minutes; raw pass times of
    unchanged code spread by 13-24% across 20-s runs.  Each tick times a
    fixed probe, about 2 ms: a Python loop, which tracks the interpreter-
    bound workloads, and one pass over a 16 MiB array, which tracks the
    memory-bound ones.  scaled() turns wall time into seconds at nominal
    speed, scaling each stretch between ticks by the speed measured at its
    end.  Fork does not inherit the timer, so a forked child makes its own.
    """

    def __init__(self):
        self.ticks = []  # (probe start, probe duration), in time order
        self.stream = np.zeros(PROBE_STREAM)
        self._tick()
        self.ticks.clear()  # the first probe also faults the array in
        self._tick()
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)

    def _tick(self, signum=None, frame=None):
        start = time.perf_counter()
        total = 0
        for i in range(PROBE_LOOP):
            total += i * i
        np.add(self.stream, 1.0, out=self.stream)
        self.ticks.append((start, time.perf_counter() - start))

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)

    def scaled(self, start: float, end: float) -> float:
        """Seconds at nominal speed of the work done from start to end."""
        total, at, speed = 0.0, start, None
        for t, probe in self.ticks:
            if t >= end:
                break
            if t >= start:
                total += (t - at) * NOMINAL_PROBE_S / probe
                at = t + probe
            speed = NOMINAL_PROBE_S / probe
        return total + (end - at) * speed


def in_child(fn):
    """Run fn() in a forked copy of this process; return its JSON result.

    A copy forked before the first pass holds no package caches, like a
    fresh process that has imported numpy and scipy.
    """
    sys.stdout.flush()
    sys.stderr.flush()
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(read_fd)
        code = 1
        try:
            with os.fdopen(write_fd, "w") as fh:
                json.dump(fn(), fh)
            code = 0
        except BaseException:
            traceback.print_exc()
        finally:
            os._exit(code)
    os.close(write_fd)
    with os.fdopen(read_fd) as fh:
        text = fh.read()
    _, status = os.waitpid(pid, 0)
    if os.waitstatus_to_exitcode(status) != 0:
        raise RuntimeError("forked child failed")
    return json.loads(text)


def import_package() -> None:
    import wnlgo  # noqa: F401


def setup_once(workload, cfg_path: str, cfg: dict) -> None:
    """What a CLI run pays before its first time step.

    Importing the package, parse_config on the workload's JSON (which
    closes the phase set), the seed ProfileSet, and the first
    transport_rhs, which builds and caches the coupling plan.
    """
    from wnlgo import ProfileSet, SpectralGrid, load_config, transport_rhs
    parsed = load_config(cfg_path)
    grid = SpectralGrid(parsed.dim, parsed.half_box, workload.setup_points(cfg))
    state = ProfileSet.from_seed(parsed.phase_set(), grid,
                                 parsed.seed_amplitudes(grid),
                                 parsed.transport_params(1.0))
    transport_rhs(state)


def timed_setup(workload, cfg_path: str, cfg: dict) -> float:
    speed = Speedometer()
    start = time.perf_counter()
    setup_once(workload, cfg_path, cfg)
    end = time.perf_counter()
    speed.stop()
    return speed.scaled(start, end)


def closure_peak_mb(cfg: dict) -> float:
    """tracemalloc peak of one phase-set closure of the workload's seeds."""
    import tracemalloc
    from wnlgo import Signature, close_phase_set
    phases, model = cfg["phases"], cfg["model"]
    tracemalloc.start()
    close_phase_set(phases["phi0"], Signature.from_string(model["signature"]),
                    model["nu"], max_generations=phases.get("max_generations", 8),
                    box_radius=phases["box_radius"])
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    return peak / 2 ** 20


def run_passes(argv, check, seconds: float, speed, recorder) -> dict:
    """One warm-up pass, then timed passes for about `seconds` seconds.

    After the first timed pass, a pass starts only if it should end less
    than half a pass after the deadline, so the timed passes last `seconds`
    on average.  check(rc) raises when the pass's output is wrong.
    """
    from wnlgo import cli
    tally = {"attempted": 0, "failed": 0, "correct": True,
             "walls": [], "times": [], "layers": []}
    deadline, elapsed = None, 0.0
    while deadline is None or tally["attempted"] == 1 or \
            time.perf_counter() + elapsed / 2 < deadline:
        if recorder is not None:
            recorder.reset()
        captured = io.StringIO()
        with contextlib.redirect_stdout(captured):
            start = time.perf_counter()
            rc = cli.main(argv)
            end = time.perf_counter()
        elapsed = end - start
        tally["attempted"] += 1
        try:
            check(rc)
        except Exception as exc:  # a pass whose output cannot be checked fails
            tally["failed"] += 1
            tally["correct"] = tally["correct"] and rc != 0
            sys.stderr.write(f"pass {tally['attempted']} failed: {exc!r}\n"
                             f"{captured.getvalue()}")
            if deadline is None:
                break
            continue
        if deadline is None:
            deadline = time.perf_counter() + seconds
            continue
        tally["walls"].append(elapsed)
        tally["times"].append(speed.scaled(start, end) if speed else elapsed)
        if recorder is not None:
            tally["layers"].append(recorder.summary())
    return tally


def run(args, workload, cfg: dict, run_dir: str):
    """Set-up, passes and metrics of one run; None when no pass succeeded."""
    cfg_path = os.path.join(run_dir, "config.json")
    with open(cfg_path, "w", encoding="utf-8") as fh:
        json.dump(cfg, fh, indent=2)
    out = os.path.join(run_dir, "out")
    argv = ["--config", cfg_path, "--out", out, "--threads", "1",
            workload.command]

    recorder = speed = None
    if args.trace:
        recorder = spans.Recorder()
        spans.count_ffts(recorder)
        spans.instrument(recorder)
        peak_mb = in_child(lambda: closure_peak_mb(cfg))

        def traced_setup():
            recorder.reset()
            setup_once(workload, cfg_path, cfg)
            return recorder.summary()
        setup_layers = in_child(traced_setup)
        setup_layers["resonance.close_phase_set.peak_mb"] = peak_mb
    else:
        in_child(import_package)  # writes the bytecode cache, untimed
        setup = []
        while len(setup) < 3 or (sum(setup) < SETUP_SECONDS and len(setup) < 15):
            setup.append(in_child(lambda: timed_setup(workload, cfg_path, cfg)))
        speed = Speedometer()

    expected = workloads.expectations(workload, cfg)
    try:
        tally = run_passes(
            argv, lambda rc: workloads.run_checks(workload, rc, out, cfg, expected),
            args.seconds, speed, recorder)
    finally:
        if speed is not None:
            speed.stop()
    times, walls = tally["times"], tally["walls"]
    if not times:
        return None
    sys.stderr.write(f"{workload.name} seed {args.seed}: {len(times)} timed "
                     f"passes, median {statistics.median(times):.4f} s (wall "
                     f"{statistics.median(walls):.4f} s, range "
                     f"{min(walls):.4f}-{max(walls):.4f} s)\n")

    if args.trace:
        metrics = {name: {"value": setup_layers.get(name, 0) + statistics.median(
                              layer.get(name, 0) for layer in tally["layers"]),
                          "unit": unit}
                   for name, unit in spans.METRICS}
    else:
        metrics = {
            "sweep_s": {"value": statistics.median(times), "unit": "s"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MB"},
        }
    return {"correct": tally["correct"], "attempted": tally["attempted"],
            "failed": tally["failed"], "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "wnlgo", "__init__.py")):
        sys.stderr.write(f"no wnlgo sources under {ROOT}/src\n")
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import scipy.fft  # noqa: F401  (third-party imports stay outside setup_s)
    import scipy.integrate  # noqa: F401

    workload = workloads.WORKLOADS[args.workload]
    cfg = workload.config(ROOT, args.seed)
    run_dir = os.path.join(HERE, "runs", f"{workload.name}-{os.getpid()}")
    os.makedirs(run_dir)
    try:
        result = run(args, workload, cfg, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    if result is None:
        sys.stderr.write("no pass succeeded\n")
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
