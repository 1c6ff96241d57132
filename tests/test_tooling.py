"""The benchmark's span table and command lines against the package, and
the package's imports.

bench/spans.py wraps package functions by name and reads their arguments by
name, and bench/run.py builds each workload's CLI arguments; a rename in the
package or a change to the CLI would otherwise only show as a missing or
failing benchmark run.  No linter ships with the package, so an import left
behind when code moves out is caught here.
"""

import ast
import importlib
import importlib.util
import inspect
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from wnlgo import GridFunction, ModelParams, ProfileSet, Signature, \
    SpectralGrid, TransportParams, close_phase_set, davey_stewartson, \
    evolve_profiles, evolve_semiclassical, oscillatory_initial_data
from wnlgo.cli import build_parser
from wnlgo.experiments import load_config, parse_config
from wnlgo.transport import _steps

BENCH = Path(__file__).resolve().parents[1] / "bench"
CONFIGS = Path(__file__).resolve().parents[1] / "configs"
PACKAGE = Path(__file__).resolve().parents[1] / "src" / "wnlgo"


def _bench_module(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}",
                                                  BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


spans = _bench_module("spans")
workloads = _bench_module("workloads")
COUNTERS = {(module, name): counter for module, name, counter in spans.SPANNED}


@pytest.mark.parametrize("module, name", sorted(COUNTERS))
def test_every_spanned_function_exists(module, name):
    assert callable(getattr(importlib.import_module("wnlgo." + module), name))


def counted(fn, module, first, keywords, **times):
    """The counter of fn's span on fn(first, t_end, dt), with the times passed
    by keyword or by position, bound as the span binds them."""
    signature = inspect.signature(fn)
    bound = signature.bind(first, **times) if keywords \
        else signature.bind(first, *times.values())
    return COUNTERS[module, fn.__name__](bound.arguments, None)


# (t_end - time) / dt = 4.9: each counter rounds the step count as the
# package does
@pytest.mark.parametrize("keywords", [False, True])
def test_split_step_counter_reads_the_evolver_arguments(keywords):
    grid = SpectralGrid(2, np.pi, 16)
    params = ModelParams(1.0, 1.0, 1.0, 0.0, 1, Signature.elliptic(2),
                         davey_stewartson())
    field = oscillatory_initial_data(grid, [(1, 0)], [0.5], params)
    got = counted(evolve_semiclassical, "solver", field, keywords,
                  t_end=0.049, dt=0.01)
    assert got == {"solver.point_steps": _steps(0.049, 0.01)[0] * grid.size}


@pytest.mark.parametrize("keywords", [False, True])
def test_profile_counter_reads_the_evolver_arguments(keywords):
    grid = SpectralGrid(2, np.pi, 16)
    params = TransportParams(1.0, 0.0, 1, davey_stewartson())
    ps = close_phase_set([(1, 0), (1, 1), (0, 1)], Signature.elliptic(2), 1,
                         box_radius=1)
    state = ProfileSet.from_seed(ps, grid, [GridFunction.zeros(grid)] * 3,
                                 params, time=0.5)
    got = counted(evolve_profiles, "transport", state, keywords,
                  t_end=0.549, dt=0.01)
    assert got == {"transport.rk4_steps": _steps(0.049, 0.01)[0]}


def budget_configs():
    """Every shipped config, and each benchmark workload's at seed 1."""
    for path in sorted(CONFIGS.glob("*.json")):
        yield pytest.param(json.loads(path.read_text(encoding="utf-8")),
                           id=path.stem)
    for name, workload in sorted(workloads.WORKLOADS.items()):
        yield pytest.param(workload.config(str(CONFIGS.parent), 1), id=name)


@pytest.mark.parametrize("raw", budget_configs())
def test_shipped_and_benchmark_configs_fit_every_budget(raw):
    # the budgets are anchored on these runs (and the tests'); simulate also
    # solves the whole box of the first eps of a field config, and profiles
    # and simulate evolve its profile system
    cfg = parse_config(raw)
    work = cfg.work
    if cfg.closure is not None:
        work += cfg.eps_work(cfg.eps_list[0], cells=False) + cfg.profile_work()
    assert [item.text for item in work if item.count > item.budget] == []


def bench_argv(workload):
    """The CLI arguments bench/run.py's run() passes for workload, read from
    its source; a path there is a placeholder string."""
    tree = ast.parse((BENCH / "run.py").read_text(encoding="utf-8"))
    run = next(node for node in tree.body
               if isinstance(node, ast.FunctionDef) and node.name == "run")
    argv, = [node.value for node in ast.walk(run)
             if isinstance(node, ast.Assign)
             and [ast.unparse(t) for t in node.targets] == ["argv"]]

    def value(node):
        if isinstance(node, ast.Constant):
            return node.value
        if ast.unparse(node) == "workload.command":
            return workload.command
        return f"<{ast.unparse(node)}>"
    return [value(node) for node in argv.elts]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_cli_accepts_the_benchmark_arguments(name):
    workload = workloads.WORKLOADS[name]
    argv = bench_argv(workload)
    assert workload.command in argv
    args = build_parser().parse_args(argv)
    assert args.command == workload.command


def package_uses(script):
    """What a bench script takes from the package, read from its source:
    (name, object) for each name it imports from wnlgo; (name, keyword,
    object) for each keyword it passes to one of them; and (receiver, attr)
    for each attribute it reads on one of them or on a value that
    load_config returned."""
    tree = ast.parse((BENCH / script).read_text(encoding="utf-8"))
    imported = {alias.asname or alias.name: getattr(
                    importlib.import_module(node.module), alias.name)
                for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom)
                and node.module.split(".")[0] == "wnlgo"
                for alias in node.names}
    configs = {target.id for node in ast.walk(tree)
               if isinstance(node, ast.Assign)
               and isinstance(node.value, ast.Call)
               and ast.unparse(node.value.func) == "load_config"
               for target in node.targets}
    keywords = [(node.func.id, kw.arg, imported[node.func.id])
                for node in ast.walk(tree) if isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id in imported for kw in node.keywords]
    attributes = [(node.value.id, node.attr) for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute)
                  and isinstance(node.value, ast.Name)
                  and node.value.id in set(imported) | configs]
    return imported, keywords, attributes


@pytest.mark.parametrize("script", ["run.py", "selftest.py", "spans.py"])
def test_bench_finds_what_it_uses_in_the_package(script):
    """Each name a bench script imports from the package exists (an import
    that fails raises here), each keyword it passes is a parameter, and each
    attribute it reads exists, on a loaded config for load_config's result."""
    imported, keywords, attributes = package_uses(script)
    assert imported
    for name, keyword, fn in keywords:
        assert keyword in inspect.signature(fn).parameters, (name, keyword)
    config = load_config(str(CONFIGS / "converge_ds_elliptic.json"))
    for receiver, attr in attributes:
        owner = imported[receiver] if receiver in imported else config
        assert hasattr(owner, attr), (receiver, attr)


def test_bench_run_reads_the_setup_api():
    # the names above, for bench/run.py's set-up and closure probe
    imported, keywords, attributes = package_uses("run.py")
    assert {"load_config", "ProfileSet", "SpectralGrid", "transport_rhs",
            "Signature", "close_phase_set", "cli"} <= set(imported)
    assert {("close_phase_set", "max_generations"),
            ("close_phase_set", "box_radius")} <= {k[:2] for k in keywords}
    assert {("ProfileSet", "from_seed"), ("Signature", "from_string"),
            ("cli", "main"), ("parsed", "phase_set"),
            ("parsed", "seed_amplitudes"), ("parsed", "transport_params"),
            ("parsed", "half_box"), ("parsed", "dim")} <= set(attributes)


def counter_arguments(counter):
    """The argument names a bench/spans.py counter reads, args["name"]."""
    tree = ast.parse(inspect.getsource(counter))
    return {node.slice.value for node in ast.walk(tree)
            if isinstance(node, ast.Subscript)
            and ast.unparse(node.value) == "args"
            and isinstance(node.slice, ast.Constant)}


@pytest.mark.parametrize("module, name", sorted(
    key for key, counter in COUNTERS.items() if counter is not None))
def test_span_counters_read_parameters_of_their_function(module, name):
    fn = getattr(importlib.import_module("wnlgo." + module), name)
    read = counter_arguments(COUNTERS[module, name])
    assert read <= set(inspect.signature(fn).parameters)


def test_spans_read_these_names():
    # the parse above finds every argument the counters read, and
    # spans.instrument wraps the two transform methods by name
    assert set().union(*map(counter_arguments, filter(None, COUNTERS.values()))) \
        == {"values", "field", "t_end", "dt", "state", "path"}
    for method in ("forward", "inverse"):
        assert callable(getattr(SpectralGrid, method))


@pytest.mark.parametrize("name", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_every_import_is_used(name):
    """Each name a module imports is read in it, or re-exported in its
    __all__ (the package's __init__)."""
    tree = ast.parse((PACKAGE / name).read_text(encoding="utf-8"))
    imported = {alias.asname or alias.name.split(".")[0]
                for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom))
                and getattr(node, "module", None) != "__future__"
                for alias in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) \
                and [ast.unparse(t) for t in node.targets] == ["__all__"]:
            used |= set(ast.literal_eval(node.value))
    assert sorted(imported - used) == []
