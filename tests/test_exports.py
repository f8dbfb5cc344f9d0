"""The package's lazy export table: every public name, and what a CLI import loads."""

from __future__ import annotations

import ast
import gc
import importlib
import os
import pkgutil
import sys
import types
from pathlib import Path

import pytest
import yaml

import taguchikit
import taguchikit.arrays
import taguchikit.errors
import taguchikit.evaluators
from taguchikit.cli import main

REPO = Path(__file__).resolve().parents[1]


def test_each_export_is_the_object_its_module_defines():
    for name in taguchikit.__all__:
        module = importlib.import_module(f"taguchikit.{taguchikit._EXPORTS[name]}")
        value = getattr(taguchikit, name)
        assert value is vars(module)[name], name
        assert getattr(value, "__module__", module.__name__) == module.__name__, name


def test_star_import_binds_every_name():
    namespace: dict = {}
    exec("from taguchikit import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(taguchikit.__all__)
    assert len(namespace) == 27


def test_the_table_replay_is_reached_only_by_its_module_path():
    # Only the benchmark calls TableEvaluator, through taguchikit.evaluators.
    with pytest.raises(AttributeError):
        taguchikit.TableEvaluator
    assert taguchikit.evaluators.TableEvaluator.__module__ == "taguchikit.evaluators"
    # The replay has no error class of its own: a miss is a plain KeyError.
    assert not hasattr(taguchikit.errors, "CombinationNotCoveredError")


def test_the_orthogonality_check_has_no_report_class():
    # verify_orthogonality returns its violations as a tuple; no wrapper is public.
    with pytest.raises(AttributeError):
        taguchikit.VerificationReport
    assert not hasattr(taguchikit.arrays, "VerificationReport")


def _run_python(spawn, code: str, *options: str) -> str:
    """Stdout of ``code`` run by ``python <options> -c`` in a fresh interpreter that imports from ``src``."""
    completed = spawn([sys.executable, *options, "-c", code])
    assert completed.returncode == 0, completed.stderr
    return completed.stdout


@pytest.mark.skipif(sys.version_info < (3, 11), reason="tomllib is new in Python 3.11")
def test_console_script_resolves_to_the_cli_entry_point():
    import tomllib

    with open(REPO / "pyproject.toml", "rb") as handle:
        scripts = tomllib.load(handle)["project"]["scripts"]
    assert scripts == {"taguchikit": "taguchikit.cli:run"}
    assert callable(pkgutil.resolve_name(scripts["taguchikit"]))


@pytest.mark.skipif(sys.version_info < (3, 11), reason="tomllib is new in Python 3.11")
def test_the_package_version_is_the_project_version():
    import tomllib

    with open(REPO / "pyproject.toml", "rb") as handle:
        assert taguchikit.__version__ == tomllib.load(handle)["project"]["version"]


def test_cli_import_does_not_load_the_evaluators(spawn):
    code = "import sys, taguchikit.cli; print('taguchikit.evaluators' in sys.modules)"
    assert _run_python(spawn, code) == "False\n"


def test_importing_the_entry_points_leaves_gc_alone(spawn):
    code = "import gc, taguchikit.cli, taguchikit.__main__; print(gc.isenabled(), gc.get_freeze_count())"
    assert _run_python(spawn, code) == "True 0\n"


def test_main_leaves_gc_alone(capsys):
    study = [REPO / "fixtures" / name for name in ("clip_moulding.yaml", "clip_moulding_results.csv")]
    assert main(["analyze", *map(str, study), "--format", "json"]) == 0
    assert (gc.isenabled(), gc.get_freeze_count()) == (True, 0)


def test_validate_does_not_load_yaml(tmp_path, spawn):
    prediction = tmp_path / "prediction.json"
    study = [REPO / "fixtures" / name for name in ("clip_moulding.yaml", "clip_moulding_results.csv")]
    argv = ["predict", *map(str, study), "--response", "cycle_time", "--out", str(prediction)]
    assert main(argv) == 0
    code = (
        "import sys; from taguchikit.cli import main; "
        f"code = main(['validate', {str(prediction)!r}, '--confirmed', '22.92']); "
        "print(code, 'yaml' in sys.modules)"
    )
    assert _run_python(spawn, code).splitlines()[-1] == "0 False"


def _modules_loaded_by(spawn, argv: list[str], bare: bool = False) -> set[str]:
    """Modules that ``from taguchikit.cli import main`` and ``main(argv)`` load in a fresh interpreter.

    Modules already loaded before that import, by ``site`` for example, are not
    counted. A ``bare`` interpreter runs under ``python -S``, so ``site`` and the
    ``.pth`` files it runs load nothing; PyYAML's directory is appended to its path.
    """
    setup = ""
    if bare:
        setup = f"sys.path.append({os.path.dirname(os.path.dirname(yaml.__file__))!r}); "
    code = (
        f"import sys; {setup}before = set(sys.modules); from taguchikit.cli import main; "
        f"code = main({argv!r}); print(code, *sorted(set(sys.modules) - before))"
    )
    code, *loaded = _run_python(spawn, code, *(["-S"] if bare else [])).split()
    assert code == "0"
    return set(loaded)


STUDY = [str(REPO / "fixtures" / name) for name in ("clip_moulding.yaml", "clip_moulding_results.csv")]
# Modules each command must not load; no command reaches the evaluators, which only the benchmark calls.
COMMANDS = pytest.mark.parametrize(
    "argv,absent",
    [
        (["design", STUDY[0]], {"json", "decimal", "taguchikit.evaluators"}),
        (["analyze", *STUDY, "--format", "text"], {"json", "taguchikit.evaluators"}),
        (["analyze", *STUDY, "--format", "json"], {"decimal", "taguchikit.evaluators"}),
        (
            ["predict", *STUDY, "--response", "cycle_time", "--format", "json"],
            {"decimal", "taguchikit.evaluators"},
        ),
    ],
    ids=["design", "analyze-text", "analyze-json", "predict-json"],
)


@COMMANDS
def test_command_loads_neither_json_nor_decimal_unless_it_writes_them(tmp_path, spawn, argv, absent):
    loaded = _modules_loaded_by(spawn, argv + ["--out", str(tmp_path / "out")])
    assert not absent & loaded


@COMMANDS
def test_command_in_a_bare_interpreter_loads_neither_typing_nor_pathlib(tmp_path, spawn, argv, absent):
    loaded = _modules_loaded_by(spawn, argv + ["--out", str(tmp_path / "out")], bare=True)
    assert not ({"typing", "pathlib"} | absent) & loaded


def test_validate_in_a_bare_interpreter_loads_neither_typing_nor_pathlib(tmp_path, spawn):
    prediction = str(tmp_path / "prediction.json")
    assert main(["predict", *STUDY, "--response", "cycle_time", "--out", prediction]) == 0
    argv = ["validate", prediction, "--confirmed", "22.92", "--format", "json"]
    argv += ["--out", str(tmp_path / "out")]
    absent = {"typing", "pathlib", "decimal", "taguchikit.evaluators"}
    assert not absent & _modules_loaded_by(spawn, argv, bare=True)


def test_each_call_the_benchmark_tracer_wraps_is_still_there():
    # perfbench wraps these names by looking each up in its owner's __dict__; the
    # file is compiled from its text, so no bytecode is written beside it.
    path = REPO / "perfbench" / "tracing.py"
    tracing: dict = {"__name__": "perfbench_tracing"}
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), tracing)
    for owner_path, attr, *_ in tracing["CLI_CALLS"] + tracing["LIBRARY_CALLS"]:
        importlib.import_module(owner_path.partition(":")[0])
        assert attr in vars(tracing["_owner"](owner_path)), f"{owner_path}:{attr}"


def _bound(module: str, name: str):
    """What ``from <module> import <name>`` binds, or None where that import fails."""
    try:
        return getattr(importlib.import_module(module), name)
    except AttributeError:
        pass
    try:
        return importlib.import_module(f"{module}.{name}")
    except ModuleNotFoundError:
        return None


def _package_reads(path: Path) -> set[tuple[str, str]]:
    """``(module, name)`` for each name a file takes from the package, found in its syntax.

    These are the names of each ``from taguchikit... import`` statement, and each
    attribute read on a submodule that ``from taguchikit import a, b`` binds, by its
    own name or by one it is assigned to (``self.a = a``), within the top-level
    statement that imports it.
    """
    reads = set()
    for scope in ast.parse(path.read_text(encoding="utf-8")).body:
        nodes = list(ast.walk(scope))
        modules = {}  # source text of an expression -> the submodule it names
        for node in nodes:
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "taguchikit":
                for alias in node.names:
                    reads.add((node.module, alias.name))
                    if isinstance(_bound(node.module, alias.name), types.ModuleType):
                        modules[alias.asname or alias.name] = f"{node.module}.{alias.name}"
        for node in nodes:
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    pairs = [(target, node.value)]
                    if isinstance(target, ast.Tuple) and isinstance(node.value, ast.Tuple):
                        pairs = zip(target.elts, node.value.elts)
                    for name, value in pairs:
                        if ast.unparse(value) in modules:
                            modules[ast.unparse(name)] = modules[ast.unparse(value)]
        for node in nodes:
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                module = modules.get(ast.unparse(node.value))
                if module is not None:
                    reads.add((module, node.attr))
    return reads


def test_each_package_name_the_benchmark_reads_is_still_there():
    # The workload and perfbench's own tests are parsed, not imported or run.
    workload = _package_reads(REPO / "perfbench" / "workloads.py")
    tests = _package_reads(REPO / "perfbench" / "tests" / "test_perfbench.py")
    assert {
        ("taguchikit.analysis", "read_results_csv"),
        ("taguchikit.analysis", "RunResult"),
        ("taguchikit.cli", "load_config"),
        ("taguchikit.cli", "build_design"),
        ("taguchikit.evaluators", "TableEvaluator"),
        ("taguchikit.evaluators", "fit_surrogate"),
        ("taguchikit.reporting", "report_to_json"),
    } <= workload
    assert {
        ("taguchikit.analysis", "analyze"),
        ("taguchikit.analysis", "read_results_csv"),
        ("taguchikit.reporting", "report_to_json_dict"),
    } <= tests
    missing = sorted(f"{module}.{name}" for module, name in workload | tests if _bound(module, name) is None)
    assert missing == []


def test_the_only_reach_into_another_modules_private_names_is_evaluators_into_analysis():
    # A new reach fails here. Deleting TableEvaluator and folding the surrogate into
    # analysis, as ROADMAP plans for the benchmark's next change, removes all three.
    reached = {
        (path.stem, module, name)
        for path in (REPO / "src" / "taguchikit").glob("*.py")
        for module, name in _package_reads(path)
        if name.startswith("_")
    }
    assert reached == {
        ("evaluators", "taguchikit.analysis", name)
        for name in ("_additive_sum", "_mean", "_row_replicates")
    }
