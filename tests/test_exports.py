"""The package's lazy export table: every public name, and what a CLI import loads."""

from __future__ import annotations

import importlib
import os
import subprocess
import sys
from pathlib import Path

import taguchikit
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
    assert len(namespace) == 29


def _run_python(code: str) -> str:
    """Stdout of ``code`` run in a fresh interpreter that imports the package from ``src``."""
    path = os.pathsep.join(filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")]))
    completed = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert completed.returncode == 0, completed.stderr
    return completed.stdout


def test_cli_import_does_not_load_the_evaluators():
    code = "import sys, taguchikit.cli; print('taguchikit.evaluators' in sys.modules)"
    assert _run_python(code) == "False\n"


def test_validate_does_not_load_yaml(tmp_path):
    prediction = tmp_path / "prediction.json"
    study = [REPO / "fixtures" / name for name in ("clip_moulding.yaml", "clip_moulding_results.csv")]
    argv = ["predict", *map(str, study), "--response", "cycle_time", "--out", str(prediction)]
    assert main(argv) == 0
    code = (
        "import sys; from taguchikit.cli import main; "
        f"code = main(['validate', {str(prediction)!r}, '--confirmed', '22.92']); "
        "print(code, 'yaml' in sys.modules)"
    )
    assert _run_python(code).splitlines()[-1] == "0 False"


def test_each_call_the_benchmark_tracer_wraps_is_still_there():
    # perfbench wraps these names by looking each up in its owner's __dict__; the
    # file is compiled from its text, so no bytecode is written beside it.
    path = REPO / "perfbench" / "tracing.py"
    tracing: dict = {"__name__": "perfbench_tracing"}
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), tracing)
    for owner_path, attr, *_ in tracing["CLI_CALLS"] + tracing["LIBRARY_CALLS"]:
        importlib.import_module(owner_path.partition(":")[0])
        assert attr in vars(tracing["_owner"](owner_path)), f"{owner_path}:{attr}"
