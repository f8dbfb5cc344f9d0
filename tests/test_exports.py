"""The package's lazy export table: every public name, and what a CLI import loads."""

from __future__ import annotations

import importlib
import os
import subprocess
import sys
from pathlib import Path

import taguchikit

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
    assert len(namespace) == 30


def test_cli_import_does_not_load_the_evaluators():
    code = "import sys, taguchikit.cli; print('taguchikit.evaluators' in sys.modules)"
    path = os.pathsep.join(filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")]))
    completed = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout == "False\n"
