from __future__ import annotations

import json
import os
import subprocess
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
FIXTURES = REPO / "fixtures"

# The fixtures import the package in their bodies: a package that cannot be
# imported then fails each test module's collection (pytest exit 1), where a
# failing import here would stop pytest before its first test (exit 4).


@pytest.fixture(scope="session")
def fixtures_dir() -> Path:
    return FIXTURES


@pytest.fixture(scope="session")
def clip_config():
    from taguchikit.cli import load_config

    return load_config(FIXTURES / "clip_moulding.yaml")


@pytest.fixture(scope="session")
def clip_design(clip_config):
    from taguchikit.cli import build_design

    design, _ = build_design(clip_config)
    return design


@pytest.fixture(scope="session")
def clip_results():
    from taguchikit.design import read_results_csv

    return read_results_csv((FIXTURES / "clip_moulding_results.csv").read_text(encoding="utf-8"))


@pytest.fixture(scope="session")
def clip_report(clip_design, clip_results, clip_config):
    from taguchikit.analysis import analyze

    return analyze(clip_design, clip_results, clip_config.responses)


@pytest.fixture(scope="session")
def moldflow_reference():
    return json.loads((FIXTURES / "moldflow_reference.json").read_text(encoding="utf-8"))


@pytest.fixture(scope="session")
def spawn():
    """Run a command in a fresh process that imports the package from ``src``.

    ``PYTHONUNBUFFERED`` is dropped, so a child Python buffers a stdout that
    is not a terminal, as it does for a user: a failing write then shows only
    when the buffer is flushed. Keyword arguments go to ``subprocess.run``.
    """
    path = os.pathsep.join(filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")]))
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = path

    def run(argv: list[str], **kwargs) -> subprocess.CompletedProcess:
        options = {"stdout": subprocess.PIPE, "stderr": subprocess.PIPE, "text": True, "timeout": 60}
        return subprocess.run(argv, env=env, **{**options, **kwargs})

    return run


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    try:
        from _acceptance_log import RESULTS
    except ImportError:  # acceptance module not collected in this run
        return
    if not RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for criterion, description, passed in RESULTS:
        status = "PASS" if passed else "FAIL"
        terminalreporter.write_line(f"[{status}] {criterion}: {description}")
