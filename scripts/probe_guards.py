"""Mutation probe: does the tier-1 suite fail without each input guard in ``src/``?

Probe A sets the condition of each ``if`` whose body is one ``raise`` to ``False``;
probe B drops each member of each ``except`` tuple in turn. Each mutant runs
``pytest -x -q`` in a copy of the tree in a temporary directory (the checkout is
never written) and prints ``killed`` (tests failed), ``survived`` (they passed) or
``error`` (pytest exited otherwise). An unmutated copy runs first and must pass.
Stdlib only, and not part of CI:  python scripts/probe_guards.py [arrays.py ...]
"""

import ast
import os
import shutil
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = Path("src", "taguchikit")
JOBS = 2  # mutants run at once
TIMEOUT = 600.0  # seconds per tier-1 run


def mutants(source: str):
    """``(line, label, mutated source)`` for each guard and each ``except`` tuple member, by line."""
    data, starts = source.encode(), [0]  # ast offsets count UTF-8 bytes
    for line in data.splitlines(keepends=True):
        starts.append(starts[-1] + len(line))

    def replace(node: ast.AST, text: str) -> str:
        start = starts[node.lineno - 1] + node.col_offset
        end = starts[node.end_lineno - 1] + node.end_col_offset
        return (data[:start] + text.encode() + data[end:]).decode()

    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.If) and len(node.body) == 1 and isinstance(node.body[0], ast.Raise):
            found.append((node.lineno, "if-raise -> False", replace(node.test, "False")))
        elif isinstance(node, ast.ExceptHandler) and isinstance(node.type, ast.Tuple):
            for i, member in enumerate(node.type.elts):
                rest = ast.unparse(ast.Tuple(node.type.elts[:i] + node.type.elts[i + 1 :], ast.Load()))
                found.append((node.lineno, f"except drops {ast.unparse(member)}", replace(node.type, rest)))
    return sorted(found)


def main() -> int:
    suffixes = tuple(sys.argv[1:] or [""])  # probe only files whose name ends with one of these
    files = [p for p in sorted((ROOT / PACKAGE).glob("*.py")) if p.name.endswith(suffixes)]
    sites = [(p.name, *site) for p in files for site in mutants(p.read_text(encoding="utf-8"))]
    ignore = shutil.ignore_patterns(".git", "__pycache__", ".hypothesis", ".pytest_cache", "out", ".work-*")
    with tempfile.TemporaryDirectory(prefix="probe-guards-") as scratch:

        def run(k: int) -> str:
            tree = Path(shutil.copytree(ROOT, Path(scratch, str(k)), ignore=ignore))  # a fresh copy each
            if k >= 0:
                name, line, label, text = sites[k]
                (tree / PACKAGE / name).write_text(text, encoding="utf-8")
            env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
            argv = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider"]
            try:
                done = subprocess.run(argv, cwd=tree, env=env, capture_output=True, timeout=TIMEOUT)
                verdict = {0: "survived", 1: "killed"}.get(done.returncode, f"error (exit {done.returncode})")
            except subprocess.TimeoutExpired:
                verdict = "killed (timeout)"
            shutil.rmtree(tree)
            return verdict if k < 0 else f"{verdict:9} {name}:{line}  {label}"

        if (baseline := run(-1)) != "survived":  # tier-1 must pass before a mutant's failure means anything
            sys.exit(f"tier-1 on an unmutated copy gave {baseline!r}, not a pass; no mutant run")
        with ThreadPoolExecutor(JOBS) as pool:
            for result in pool.map(run, range(len(sites))):
                print(result, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
