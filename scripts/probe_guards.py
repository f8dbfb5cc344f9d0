"""Mutation probe: does the tier-1 suite fail without each statement in ``src/``?

Probe A sets the condition of each ``if`` whose body is one ``raise`` to ``False``;
probe B drops each member of each ``except`` tuple in turn; probe C replaces each
statement with ``pass`` (an ``elif`` with ``else: pass``), except ``def``, ``class``,
``import``, ``return``, ``raise``, ``pass`` and docstrings. Each mutant runs
``pytest -x -q`` in a copy of the tree in a temporary directory (the checkout is
never written) and prints ``killed`` (tests failed), ``survived`` (they passed) or
``error`` (pytest exited otherwise) with its probe's letter. A statement whose first
line carries ``# probe: speed <measurement>`` changes only time or memory: it is not
run, and prints ``skipped``. One tally line ends the run. An unmutated copy runs
first and must pass. Stdlib only; the probe-guards workflow runs it weekly and fails
on a ``survived`` or ``error`` line:  python scripts/probe_guards.py [arrays.py ...]
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
# Statements probe C leaves in place, and the mark of one kept for speed alone.
KEPT = (ast.FunctionDef, ast.ClassDef, ast.Import, ast.ImportFrom, ast.Return, ast.Raise, ast.Pass)
SPEED = "# probe: speed "


def mutants(source: str):
    """``(line, probe, label, mutated source)`` for each site, by line; the source is ``None`` if skipped."""
    data, starts = source.encode(), [0]  # ast offsets count UTF-8 bytes
    for line in data.splitlines(keepends=True):
        starts.append(starts[-1] + len(line))

    def replace(node: ast.AST, text: str) -> str:
        start = starts[node.lineno - 1] + node.col_offset
        end = starts[node.end_lineno - 1] + node.end_col_offset
        return (data[:start] + text.encode() + data[end:]).decode()

    found, lines = [], source.splitlines()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.If) and len(node.body) == 1 and isinstance(node.body[0], ast.Raise):
            found.append((node.lineno, "A", "if-raise -> False", replace(node.test, "False")))
        elif isinstance(node, ast.ExceptHandler) and isinstance(node.type, ast.Tuple):
            for i, member in enumerate(node.type.elts):
                rest = ast.unparse(ast.Tuple(node.type.elts[:i] + node.type.elts[i + 1 :], ast.Load()))
                found.append((node.lineno, "B", f"except drops {ast.unparse(member)}", replace(node.type, rest)))
        docstring = isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
        if isinstance(node, ast.stmt) and not isinstance(node, KEPT) and not docstring:
            line = lines[node.lineno - 1]
            text = "else: pass" if line[node.col_offset :].startswith("elif") else "pass"
            mutant = None if SPEED in line else replace(node, text)
            found.append((node.lineno, "C", f"{type(node).__name__.lower()} -> {text}", mutant))
    return sorted(found, key=lambda site: site[:2])


def main() -> int:
    suffixes = tuple(sys.argv[1:] or [""])  # probe only files whose name ends with one of these
    files = [p for p in sorted((ROOT / PACKAGE).glob("*.py")) if p.name.endswith(suffixes)]
    sites = [(p.name, *site) for p in files for site in mutants(p.read_text(encoding="utf-8"))]
    ignore = shutil.ignore_patterns(".git", "__pycache__", ".hypothesis", ".pytest_cache", "out", ".work-*")
    with tempfile.TemporaryDirectory(prefix="probe-guards-") as scratch:

        def tier1(k: int, name: str = "", text: str = "") -> str:
            """Tier-1's verdict on a fresh copy of the tree, with ``text`` as file ``name`` if given."""
            tree = Path(shutil.copytree(ROOT, Path(scratch, str(k)), ignore=ignore))
            if text:
                (tree / PACKAGE / name).write_text(text, encoding="utf-8")
            env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
            argv = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider"]
            try:
                done = subprocess.run(argv, cwd=tree, env=env, capture_output=True, timeout=TIMEOUT)
                verdict = {0: "survived", 1: "killed"}.get(done.returncode, f"error (exit {done.returncode})")
            except subprocess.TimeoutExpired:
                verdict = "killed (timeout)"
            shutil.rmtree(tree)
            return verdict

        def run(k: int) -> str:
            name, line, probe, label, text = sites[k]
            verdict = "skipped" if text is None else tier1(k, name, text)
            return f"{verdict:9} {probe} {name}:{line}  {label}"

        if (baseline := tier1(-1)) != "survived":  # tier-1 must pass before a mutant's failure means anything
            sys.exit(f"tier-1 on an unmutated copy gave {baseline!r}, not a pass; no mutant run")
        tally = dict.fromkeys(("killed", "survived", "error", "skipped"), 0)
        with ThreadPoolExecutor(JOBS) as pool:
            for result in pool.map(run, range(len(sites))):
                print(result, flush=True)
                tally[result.split()[0]] += 1
    print(", ".join(f"{verdict} {count}" for verdict, count in tally.items()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
