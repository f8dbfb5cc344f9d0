"""The whole screening through ``main()``, checked against a naive reference kept here.

The reference recomputes run means, S/N ratios, level means, the grand mean,
deltas, ranks, optima and the additive prediction with plain loops and
``sum``; each level mean is a filter over the rows. It shares no code with
``taguchikit.analysis``. Only the catalog's rows come from the package, and
``tests/test_arrays.py`` pins those.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import tempfile
from itertools import combinations
from pathlib import Path

from hypothesis import assume, given, settings, strategies as st

from taguchikit.arrays import get_array
from taguchikit.cli import main

# (name, levels, columns) of each catalog array, smallest first within a level count.
CATALOG = [("L4", 2, 3), ("L8", 2, 7), ("L16", 2, 15), ("L9", 3, 4), ("L27", 3, 13)]
OBJECTIVES = ["smaller-the-better", "larger-the-better", "nominal-the-best"]
REL = 1e-9


def reference(cells, levels, objective, target, replicates):
    """Naive screening of one response: ``replicates[i]`` holds run ``i + 1``'s values."""
    def mean(xs):
        return sum(xs) / len(xs)

    def level_means(per_run):
        return [
            [mean([x for row, x in zip(cells, per_run) if row[f] == level])
             for level in range(levels)]
            for f in range(len(cells[0]))
        ]

    score = {
        "smaller-the-better": lambda m: m,
        "larger-the-better": lambda m: -m,
        "nominal-the-best": lambda m: abs(m - target),
    }[objective]
    deviation = {
        "smaller-the-better": lambda y: y * y,
        "larger-the-better": lambda y: 1 / (y * y),
        "nominal-the-best": lambda y: (y - target) ** 2,
    }[objective]
    means = [mean(ys) for ys in replicates]
    msd = [mean([deviation(y) for y in ys]) for ys in replicates]
    assume(all(m > 0 for m in msd))  # an S/N ratio of +inf dB is refused, not screened
    by_level = level_means(means)
    return {
        "means": means,
        "snr": [-10 * math.log10(m) for m in msd],
        "grand_mean": mean(means),
        "level_means": by_level,
        "snr_level_means": level_means([-10 * math.log10(m) for m in msd]),
        "deltas": [max(row) - min(row) for row in by_level],
        "scores": [[score(m) for m in row] for row in by_level],
        "score": score,
    }


def assert_close(actual, expected, scale):
    """Floats, or nested lists of them, agree within ``REL`` of ``scale``."""
    if isinstance(expected, list):
        assert len(actual) == len(expected)
        for a, e in zip(actual, expected):
            assert_close(a, e, scale)
    else:
        assert math.isclose(actual, expected, rel_tol=REL, abs_tol=REL * scale), (actual, expected)


def run_main(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    return out.getvalue()


@st.composite
def studies(draw):
    """A design cut from one catalog array, its responses, and replicated results."""
    name, levels, columns = draw(st.sampled_from(CATALOG))
    smaller = max((c for _, q, c in CATALOG if q == levels and c < columns), default=0)
    k = draw(st.integers(smaller + 1, columns))  # array: auto picks ``name`` for k factors
    quarters = st.lists(st.integers(-40, 40), min_size=levels, max_size=levels, unique=True)
    factor_levels = [[x / 4 for x in sorted(draw(quarters))] for _ in range(k)]
    specs = []
    objectives = draw(st.lists(st.sampled_from(OBJECTIVES), min_size=1, max_size=3))
    for i, objective in enumerate(objectives):
        target = None
        if objective == "nominal-the-best":
            target = draw(st.sampled_from([0.75, 2.5, 40.0]))
        # Few distinct values make bit-equal level means, so the tie rules run too.
        values = draw(st.sampled_from([st.integers(1, 4).map(float), st.floats(0.01, 1000.0)]))
        specs.append((f"r{i}", objective, target, values))
    runs = len(get_array(name).cells)
    rows = [
        (run, {r: draw(values) for r, _, _, values in specs})
        for run in range(1, runs + 1)
        for _ in range(draw(st.integers(1, 4)))
    ]
    return name, factor_levels, [s[:3] for s in specs], draw(st.permutations(rows))


class TestReferenceScreening:
    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(study=studies(), data=st.data())
    def test_cli_agrees_with_the_reference(self, study, data):
        name, factor_levels, specs, rows = study
        k, levels = len(factor_levels), len(factor_levels[0])
        cells = [row[:k] for row in get_array(name).cells]
        names = [r for r, _, _ in specs]
        columns = data.draw(st.permutations(names))
        config = "array: auto\nfactors:\n" + "".join(
            f'  - {{name: f{j}, unit: "", levels: [{", ".join(map(repr, ls))}]}}\n'
            for j, ls in enumerate(factor_levels)
        ) + "responses:\n" + "".join(
            f'  - {{name: {r}, unit: "", objective: {o}'
            + (f", target: {t!r}}}\n" if t is not None else "}\n")
            for r, o, t in specs
        )
        table = "run," + ",".join(columns) + "\n" + "".join(
            f"{run}," + ",".join(repr(values[r]) for r in columns) + "\n" for run, values in rows
        )
        replicates = {
            r: [[values[r] for run, values in rows if run == i + 1] for i in range(len(cells))]
            for r in names
        }
        expected = {r: reference(cells, levels, o, t, replicates[r]) for r, o, t in specs}
        chosen = data.draw(st.lists(st.integers(0, levels - 1), min_size=k, max_size=k))
        response = data.draw(st.sampled_from(names))
        with tempfile.TemporaryDirectory() as scratch:
            config_path, results_path = Path(scratch) / "study.yaml", Path(scratch) / "results.csv"
            config_path.write_text(config, encoding="utf-8")
            results_path.write_text(table, encoding="utf-8")
            study_args = [str(config_path), str(results_path)]
            report = json.loads(run_main(["analyze", *study_args, "--format", "json"]))
            # "--levels=" keeps a negative first value from reading as an option.
            at = ",".join(repr(factor_levels[f][level]) for f, level in enumerate(chosen))
            prediction = json.loads(
                run_main(["predict", *study_args, "--response", response, f"--levels={at}"])
            )
            sheet = run_main(["design", str(config_path), "--array", "auto"])

        # design --array auto: the first k columns of the smallest fitting array.
        note, header, *sheet_rows = sheet.splitlines()
        assert note == f"# array: {name} (auto-selected for {k} factors x {levels} levels)"
        assert header == "run," + ",".join(f"f{j}" for j in range(k))
        assert [[float(c) for c in line.split(",")] for line in sheet_rows] == [
            [i + 1] + [factor_levels[f][level] for f, level in enumerate(row)]
            for i, row in enumerate(cells)
        ]

        assert report["design"]["array"] == name
        assert [r["name"] for r in report["responses"]] == names
        for body, (r, _, target) in zip(report["responses"], specs):
            ref = expected[r]
            scale = max(abs(y) for ys in replicates[r] for y in ys) + abs(target or 0)
            snr_scale = max(map(abs, ref["snr"])) + 1
            assert_close([run["mean"] for run in body["runs"]], ref["means"], scale)
            assert_close([run["snr"] for run in body["runs"]], ref["snr"], snr_scale)
            assert_close(body["grand_mean"], ref["grand_mean"], scale)
            factors = body["factors"]
            assert_close([f["level_means"] for f in factors], ref["level_means"], scale)
            assert_close([f["snr_level_means"] for f in factors], ref["snr_level_means"], snr_scale)
            deltas = [f["delta"] for f in factors]
            assert_close(deltas, ref["deltas"], scale)

            # Ranks: the documented rule on the reported deltas (larger first, ties to the
            # earlier column), and the reference's order wherever its margin is clear.
            ranks = [f["rank"] for f in factors]
            by_rule = sorted(range(k), key=lambda f: (-deltas[f], f))
            assert ranks == [by_rule.index(f) + 1 for f in range(k)]
            for a, b in combinations(range(k), 2):
                if abs(ref["deltas"][a] - ref["deltas"][b]) > REL * scale:
                    assert (ranks[a] < ranks[b]) == (ref["deltas"][a] > ref["deltas"][b])

            # Optima: the documented rule on the reported level means (ties to the lower
            # level, flagged), and the reference's choice wherever its margin is clear.
            for f, factor in enumerate(factors):
                scores = [ref["score"](m) for m in factor["level_means"]]
                winners = [level for level, s in enumerate(scores) if s == min(scores)]
                optimum = factor["optimal_level"]
                assert (optimum["label"] - 1, optimum["tie"]) == (winners[0], len(winners) > 1)
                assert optimum["value"] == factor_levels[f][winners[0]]
                assert body["optimal_settings"][f"f{f}"] == optimum["value"]
                best, *others = sorted(ref["scores"][f])
                if others[0] - best > REL * scale:
                    assert optimum["label"] - 1 == ref["scores"][f].index(best)

        ref = expected[response]
        predicted = ref["grand_mean"] + sum(
            ref["level_means"][f][level] - ref["grand_mean"] for f, level in enumerate(chosen)
        )
        scale = max(abs(y) for ys in replicates[response] for y in ys)
        assert prediction["response"] == response
        assert prediction["levels"] == [level + 1 for level in chosen]
        settings_at = {f"f{f}": factor_levels[f][level] for f, level in enumerate(chosen)}
        assert prediction["settings"] == settings_at
        assert_close(prediction["predicted"], predicted, k * scale)
