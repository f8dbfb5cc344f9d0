"""Results laid out in many ways for one study, and a naive oracle for how they group into runs."""

from __future__ import annotations

import math

from hypothesis import strategies as st

from taguchikit.design import RunResult


@st.composite
def split_and_shuffled(draw, recorded):
    """The recorded replicates spread over up to three results per run, in random order."""
    parts: dict[tuple[int, int], dict[str, list[float]]] = {}
    for result in recorded:
        for name, ys in result.values.items():
            for y in ys:
                part = draw(st.integers(0, 2))
                parts.setdefault((result.run_number, part), {}).setdefault(name, []).append(y)
    results = [RunResult(run, values) for (run, _), values in parts.items()]
    return draw(st.permutations(results))


@st.composite
def scattered_results(draw, design, names):
    """Per run and response 1-4 replicates, scattered over 1-5 results per run. A result
    may carry only some of the responses, or none, its keys in any order; the results are
    shuffled."""
    results = []
    for run in design.runs:
        carried: list[dict[str, list[float]]] = [{} for _ in range(draw(st.integers(1, 5)))]
        for name in names:
            for y in draw(st.lists(st.floats(1e-3, 1e3), min_size=1, max_size=4)):
                carried[draw(st.integers(0, len(carried) - 1))].setdefault(name, []).append(y)
        for values in carried:
            order = draw(st.permutations(list(values)))
            results.append(RunResult(run.number, {name: values[name] for name in order}))
    return draw(st.permutations(results))


def naive_grouping(design, results):
    """Each design run's replicates per response, in the order they first appear, by one
    scan of every result per run."""
    grouped = []
    for run in design.runs:
        values: dict[str, tuple[float, ...]] = {}
        for result in results:
            if result.run_number == run.number:
                for name, ys in result.values.items():
                    values[name] = values.get(name, ()) + ys
        grouped.append(values)
    return grouped


def naive_means(grouped, name):
    """Each run's mean of one response, from ``naive_grouping``'s replicates."""
    return [math.fsum(values[name]) / len(values[name]) for values in grouped]


def insert_strays(data, results, name):
    """Insert 1-3 results for run numbers the clip design lacks at drawn places in ``results``,
    and return the error that grouping them must raise."""
    strays = data.draw(st.lists(st.sampled_from([-1, 0, 10, 27]), min_size=1, max_size=3))
    for number in strays:
        at = data.draw(st.integers(0, len(results)))
        results.insert(at, RunResult(number, {name: (1.0,)}))
    return "results reference run number(s) not in the design: " + ", ".join(
        map(str, sorted(set(strays)))
    )
