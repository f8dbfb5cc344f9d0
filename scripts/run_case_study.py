#!/usr/bin/env python3
"""Walk the shipped clip-moulding study end to end and print every stage.

Reproduces the recorded screening from the fixture files: run sheet,
S/N table, main effects with deltas and ranks, per-response optima,
additive optimum predictions, and the comparison against the recorded
Moldflow confirmation runs.
"""

from __future__ import annotations

import json
from pathlib import Path

from taguchikit import (
    analyze,
    export_run_sheet,
    fit_surrogate,
    predict_optimum,
    read_results_csv,
    validate,
)
from taguchikit.cli import build_design, load_config
from taguchikit.design import number_label
from taguchikit.reporting import fixed, report_to_text

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"


def main() -> None:
    config = load_config(FIXTURES / "clip_moulding.yaml")
    design, _ = build_design(config)
    results = read_results_csv(
        (FIXTURES / "clip_moulding_results.csv").read_text(encoding="utf-8"),
        expected_responses=[r.name for r in config.responses],
    )
    reference = json.loads((FIXTURES / "moldflow_reference.json").read_text(encoding="utf-8"))

    print("=== Run sheet ===")
    print(export_run_sheet(design))

    report = analyze(design, results, config.responses)
    print("=== Screening ===")
    print(report_to_text(report, config.precision))

    print("=== Optimum predictions vs recorded confirmation runs ===")
    for response in ("cycle_time", "shrinkage"):
        entry = reference["confirmation_runs"][response]
        prediction = predict_optimum(report, response)
        confirmed = validate(prediction, entry["simulated_value"])
        settings = ", ".join(
            f"{name}={number_label(value)}" for name, value in prediction.settings.items()
        )
        print(f"{response}:")
        print(f"  optimum: {settings}")
        print(
            f"  predicted {fixed(prediction.predicted, 4)}"
            f" | confirmation run {number_label(entry['simulated_value'])}"
            f" | error {fixed(confirmed.error_percent, 2)} %"
            f" (recorded: {entry['reported_error_percent']} %)"
        )

    surrogate = fit_surrogate(report, "cycle_time")
    initial = design.runs[0].settings
    print("\n=== Additive surrogate (cycle time) ===")
    print(f"  grand mean: {fixed(surrogate.grand_mean, 4)}")
    print(f"  at the first run's settings: {fixed(surrogate.evaluate(initial), 4)}")
    best = surrogate.evaluate(report.optimal_settings("cycle_time"))
    print(f"  at the predicted optimum:    {fixed(best, 4)}")

    # The response averages parallel and perpendicular shrinkage, so the
    # comparable material limit is the average of the two nominal values.
    limits = reference["material_nominal_shrinkage_percent"]
    nominal = (limits["parallel"] + limits["perpendicular"]) / 2
    shrink = reference["confirmation_runs"]["shrinkage"]["simulated_value"]
    print(
        f"\nConfirmed average shrinkage {number_label(shrink)} % is "
        f"{'below' if shrink < nominal else 'NOT below'} the averaged nominal limit "
        f"{fixed(nominal, 3)} % ({limits['parallel']} % parallel, "
        f"{limits['perpendicular']} % perpendicular)."
    )


if __name__ == "__main__":
    main()
