"""Emit analysis reports and predictions as JSON, aligned text, and plot CSV.

JSON carries full-precision floats for machine use and is byte-stable for
identical inputs. The text renderer mirrors the customary presentation of
Taguchi worksheets: S/N columns are chopped (not rounded) at two decimals,
predictions shown at four, error percentages at two.
"""

from __future__ import annotations

import csv
import io
import math

from taguchikit.analysis import AnalysisReport, Prediction, ResponseAnalysis
from taguchikit.design import is_number, number_label
from taguchikit.errors import ConfigError

SCHEMA_VERSION = 1

# Display decimals per quantity; callers may override via the precision arg.
REPORT_PRECISION = {"snr": 2, "mean": 4, "prediction": 4, "error_percent": 2}


def fixed(x: float, decimals: int, *, truncate: bool = False) -> str:
    """``x`` with exactly ``decimals`` fractional digits: rounded half away from zero,
    or chopped toward zero with ``truncate``.
    """
    # Imported here, so a command that writes only JSON never loads decimal.
    from decimal import ROUND_DOWN, ROUND_HALF_UP, Context, Decimal

    # Enough digits for any double (at most 309 integer digits) at up to 15
    # decimals; the default 28-digit context fails on values from 1e24 up.
    context = Context(prec=330)
    mode = ROUND_DOWN if truncate else ROUND_HALF_UP
    quantum = Decimal(1).scaleb(-decimals)
    return str(Decimal(repr(x)).quantize(quantum, rounding=mode, context=context))


def report_to_json_dict(report: AnalysisReport) -> dict:
    design = report.design
    return {
        "schema_version": SCHEMA_VERSION,
        "design": {
            "array": design.array.name,
            "factors": [
                {"name": f.name, "unit": f.unit, "levels": list(f.levels)}
                for f in design.factors
            ],
            "runs": [
                {"run": run.number, "settings": dict(run.settings)} for run in design.runs
            ],
        },
        "responses": [_response_to_json(report, analysis) for analysis in report.responses],
    }


def _response_to_json(report: AnalysisReport, analysis: ResponseAnalysis) -> dict:
    spec = analysis.spec
    factors = report.design.factors
    body = {
        "name": spec.name,
        "unit": spec.unit,
        "objective": spec.objective.value,
        "grand_mean": analysis.grand_mean,
        "runs": [
            {"run": run.number, "mean": analysis.run_means[i], "snr": analysis.snr_per_run[i]}
            for i, run in enumerate(report.design.runs)
        ],
        "factors": [
            {
                "name": factors[f].name,
                "level_means": list(analysis.level_means[f]),
                "snr_level_means": list(analysis.snr_level_means[f]),
                "delta": analysis.deltas[f],
                "rank": analysis.ranks[f],
                "optimal_level": {
                    "label": analysis.optimal_levels[f] + 1,
                    "value": factors[f].levels[analysis.optimal_levels[f]],
                    "tie": f in analysis.ties,
                },
            }
            for f in range(len(factors))
        ],
        "optimal_settings": report.optimal_settings(spec.name),
    }
    if spec.target is not None:
        body["target"] = spec.target
    return body


def report_to_json(report: AnalysisReport) -> str:
    return _json_document(report_to_json_dict(report))


def _json_document(body: dict) -> str:
    import json  # imported by its users, so the text renderers never load it
    return json.dumps(body, indent=2, ensure_ascii=False, allow_nan=False) + "\n"


def report_to_text(report: AnalysisReport, precision: dict[str, int] | None = None) -> str:
    prec = {**REPORT_PRECISION, **(precision or {})}
    design = report.design
    out = io.StringIO()
    out.write(
        f"Design: {design.array.name} "
        f"({design.array.runs} runs x {design.array.columns} factors)\n"
    )
    for analysis in report.responses:
        spec = analysis.spec
        title = f"{spec.name} [{spec.unit}]" if spec.unit else spec.name
        objective = spec.objective.value
        if spec.target is not None:
            objective += f", target {number_label(spec.target)}"
        out.write(f"\nResponse: {title} ({objective})\n")
        out.write(f"  grand mean: {fixed(analysis.grand_mean, prec['mean'])}\n\n")

        rows = [
            (
                str(run.number),
                fixed(analysis.run_means[i], prec["mean"]),
                fixed(analysis.snr_per_run[i], prec["snr"], truncate=True),
            )
            for i, run in enumerate(design.runs)
        ]
        _table(out, ("run", "mean", "S/N"), rows)

        out.write("\n")
        level_count = max(len(f.levels) for f in design.factors)
        header = ("factor", *[f"L{l + 1}" for l in range(level_count)], "delta", "rank", "best")
        rows = []
        for f, factor in enumerate(design.factors):
            cells = [fixed(m, prec["mean"]) for m in analysis.level_means[f]]
            cells += [""] * (level_count - len(cells))
            best = number_label(factor.levels[analysis.optimal_levels[f]])
            if f in analysis.ties:
                best += " (tie)"
            rows.append(
                (
                    factor.label(),
                    *cells,
                    fixed(analysis.deltas[f], prec["mean"]),
                    str(analysis.ranks[f]),
                    best,
                )
            )
        _table(out, header, rows)
    return out.getvalue()


def _table(out: io.StringIO, header: tuple[str, ...], rows: list[tuple[str, ...]]) -> None:
    widths = [len(h) for h in header]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    def line(cells: tuple[str, ...]) -> str:
        left, rest = cells[0], cells[1:]
        return "  " + "  ".join(
            [left.ljust(widths[0])] + [c.rjust(w) for c, w in zip(rest, widths[1:])]
        ).rstrip()
    out.write(line(header) + "\n")
    for row in rows:
        out.write(line(row) + "\n")


def main_effects_csv(report: AnalysisReport) -> str:
    """Plot-ready main effects: one row per (response, factor, level)."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["response", "factor", "level", "mean"])
    for analysis in report.responses:
        for f, factor in enumerate(report.design.factors):
            for l, value in enumerate(factor.levels):
                writer.writerow(
                    [
                        analysis.spec.name,
                        factor.name,
                        number_label(value),
                        repr(analysis.level_means[f][l]),
                    ]
                )
    return buf.getvalue()


def prediction_to_json(prediction: Prediction) -> str:
    body = {
        "schema_version": SCHEMA_VERSION,
        "response": prediction.response,
        "unit": prediction.unit,
        "levels": [l + 1 for l in prediction.level_indices],
        "settings": dict(prediction.settings),
        "predicted": prediction.predicted,
    }
    if prediction.confirmation is not None:
        body["confirmation"] = prediction.confirmation
        body["error_percent"] = prediction.error_percent
    return _json_document(body)


def prediction_from_json_dict(data: dict) -> Prediction:
    """Read back a prediction document; raises :class:`ConfigError` if it is not one.

    ``response`` and ``unit`` must be strings, ``levels`` must hold one
    integer label (1 or more) per entry of the ``settings`` mapping, and
    the settings and ``predicted`` must be finite numbers. ``confirmation``
    and ``error_percent`` are not read: :func:`~taguchikit.analysis.validate`
    derives them.
    """
    try:
        levels, settings = data["levels"], data["settings"]
        response, unit, predicted = data["response"], data.get("unit", ""), data["predicted"]
        shaped = isinstance(levels, list) and isinstance(settings, dict)
        if not shaped or len(levels) != len(settings):
            raise ValueError("'levels' must list one label per entry of the 'settings' mapping")
        if not all(isinstance(l, int) and not isinstance(l, bool) and l >= 1 for l in levels):
            raise ValueError("level labels must be integers from 1 up")
        if not isinstance(response, str) or not isinstance(unit, str):
            raise ValueError("'response' and 'unit' must be strings")
        if not all(map(is_number, [*settings.values(), predicted])):
            raise ValueError("settings and 'predicted' must be numbers")
        prediction = Prediction(
            response=response,
            unit=unit,
            level_indices=tuple(l - 1 for l in levels),
            settings={k: float(v) for k, v in settings.items()},
            predicted=float(predicted),
        )
        if not all(map(math.isfinite, [*prediction.settings.values(), prediction.predicted])):
            raise ValueError("settings and 'predicted' must be finite")
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"not a prediction document: {exc}") from None
    return prediction


def prediction_to_text(prediction: Prediction, precision: dict[str, int] | None = None) -> str:
    prec = {**REPORT_PRECISION, **(precision or {})}
    out = io.StringIO()
    unit = f" {prediction.unit}" if prediction.unit else ""
    out.write(f"Prediction for {prediction.response}:\n")
    for name, value in prediction.settings.items():
        out.write(f"  {name} = {number_label(value)}\n")
    out.write(f"  predicted: {fixed(prediction.predicted, prec['prediction'])}{unit}\n")
    if prediction.confirmation is not None and prediction.error_percent is not None:
        out.write(f"  confirmed: {number_label(prediction.confirmation)}{unit}\n")
        out.write(f"  error: {fixed(prediction.error_percent, prec['error_percent'])} %\n")
    return out.getvalue()
