"""Serialization of metric reports to JSON and CSV.

Every row carries the same keys: metric, indices, mode, num, den, value,
ci95, samples, seed.  Numerator and denominator are emitted as decimal
strings so exact values survive JSON round trips unharmed.
"""

from __future__ import annotations

import csv
import io
import json

from .metrics import MetricReport

FIELDS = ("metric", "indices", "mode", "num", "den", "value", "ci95", "samples", "seed")


def report_to_dict(report: MetricReport) -> dict:
    return {
        "metric": report.metric,
        "indices": list(report.indices),
        "mode": report.mode,
        "num": str(report.num),
        "den": str(report.den),
        "value": report.value,
        "ci95": report.ci95,
        "samples": report.samples,
        "seed": None if report.seed is None else str(report.seed),
    }


def report_from_dict(row: dict) -> MetricReport:
    seed = row.get("seed")
    return MetricReport(
        metric=row["metric"],
        indices=tuple(int(i) for i in row["indices"]),
        mode=row["mode"],
        num=int(row["num"]),
        den=int(row["den"]),
        ci95=row.get("ci95"),
        samples=row.get("samples"),
        seed=None if seed is None else int(seed),
    )


def reports_to_json(reports, extra: dict | None = None) -> str:
    rows = [report_to_dict(r) for r in reports]
    payload: dict | list = rows if extra is None else {"reports": rows, **extra}
    return json.dumps(payload, indent=2) + "\n"


def csv_text(header, rows) -> str:
    """A header line and the rows as CSV text."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows([header, *rows])
    return buf.getvalue()


def reports_to_csv(reports) -> str:
    rows = []
    for r in reports:
        d = report_to_dict(r)
        rows.append([
            d["metric"],
            ";".join(str(i) for i in d["indices"]),
            d["mode"],
            d["num"],
            d["den"],
            repr(d["value"]),
            "" if d["ci95"] is None else repr(d["ci95"]),
            "" if d["samples"] is None else d["samples"],
            "" if d["seed"] is None else d["seed"],
        ])
    return csv_text(FIELDS, rows)
