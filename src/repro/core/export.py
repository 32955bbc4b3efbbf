"""Exporting progress traces: CSV and plain-dict forms.

Downstream users want traces out of the library — to plot the paper's
figures with their own tooling or to archive runs next to query logs.  The
functions here are deliberately dependency-free (plain ``csv``/``json``-able
structures).

These exporters consume *sealed* traces (what :class:`ProgressReport`
carries), which are always fully labeled: ``actual`` is back-filled at
completion from the run's own final tick count, so no exported row ever
has a null ``actual`` column.  Only *live* samples observed mid-run
(service probes, live JSONL events) can carry ``actual=None``.
"""

from __future__ import annotations

import csv
import io
import json
from typing import Dict, List, Optional

from repro.core.metrics import ProgressTrace
from repro.core.runner import ProgressReport


def trace_to_rows(trace: ProgressTrace) -> List[Dict[str, object]]:
    """One dict per sample: curr, actual, bounds, and every estimate."""
    rows: List[Dict[str, object]] = []
    for sample in trace.samples:
        row: Dict[str, object] = {
            "curr": sample.curr,
            "actual": sample.actual,
            "lower_bound": sample.lower_bound,
            "upper_bound": sample.upper_bound,
        }
        for name, value in sample.estimates.items():
            row[name] = value
        rows.append(row)
    return rows


def trace_to_csv(trace: ProgressTrace, path: Optional[str] = None) -> str:
    """Render the trace as CSV; optionally write it to ``path``."""
    rows = trace_to_rows(trace)
    fieldnames = ["curr", "actual", "lower_bound", "upper_bound"]
    fieldnames += trace.estimator_names()
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=fieldnames)
    writer.writeheader()
    for row in rows:
        writer.writerow(row)
    text = buffer.getvalue()
    if path is not None:
        with open(path, "w", newline="") as handle:
            handle.write(text)
    return text


def trace_to_jsonl(trace: ProgressTrace, path: Optional[str] = None) -> str:
    """Render the trace as JSON Lines (one sample object per line).

    The structured sibling of :func:`trace_to_csv`: the same per-sample
    rows, but each line is a self-contained JSON object, so traces can be
    streamed, appended and grepped.  (For *live* JSONL emission during a
    run, attach a :class:`repro.core.observe.JsonlTraceWriter` to the
    runner instead.)
    """
    lines = [
        json.dumps(row, sort_keys=True) for row in trace_to_rows(trace)
    ]
    text = "\n".join(lines) + ("\n" if lines else "")
    if path is not None:
        with open(path, "w") as handle:
            handle.write(text)
    return text


def report_to_dict(report: ProgressReport) -> Dict[str, object]:
    """A JSON-serializable summary of one instrumented run."""
    record: Dict[str, object] = {
        "plan": report.plan_name,
        "work_model": report.work_model,
        "total": report.total,
        "mu": report.mu,
        "samples": len(report.trace),
        "metrics": report.summary(),
    }
    if report.profile is not None:
        record["profile"] = report.profile.to_dict()
    return record


def report_to_json(report: ProgressReport, path: Optional[str] = None,
                   indent: int = 2) -> str:
    """Serialize the report summary as JSON; optionally write to ``path``."""
    text = json.dumps(report_to_dict(report), indent=indent, sort_keys=True)
    if path is not None:
        with open(path, "w") as handle:
            handle.write(text)
    return text
