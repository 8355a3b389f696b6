"""Correctness gate for one CLI job.

A job fails when its exit code is not the expected one, when its JSON does
not validate against the schema the package ships, when its CSV lacks the
schema line, the header or the requested number of rows, when any bound is
non-finite or outside [0, 2], or when a verify report has an unexpected
status.
"""

from __future__ import annotations

import json
import math
from functools import lru_cache
from pathlib import Path

import jsonschema

from workloads import BOUND_HEADER, SWEEP_HEADER, Job

_SCHEMA_FILES = {
    "json-curve": "curve.schema.json",
    "json-report": "bound_report.schema.json",
    "json-verify": "verification_report.schema.json",
}
_CSV_LAYOUT = {
    "csv-bound": ("cvoodg.bound.v1", BOUND_HEADER),
    "csv-sweep": ("cvoodg.sweep.v1", SWEEP_HEADER),
}


@lru_cache(maxsize=None)
def _validator(schema_dir: str, output: str) -> jsonschema.protocols.Validator:
    schema = json.loads((Path(schema_dir) / _SCHEMA_FILES[output]).read_text(encoding="utf-8"))
    return jsonschema.validators.validator_for(schema)(schema)


def _bad_bound(value) -> bool:
    return not (isinstance(value, (int, float)) and math.isfinite(value) and 0.0 <= value <= 2.0)


def _check_csv(job: Job, text: str) -> list[str]:
    schema, header = _CSV_LAYOUT[job.output]
    lines = text.splitlines()
    if not lines or lines[0] != f"# schema={schema}":
        return [f"first line is not '# schema={schema}'"]
    if len(lines) < 2 or lines[1] != header:
        return ["missing or wrong CSV header"]
    rows = [line.split(",") for line in lines[2:]]
    problems = []
    if len(rows) != job.rows:
        problems.append(f"{len(rows)} CSV rows, expected {job.rows}")
    columns = header.split(",")
    eps_col, nbar_col = columns.index("epsilon"), columns.index("nbar")
    for i, row in enumerate(rows):
        if len(row) != len(columns):
            problems.append(f"row {i} has {len(row)} fields")
            continue
        try:
            eps, nbar = float(row[eps_col]), float(row[nbar_col])
        except ValueError:
            problems.append(f"row {i} is not numeric")
            continue
        if _bad_bound(eps):
            problems.append(f"row {i}: bound {row[eps_col]} is not in [0, 2]")
        if not (math.isfinite(nbar) and nbar >= 0.0):
            problems.append(f"row {i}: nbar {row[nbar_col]} is not finite and non-negative")
    return problems


def _check_json(job: Job, text: str, schema_dir: str) -> list[str]:
    try:
        payload = json.loads(text)
    except ValueError as exc:
        return [f"output is not JSON: {exc}"]
    problems = [f"schema: {err.message}"
                for err in _validator(schema_dir, job.output).iter_errors(payload)]
    if problems or not isinstance(payload, dict):
        return problems or ["output is not a JSON object"]
    if job.output == "json-curve":
        grid = payload["grid"]
        if len(grid) != job.rows:
            problems.append(f"{len(grid)} grid points, expected {job.rows}")
        problems += [f"grid point {i}: bound {v!r} is not in [0, 2]"
                     for i, (_, v) in enumerate(grid) if _bad_bound(v)]
    elif job.output == "json-report":
        if _bad_bound(payload["value"]):
            problems.append(f"bound {payload['value']!r} is not in [0, 2]")
    elif payload["status"] != job.status:
        problems.append(f"verify status {payload['status']!r}, expected {job.status!r}")
    return problems


def check(job: Job, exit_code: int, stdout: str, schema_dir: str) -> list[str]:
    """Every problem found with one run of a job; empty when it passes."""
    problems = []
    if exit_code != job.expect_exit:
        problems.append(f"exit code {exit_code}, expected {job.expect_exit}")
    if not stdout:
        return problems or ["no output"]
    if job.output in _CSV_LAYOUT:
        return problems + _check_csv(job, stdout)
    return problems + _check_json(job, stdout, schema_dir)
