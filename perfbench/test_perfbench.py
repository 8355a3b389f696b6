"""Self-tests of the benchmark: generator, correctness gate and tracer.

They run no timed workload. Run with
``PYTHONPATH=src python -m pytest -q perfbench``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import gate  # noqa: E402
from inproc import run_jobs  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, Job, generate  # noqa: E402

SCHEMA_DIR = str(HERE.parent / "src" / "cvoodg" / "schemas")


# -- generator -------------------------------------------------------------

@pytest.mark.parametrize("name", WORKLOADS)
def test_generator_is_deterministic_per_seed(name):
    first, again, other = generate(name, 7), generate(name, 7), generate(name, 8)
    assert json.dumps(first.as_json()) == json.dumps(again.as_json())
    assert first.jobs == again.jobs
    assert first.as_json()["jobs"] != other.as_json()["jobs"]


def test_generated_files_are_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir()
    b.mkdir()
    generate("cli-short", 3).write_files(a)
    generate("cli-short", 3).write_files(b)
    names = sorted(p.name for p in a.iterdir())
    assert names == ["rho_extend.json", "rho_sweep.json"]
    assert all((a / n).read_bytes() == (b / n).read_bytes() for n in names)


def test_cli_short_covers_every_subcommand_and_the_negative_control():
    jobs = generate("cli-short", 1).jobs
    assert 18 <= len(jobs) <= 22
    assert {j.command for j in jobs} == {"bound", "extend", "sweep", "verify"}
    control = [j for j in jobs if j.expect_exit == 1]
    assert len(control) == 1 and "--curve-scale" in control[0].argv


# -- gate ------------------------------------------------------------------

BOUND_JOB = Job("bound", "bound", (), "csv-bound", rows=2)
REPORT_JOB = Job("extend", "extend", (), "json-report")
VERIFY_JOB = Job("verify", "verify", (), "json-verify", expect_exit=1, status="fail")
GOOD_CSV = ("# schema=cvoodg.bound.v1\nnbar,epsilon,class,eps0,tau\n"
            "0,0,phase_rotation,0.1,1\n20,0.5,phase_rotation,0.1,1\n")
GOOD_REPORT = {"schema": "cvoodg.bound_report.v1", "value": 0.25, "branch": "classical",
               "params": None, "intermediates": {"curve_value": 0.25}}


def test_gate_accepts_valid_outputs():
    assert gate.check(BOUND_JOB, 0, GOOD_CSV, SCHEMA_DIR) == []
    assert gate.check(REPORT_JOB, 0, json.dumps(GOOD_REPORT), SCHEMA_DIR) == []


def test_gate_rejects_a_nan_row():
    assert gate.check(BOUND_JOB, 0, GOOD_CSV.replace(",0.5,", ",nan,"), SCHEMA_DIR)


def test_gate_rejects_a_bound_above_two():
    assert gate.check(BOUND_JOB, 0, GOOD_CSV.replace(",0.5,", ",2.5,"), SCHEMA_DIR)
    assert gate.check(REPORT_JOB, 0, json.dumps({**GOOD_REPORT, "value": 2.5}), SCHEMA_DIR)


def test_gate_rejects_a_wrong_exit_code():
    assert gate.check(BOUND_JOB, 2, GOOD_CSV, SCHEMA_DIR) == ["exit code 2, expected 0"]


def test_gate_rejects_a_schema_violation():
    doctored = {k: v for k, v in GOOD_REPORT.items() if k != "branch"}
    assert gate.check(REPORT_JOB, 0, json.dumps(doctored), SCHEMA_DIR)
    assert gate.check(REPORT_JOB, 0, json.dumps({**GOOD_REPORT, "extra": 1}), SCHEMA_DIR)


def test_gate_rejects_missing_rows_and_schema_line():
    assert gate.check(BOUND_JOB, 0, GOOD_CSV.rsplit("20,", 1)[0], SCHEMA_DIR)
    assert gate.check(BOUND_JOB, 0, GOOD_CSV.split("\n", 1)[1], SCHEMA_DIR)


def test_gate_rejects_the_nbar_max_inf_output():
    # Real output of `bound --class phase_rotation --eps0 0.1 --tau 1
    # --nbar-max inf --points 5`, which exits 0 with NaN rows.
    text = (HERE / "fixtures" / "bound_nbar_max_inf.csv").read_text(encoding="utf-8")
    job = Job("bound", "bound", (), "csv-bound", rows=5)
    problems = gate.check(job, 0, text, SCHEMA_DIR)
    assert any("row 0: bound nan" in p for p in problems)


def test_gate_checks_the_verify_status():
    report = {"schema": "cvoodg.verification_report.v1", "status": "pass", "suites": []}
    assert gate.check(VERIFY_JOB, 1, json.dumps(report), SCHEMA_DIR)
    assert gate.check(VERIFY_JOB, 1, json.dumps({**report, "status": "fail"}), SCHEMA_DIR) == []


def test_a_failed_job_counts_once_however_often_it_runs():
    from run import failed_jobs

    runs = [{"job": "a", "problems": ["exit 2"]}, {"job": "b", "problems": []},
            {"job": "a", "problems": ["exit 2"]}, {"job": "b", "problems": []}]
    assert failed_jobs(runs) == {"a"}


# -- tracer ----------------------------------------------------------------

def _bindings() -> dict:
    """Every object bound in a cvoodg namespace, by identity."""
    from cvoodg import coherent_bounds, cvcore

    seen = {}
    for name, module in sys.modules.items():
        if name == "cvoodg" or name.startswith("cvoodg."):
            for key, obj in vars(module).items():
                seen[(name, key)] = id(obj)
                if isinstance(obj, dict) and not key.startswith("__"):
                    seen.update({(name, key, k): id(v) for k, v in obj.items()})
    seen["BoundCurve.__call__"] = id(vars(coherent_bounds.BoundCurve)["__call__"])
    seen["QuadratureError.__init__"] = id(vars(cvcore.QuadratureError)["__init__"])
    return seen


TINY_JOBS = [
    ["bound", "--class", "phase_rotation", "--nbar-max", "5", "--points", "7"],
    ["extend", "--state", "fock:2", "--curve", "lipschitz", "--hull-points", "11"],
]


def _traced_counts() -> tuple[dict, list[dict], Tracer]:
    import cvoodg.cli  # noqa: F401

    tracer = Tracer()
    tracer.install()
    try:
        results = run_jobs(TINY_JOBS, tracer)
    finally:
        tracer.uninstall()
    counts = {k: v for k, (v, unit) in tracer.layer_metrics().items() if unit == "count"}
    return counts, results, tracer


def test_tracer_restores_every_original():
    import cvoodg.cli  # noqa: F401

    before = _bindings()
    _traced_counts()
    assert _bindings() == before


def test_tracer_counts_are_exact_on_a_tiny_job():
    counts, results, tracer = _traced_counts()
    assert [r["exit"] for r in results] == [0, 0]
    assert counts["cli.jobs"] == 2
    assert counts["coherent_bounds.curve_builds"] == 2
    assert counts["coherent_bounds.hull_builds"] == 1
    assert counts["coherent_bounds.hull_curve_evals"] == 11
    assert counts["state_bounds.extend_calls"] == 1
    assert counts["search.searches"] == 1
    assert counts["coherent_bounds.universal_points"] == 0
    assert counts["oracle.exact_distance_calls"] == 0
    assert _traced_counts()[0] == counts

    spans = tracer.span_records()
    assert [s["job"] for s in spans if s["name"] == "cli.main"] == [0, 1]
    (hull,) = [s for s in spans if s["name"] == "coherent_bounds.concave_hull"]
    assert hull["counts"]["coherent_bounds.BoundCurve.__call__"][0] == 11
    assert spans[hull["parent"]]["name"] == "cli.cmd_extend"
