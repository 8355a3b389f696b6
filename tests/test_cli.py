"""CLI behaviour: formats, schemas, exit codes, determinism, config files."""

import argparse
import json
import math
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest

from cvoodg import cli, oracle, state_bounds
from cvoodg.coherent_bounds import InDistributionGuarantee

SCHEMA_DIR = Path(__file__).resolve().parents[1] / "src" / "cvoodg" / "schemas"
#: Argv, input files, exit code, stdout and stderr of CLI jobs;
#: golden/write_cli_corpus.py rewrites it and prints what moved.
CLI_CORPUS = json.loads((Path(__file__).resolve().parent / "golden" / "cli_corpus.json")
                        .read_text(encoding="utf-8"))


#: An integer past the float range.
HUGE_INT = "1" + "0" * 400


def load_schema(name: str) -> dict:
    return json.loads((SCHEMA_DIR / name).read_text())


def run_cli(args: list[str]) -> int:
    return cli.main(args)


def exit_code(args: list[str]) -> int:
    """Exit status of a CLI call, including argparse's own exit 2."""
    try:
        return run_cli(args)
    except SystemExit as exc:
        return exc.code


class TestBoundCommand:
    def test_csv_row_count_and_header(self, tmp_path):
        out = tmp_path / "curve.csv"
        rc = run_cli([
            "bound", "--class", "phase_rotation", "--eps0", "0.3", "--tau", "1",
            "--nbar-max", "20", "--points", "200", "--format", "csv",
            "--output", str(out),
        ])
        assert rc == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "# schema=cvoodg.bound.v1"
        assert lines[1] == "nbar,epsilon,class,eps0,tau"
        assert len(lines) == 202  # comment + header + 200 rows

    def test_step_curve_rows(self, tmp_path):
        out = tmp_path / "step.csv"
        assert run_cli([
            "bound", "--class", "step", "--eps0", "0.3", "--tau", "1",
            "--nbar-max", "4", "--points", "5", "--output", str(out),
        ]) == 0
        rows = [line.split(",") for line in out.read_text().strip().splitlines()[2:]]
        values = [float(r[1]) for r in rows]
        assert values == [0.3, 0.3, 2.0, 2.0, 2.0]

    def test_json_validates_and_universal_records_s(self, tmp_path):
        out = tmp_path / "u.json"
        assert run_cli([
            "bound", "--class", "universal", "--eps0", "1e-4", "--tau", "1",
            "--nbar-max", "0.2", "--points", "3", "--format", "json",
            "--output", str(out),
        ]) == 0
        payload = json.loads(out.read_text())
        jsonschema.validate(payload, load_schema("curve.schema.json"))
        assert len(payload["per_point_s"]) == 3
        assert all(0.0 < s < 0.5 for s in payload["per_point_s"])

    def test_json_universal_point_at_the_ceiling_has_null_s(self, tmp_path):
        # nbar 20 and 40 are certified at the ceiling and run no s-search;
        # the vacuum is searched.
        out = tmp_path / "u.json"
        assert run_cli([
            "bound", "--class", "universal", "--eps0", "1e-3", "--tau", "1",
            "--nbar-max", "40", "--points", "3", "--format", "json", "--output", str(out),
        ]) == 0
        payload = json.loads(out.read_text())
        jsonschema.validate(payload, load_schema("curve.schema.json"))
        assert payload["grid"] == [[0.0, 0.0024000000200000006], [20.0, 2.0], [40.0, 2.0]]
        assert payload["per_point_s"] == [9.999999999999982e-09, None, None]

    def test_byte_identical_reruns(self, tmp_path):
        args = [
            "bound", "--class", "gaussian", "--eps0", "0.17", "--tau", "1.3",
            "--nbar-max", "9", "--points", "40",
        ]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_cli(args + ["--output", str(a)]) == 0
        assert run_cli(args + ["--output", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_unknown_class_is_config_error(self):
        assert run_cli(["bound", "--class", "nope", "--eps0", "0.1", "--tau", "1"]) == 2

    def test_cubic_phase_curve(self, tmp_path):
        out = tmp_path / "cubic.csv"
        assert run_cli([
            "bound", "--class", "cubic_phase", "--eps0", "0.3", "--tau", "1",
            "--nbar-max", "10", "--points", "6", "--output", str(out),
        ]) == 0
        rows = [line.split(",") for line in out.read_text().strip().splitlines()[2:]]
        values = [float(r[1]) for r in rows]
        assert all(0.0 <= v <= 2.0 for v in values)
        assert values == sorted(values)  # hulled curve is non-decreasing here

    def test_combined_mode_caps_at_step(self, tmp_path):
        out = tmp_path / "c.csv"
        assert run_cli([
            "bound", "--class", "phase_rotation", "--eps0", "0.3", "--tau", "1",
            "--nbar-max", "1", "--points", "3", "--combined", "--output", str(out),
        ]) == 0
        rows = [line.split(",") for line in out.read_text().strip().splitlines()[2:]]
        for r in rows:
            assert float(r[1]) <= 0.3 + 1e-12  # in-distribution: min with step


class TestExtendCommand:
    def test_fock_report_schema(self, tmp_path):
        out = tmp_path / "fock.json"
        assert run_cli([
            "extend", "--state", "fock:2", "--curve", "phase_rotation",
            "--eps0", "1e-3", "--tau", "1", "--output", str(out),
        ]) == 0
        payload = json.loads(out.read_text())
        jsonschema.validate(payload, load_schema("bound_report.schema.json"))
        assert payload["params"]["s"] is not None

    def test_energy_only_reports_m_kappa(self, tmp_path):
        out = tmp_path / "e.json"
        assert run_cli([
            "extend", "--state", "energy-only:1.0", "--curve", "phase_rotation",
            "--eps0", "1e-7", "--tau", "1", "--output", str(out),
        ]) == 0
        payload = json.loads(out.read_text())
        jsonschema.validate(payload, load_schema("bound_report.schema.json"))
        assert payload["params"]["M"] >= 2
        assert payload["params"]["kappa"] > 1.0

    def test_classical_evaluates_curve(self, tmp_path):
        from cvoodg.coherent_bounds import phase_rotation_bound, InDistributionGuarantee

        out = tmp_path / "c.json"
        assert run_cli([
            "extend", "--state", "classical:0.5", "--curve", "phase_rotation",
            "--eps0", "0.2", "--tau", "1", "--output", str(out),
        ]) == 0
        payload = json.loads(out.read_text())
        curve = phase_rotation_bound(InDistributionGuarantee(0.2, 1.0))
        assert payload["value"] == pytest.approx(curve(0.5), rel=1e-12)

    def test_fail_on_trivial_exit_code(self):
        rc = run_cli([
            "extend", "--state", "energy-only:5.0", "--curve", "phase_rotation",
            "--eps0", "0.3", "--tau", "1", "--fail-on-trivial",
        ])
        assert rc == 3

    def test_step_curve_gets_concavified(self, tmp_path):
        out = tmp_path / "s.json"
        assert run_cli([
            "extend", "--state", "classical:0.5", "--curve", "step",
            "--eps0", "0.3", "--tau", "1", "--output", str(out),
        ]) == 0
        payload = json.loads(out.read_text())
        assert payload["value"] <= 2.0

    def test_spat_near_fock_one_is_not_zero(self, tmp_path):
        """spat:1e-16 is |1><1| to within about 1e-15 in trace norm. The
        identity against a pure loss of transmissivity eta, with
        (1 - sqrt(eta))^2 = 0.99 (-log(1 - eps0/2)), moves a coherent state of
        mean nbar by 2 sqrt(1 - (1 - eps0/2)^(0.99 nbar)), under the
        phase_rotation curve at tau = 1 for every nbar, and moves |1> by
        2 (1 - eta), about 0.088: no bound on this state may be smaller. The
        ratio nu/mu once cancelled to 0 here and the bound read 0.0."""
        out = tmp_path / "spat.json"
        assert run_cli([
            "extend", "--state", "spat:1e-16", "--curve", "phase_rotation",
            "--eps0", "1e-3", "--tau", "1", "--output", str(out),
        ]) == 0
        eta = (1.0 - math.sqrt(-0.99 * math.log1p(-1e-3 / 2.0))) ** 2
        floor = 2.0 * (1.0 - eta) - 1e-12
        assert floor > 0.088
        assert json.loads(out.read_text())["value"] >= floor

    @pytest.mark.parametrize("q", ["1e154", "1e300"])
    def test_huge_spat_is_at_the_ceiling(self, q, tmp_path):
        # 4q^2 overflowed from q of about 7e153 on, and nu/mu read nan.
        out = tmp_path / "spat.json"
        assert run_cli([
            "extend", "--state", f"spat:{q}", "--curve", "gaussian", "--eps0", "1e-3",
            "--output", str(out),
        ]) == 0
        assert json.loads(out.read_text())["value"] == 2.0

    def test_invalid_state_exit_two(self):
        assert run_cli([
            "extend", "--state", "wat:1", "--curve", "phase_rotation",
            "--eps0", "0.1", "--tau", "1",
        ]) == 2

    def test_known_fock_from_file(self, tmp_path):
        from cvoodg.oracle import coherent_projector

        rho = coherent_projector(0.5, 8)
        matrix = [
            [[float(cell.real), float(cell.imag)] for cell in row]
            for row in rho.entries
        ]
        path = tmp_path / "rho.json"
        path.write_text(json.dumps(matrix))
        out = tmp_path / "kf.json"
        assert run_cli([
            "extend", "--state", f"known-fock:{path}", "--curve", "phase_rotation",
            "--eps0", "1e-4", "--tau", "1", "--output", str(out),
        ]) == 0
        payload = json.loads(out.read_text())
        assert payload["branch"] == "known_fock"
        assert 0.0 < payload["value"] <= 2.0


    @pytest.mark.parametrize("text,cause", [
        ("[[1.0, Infinity], [Infinity, 0.0]]", "Fock matrix entries must be finite"),
        ("[[1.0, NaN], [NaN, 0.0]]", "Fock matrix entries must be finite"),
        ("[[true, 0], [0, false]]", "matrix entries must be numbers or [re, im] pairs, got True"),
        ("[[[1.0, false], 0], [0, 0]]",
         "matrix entries must be numbers or [re, im] pairs, got [1.0, False]"),
        *[(text, "a Fock matrix must be a JSON list of n >= 1 rows of n entries each")
          for text in ("5", '{"a": [1]}', "[[1, 0], [0]]", "[]")],
    ])
    def test_bad_known_fock_matrix_exit_two(self, tmp_path, text, cause):
        path = tmp_path / "m.json"
        path.write_text(text)
        proc = subprocess.run(
            [sys.executable, "-m", "cvoodg.cli", "extend", "--state", f"known-fock:{path}",
             "--curve", "phase_rotation", "--eps0", "1e-3"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == f"error: invalid state spec 'known-fock:{path}': {cause}\n"


class TestVerifyCommand:
    def test_dominance_passes(self, tmp_path):
        out = tmp_path / "v.json"
        rc = run_cli([
            "verify", "--suite", "dominance", "--class", "phase_rotation",
            "--eps0", "0.1", "--tau", "1", "--seed", "7", "--output", str(out),
        ])
        assert rc == 0
        payload = json.loads(out.read_text())
        jsonschema.validate(payload, load_schema("verification_report.schema.json"))
        assert payload["status"] == "pass"

    def test_gamma_suite_passes(self, tmp_path):
        out = tmp_path / "g.json"
        rc = run_cli(["verify", "--suite", "gamma-closed-form", "--output", str(out)])
        assert rc == 0
        payload = json.loads(out.read_text())
        jsonschema.validate(payload, load_schema("verification_report.schema.json"))

    def test_every_suite_validates(self, tmp_path):
        out = tmp_path / "all.json"
        assert run_cli(["verify", "--suite", "all", "--output", str(out)]) == 0
        payload = json.loads(out.read_text())
        jsonschema.validate(payload, load_schema("verification_report.schema.json"))
        assert [len(suite["assertions"]) for suite in payload["suites"]] == [29, 3, 3, 4, 19]

    def test_negative_control_exits_one_and_names_worst_point(self, tmp_path, capsys):
        out = tmp_path / "bad.json"
        rc = run_cli([
            "verify", "--suite", "dominance", "--class", "phase_rotation",
            "--eps0", "0.1", "--tau", "1", "--curve-scale", "0.2",
            "--output", str(out),
        ])
        assert rc == 1
        payload = json.loads(out.read_text())
        assert payload["status"] == "fail"
        failed = [
            a for suite in payload["suites"] for a in suite["assertions"]
            if a["status"] == "fail"
        ]
        assert failed and "nbar" in failed[0]["worst_point"]
        assert "worst points" in capsys.readouterr().err

    def test_unknown_suite_exit_two(self):
        assert run_cli(["verify", "--suite", "bogus"]) == 2

    @pytest.mark.parametrize("argv", [
        ["--suite", "concavity-limits", "--class", "bogus"],
        ["--suite", "mu-nu", "--class", "loss"],
        ["--suite", "all", "--class", "phase_rotation"],
        ["--suite", "gamma-closed-form", "--curve-scale", "0.5"],
    ])
    def test_option_the_suite_does_not_read_exit_two(self, argv, capsys):
        # Only the dominance suite reads --class, and only dominance (alone
        # or within all) reads --curve-scale; elsewhere they would be ignored.
        assert exit_code(["verify", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: --")
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("argv,tag", [
        (["--suite", "dominance"], "phase_rotation"),
        (["--suite", "all"], "phase_rotation"),
        (["--suite", "dominance", "--class", "loss"], "loss"),
    ])
    def test_eps0_two_names_its_rule(self, argv, tag, capsys):
        # A worst-case pair saturates F^2 = 1 - eps0^2/4 at r = tau, which
        # is 0 at eps0 = 2; the suite says so before it builds a pair.
        assert exit_code(["verify", *argv, "--eps0", "2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: the worst-case {tag} pair requires eps0 < 2\n"

    @pytest.mark.parametrize("suite", ["gamma-closed-form", "mu-nu", "delta-s",
                                       "concavity-limits"])
    def test_seed_outside_the_dominance_suite_exits_two(self, suite):
        proc = subprocess.run(
            [sys.executable, "-m", "cvoodg.cli", "verify", "--suite", suite, "--seed", "5"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == "error: --seed applies only to --suite dominance or all\n"

    def test_absent_seed_is_reported_as_zero(self, monkeypatch, tmp_path):
        seeds = []
        monkeypatch.setattr(
            cli.oracle, "run_suites",
            lambda suite, g, *, seed, curve_scale, classes: seeds.append(seed) or [],
        )
        for argv in (["--suite", "delta-s"], ["--suite", "all"], ["--suite", "all", "--seed", "3"]):
            out = tmp_path / "v.json"
            assert run_cli(["verify", *argv, "--output", str(out)]) == 0
            assert json.loads(out.read_text())["seed"] == seeds[-1]
        assert seeds == [0, 0, 3]

    def test_class_reaches_run_suites(self, monkeypatch, tmp_path):
        calls = []
        monkeypatch.setattr(
            cli.oracle, "run_suites",
            lambda suite, g, *, seed, curve_scale, classes: calls.append((suite, classes)) or [],
        )
        for argv in (["--suite", "dominance", "--class", "squeezing"],
                     ["--suite", "dominance"], ["--suite", "all"]):
            assert run_cli(["verify", *argv, "--output", str(tmp_path / "v.json")]) == 0
        assert calls == [("dominance", ("squeezing",)),
                         ("dominance", oracle.SUPPORTED_CLASSES),
                         ("all", oracle.SUPPORTED_CLASSES)]

    def test_curve_scale_reaches_all_suites(self, monkeypatch, tmp_path):
        calls = []
        monkeypatch.setattr(
            cli.oracle, "run_suites",
            lambda suite, g, *, seed, curve_scale, classes:
                calls.append((suite, curve_scale)) or [],
        )
        out = tmp_path / "v.json"
        assert run_cli(["verify", "--suite", "all", "--curve-scale", "0.5",
                        "--output", str(out)]) == 0
        assert calls == [("all", 0.5)]


class TestSweepCommand:
    def test_grid_shape_and_monotonicity(self, tmp_path):
        out = tmp_path / "sweep.csv"
        eps_grid = "1e-1,1e-2,1e-3,1e-4,1e-5,1e-6"
        states = "fock:0,fock:1,fock:2,fock:3,fock:4"
        rc = run_cli([
            "sweep", "--eps0-grid", eps_grid, "--states", states,
            "--curve", "phase_rotation", "--tau", "1", "--output", str(out),
        ])
        assert rc == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "# schema=cvoodg.sweep.v1"
        rows = [line.split(",") for line in lines[2:]]
        assert len(rows) == 30
        by_state: dict[str, list[float]] = {}
        for r in rows:
            by_state.setdefault(r[0], []).append(float(r[2]))
        for state, values in by_state.items():
            assert all(b <= a + 1e-12 for a, b in zip(values, values[1:])), state

    def test_empty_grid_exit_two(self):
        assert run_cli([
            "sweep", "--eps0-grid", "", "--states", "fock:0",
            "--curve", "phase_rotation",
        ]) == 2

    def test_json_rows_validate_against_report_schema(self, tmp_path):
        out = tmp_path / "sweep.json"
        assert run_cli([
            "sweep", "--eps0-grid", "1e-2,1e-4", "--states", "fock:1,spat:1.0",
            "--curve", "phase_rotation", "--tau", "1", "--format", "json",
            "--output", str(out),
        ]) == 0
        payload = json.loads(out.read_text())
        schema = load_schema("bound_report.schema.json")
        assert len(payload["rows"]) == 4
        for row in payload["rows"]:
            jsonschema.validate(row, schema)

    def test_byte_identical_with_fixed_seed(self, tmp_path):
        args = [
            "sweep", "--eps0-grid", "1e-2,1e-3", "--states", "fock:1,spat:1.0",
            "--curve", "phase_rotation", "--tau", "1",
        ]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_cli(args + ["--output", str(a)]) == 0
        assert run_cli(args + ["--output", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_known_fock_csv_reports_mean_photon_number(self, tmp_path):
        from cvoodg.cvcore import mean_photon_number
        from cvoodg.oracle import coherent_projector

        rho = coherent_projector(0.5, 8)
        path = tmp_path / "rho.json"
        path.write_text(json.dumps(
            [[[float(cell.real), float(cell.imag)] for cell in row] for row in rho.entries]
        ))
        out = tmp_path / "kf.csv"
        assert run_cli([
            "sweep", "--eps0-grid", "1e-3", "--states", f"known-fock:{path},fock:1",
            "--curve", "phase_rotation", "--tau", "1", "--output", str(out),
        ]) == 0
        rows = [line.split(",") for line in out.read_text().strip().splitlines()[2:]]
        assert len(rows) == 2
        assert float(rows[0][1]) == mean_photon_number(rho)


    def test_curve_built_once_per_eps0(self, tmp_path, monkeypatch):
        eps0_values, states = (1e-2, 1e-3), ("fock:0", "fock:1", "spat:1.0")
        build = cli._concavified_curve
        builds = []

        def counting_build(tag, g, hull_max, hull_points):
            builds.append(g.eps0)
            return build(tag, g, hull_max, hull_points)

        monkeypatch.setattr(cli, "_concavified_curve", counting_build)
        out = tmp_path / "sweep.csv"
        assert run_cli([
            "sweep", "--eps0-grid", ",".join(map(str, eps0_values)),
            "--states", ",".join(states), "--curve", "lipschitz", "--tau", "1",
            "--hull-points", "41", "--output", str(out),
        ]) == 0
        assert sorted(builds) == sorted(eps0_values)
        # Every cell equals a bound on a curve built for that cell alone,
        # in state-major row order.
        expected = []
        for text in states:
            for eps0 in eps0_values:
                curve = build("lipschitz", InDistributionGuarantee(eps0=eps0, tau=1.0), 40.0, 41)
                report = state_bounds.extend(curve, state_bounds.parse_state_spec(text))
                expected.append((text, cli._fmt(report.value), cli._fmt(eps0)))
        rows = [line.split(",") for line in out.read_text().strip().splitlines()[2:]]
        assert [(r[0], r[2], r[4]) for r in rows] == expected


class TestConfigPrecedence:
    def test_file_overrides_defaults_flags_override_file(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("eps0 = 0.25\npoints = 7\n")
        out = tmp_path / "o.csv"
        assert run_cli([
            "bound", "--class", "step", "--tau", "1", "--eps0", "0.5",
            "--nbar-max", "2", "--config", str(cfg), "--output", str(out),
        ]) == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 2 + 7  # points from the file
        assert float(lines[2].split(",")[3]) == 0.5  # eps0 from the flag

    def test_abbreviated_flag_overrides_file(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("eps0 = 0.3\n")
        out = tmp_path / "o.csv"
        assert run_cli([
            "bound", "--class", "step", "--tau", "1", "--eps", "0.01", "--points", "3",
            "--config", str(cfg), "--output", str(out),
        ]) == 0
        assert float(out.read_text().strip().splitlines()[2].split(",")[3]) == 0.01

    def test_store_true_flag_from_file(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("combined = yes\nthreads = 4\n")
        out = tmp_path / "o.csv"
        assert run_cli([
            "bound", "--class", "phase_rotation", "--eps0", "0.3", "--tau", "1",
            "--nbar-max", "4", "--points", "3", "--config", str(cfg), "--output", str(out),
        ]) == 0
        assert out.read_text().strip().splitlines()[2].split(",")[2] == "phase_rotation+step"

    @pytest.mark.parametrize("line", ["concavify = maybe", "points = abc", "eps0 = inf"])
    def test_bad_config_value_exit_two(self, tmp_path, capsys, line):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(line + "\n")
        assert exit_code([
            "bound", "--class", "step", "--tau", "1", "--config", str(cfg),
        ]) == 2
        assert capsys.readouterr().err

    @pytest.mark.parametrize("argv, line", [
        (["bound", "--tau", "1", "--points", "3"], "class = step"),
        (["extend", "--curve", "phase_rotation", "--eps0", "1e-3"], "state = fock:2"),
        (["extend", "--state", "fock:2", "--eps0", "1e-3"], "curve = phase_rotation"),
        (["verify", "--class", "phase_rotation", "--seed", "3"], "suite = dominance"),
        (["sweep", "--states", "fock:1", "--curve", "phase_rotation"], "eps0-grid = 1e-2,1e-3"),
        (["sweep", "--eps0-grid", "1e-2", "--curve", "phase_rotation"], "states = fock:0,fock:1"),
    ])
    def test_config_supplies_required_flag(self, tmp_path, argv, line):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(line + "\n")
        key, value = (part.strip() for part in line.split("=", 1))
        from_file, from_flag = tmp_path / "file.out", tmp_path / "flag.out"
        assert run_cli([*argv, "--config", str(cfg), "--output", str(from_file)]) == 0
        assert run_cli([*argv, f"--{key}", value, "--output", str(from_flag)]) == 0
        assert from_file.read_bytes() == from_flag.read_bytes()

    def test_missing_config_exit_two(self):
        assert run_cli([
            "bound", "--class", "step", "--eps0", "0.1", "--tau", "1",
            "--config", "/nonexistent/cfg",
        ]) == 2

    def test_config_that_is_not_utf8_exit_two(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(b"eps0 = 0.1\n\xff\n")
        assert run_cli([
            "bound", "--class", "step", "--eps0", "0.1", "--tau", "1", "--config", str(cfg),
        ]) == 2
        assert capsys.readouterr().err == (
            "error: cannot read config file: 'utf-8' codec can't decode byte 0xff "
            "in position 11: invalid start byte\n"
        )


@pytest.mark.parametrize("argv", [
    ["bound", "--class", "step", "--eps0", "0.1", "--tau", "inf"],
    ["bound", "--class", "step", "--eps0", "nan", "--tau", "1"],
    ["bound", "--class", "step", "--eps0", "0.1", "--tau", "1", "--nbar-max", "inf"],
    ["bound", "--class", "step", "--eps0", "0.1", "--tau", "1", "--concavify",
     "--hull-max", "inf"],
    ["sweep", "--eps0-grid", "1e-2", "--states", "classical:nan", "--curve", "phase_rotation"],
    ["extend", "--state", "finite-negativity:0.1:inf:1", "--curve", "phase_rotation"],
    ["verify", "--suite", "dominance", "--class", "phase_rotation", "--curve-scale", "inf"],
    ["sweep", "--eps0-grid", "1e-2,inf", "--states", "fock:1", "--curve", "phase_rotation"],
    ["sweep", "--eps0-grid", "1e-2", "--states", "spat:nan", "--curve", "phase_rotation"],
    ["sweep", "--eps0-grid", "1e-2", "--states", "fock:1", "--curve", "phase_rotation",
     "--tau", "-inf"],
])
def test_non_finite_input_exit_two(argv, capsys):
    assert exit_code(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error" in captured.err


@pytest.mark.parametrize("argv", [
    ["bound", "--class", "nope", "--eps0", "5"],
    ["extend", "--state", "fock:1", "--curve", "nope", "--eps0", "5"],
    ["sweep", "--eps0-grid", "5", "--states", "fock:1", "--curve", "nope"],
])
def test_unknown_class_is_reported_before_a_bad_eps0(argv, capsys):
    assert exit_code(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: unknown curve class 'nope'; choose from {sorted(cli.CURVE_CONSTRUCTORS)}\n"
    )


# One call per subcommand, bound class and verify suite; each reads tau.
TAU_ARGVS = [
    *(["bound", "--class", tag, "--points", "3"] for tag in sorted(cli.CURVE_CONSTRUCTORS)),
    ["extend", "--state", "fock:1", "--curve", "gaussian"],
    ["sweep", "--eps0-grid", "1e-2", "--states", "fock:1", "--curve", "gaussian"],
    *(["verify", "--suite", suite] for suite in [*oracle.SUITE_RUNNERS, "all"]),
]


@pytest.mark.parametrize("tau", ["1e-200", "1e200"])  # tau^2 underflows / overflows
@pytest.mark.parametrize("argv", TAU_ARGVS, ids=" ".join)
def test_tau_whose_square_is_not_finite_and_positive_exit_two(argv, tau, capsys):
    assert exit_code([*argv, "--tau", tau]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: tau")
    assert "Traceback" not in captured.err


class ReadRecordingNamespace(argparse.Namespace):
    """An argparse namespace that records the name of every attribute read."""

    def __init__(self):
        super().__init__()
        self._reads = set()

    def __getattribute__(self, name):
        if not name.startswith("_"):
            object.__getattribute__(self, "_reads").add(name)
        return object.__getattribute__(self, name)


# One call per subcommand that takes every conditional branch reading a flag:
# a non-concave curve is hulled, and --class is given to the dominance suite.
OPTION_READ_ARGV = {
    "bound": ["bound", "--class", "lipschitz", "--concavify", "--hull-points", "5"],
    "extend": ["extend", "--state", "fock:1", "--curve", "lipschitz", "--hull-points", "5"],
    "verify": ["verify", "--suite", "dominance", "--class", "phase_rotation"],
    "sweep": ["sweep", "--eps0-grid", "1e-2", "--states", "fock:1", "--curve", "lipschitz",
              "--hull-points", "5"],
}


@pytest.mark.parametrize("command", sorted(OPTION_READ_ARGV))
def test_every_option_is_read(command, tmp_path):
    parser = cli.build_parser()
    argv = [*OPTION_READ_ARGV[command], "--output", str(tmp_path / "out")]
    args = parser.parse_args(argv, namespace=ReadRecordingNamespace())
    args._reads.clear()  # parsing itself reads every destination
    assert args.func(args) == 0
    options = cli._subcommand_options(parser, command)
    # --config is read before the parse, by main.
    dests = {action.dest for action in options.values()} - {"help", "config"}
    assert sorted(dests - args._reads) == []


@pytest.mark.parametrize("argv", [
    ["bound", "--class", "step", "--seed", "1"],
    ["extend", "--state", "fock:1", "--curve", "phase_rotation", "--format", "csv"],
    ["extend", "--state", "fock:1", "--curve", "phase_rotation", "--seed", "1"],
    ["verify", "--suite", "dominance", "--format", "csv"],
    ["verify", "--suite", "dominance", "--hull-max", "1"],
    ["verify", "--suite", "dominance", "--hull-points", "3"],
    ["sweep", "--eps0-grid", "1e-2", "--states", "fock:1", "--curve", "phase_rotation",
     "--seed", "1"],
])
def test_flag_the_subcommand_does_not_read_exit_two(argv, capsys):
    assert exit_code(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments" in captured.err


class TestEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "cvoodg.cli", "bound", "--class", "step",
             "--eps0", "0.1", "--tau", "1", "--points", "3", "--nbar-max", "2"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert "cvoodg.bound.v1" in proc.stdout

    @pytest.mark.parametrize("argv", [
        ["bound", "--class", "cubic_phase", "--eps0", "1.99", "--nbar-max", "2", "--points", "3"],
        ["extend", "--state", "fock:1", "--curve", "cubic_phase", "--eps0", "1.9", "--tau", "0.5"],
    ])
    def test_cubic_phase_near_two_exit_zero(self, argv):
        # An eps0 near 2 needs a large strength gap; the closed form still
        # gives a curve, and it covers eps0 at nbar = tau^2.
        proc = subprocess.run(
            [sys.executable, "-m", "cvoodg.cli", *argv], capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert proc.stderr == ""
        eps0 = float(argv[argv.index("--eps0") + 1])
        if argv[0] == "bound":
            rows = [line.split(",") for line in proc.stdout.strip().splitlines()[2:]]
            values = {float(r[0]): float(r[1]) for r in rows}
            assert eps0 <= values[1.0] <= 2.0  # the default tau is 1
        else:
            assert eps0 <= json.loads(proc.stdout)["value"] <= 2.0

    @pytest.mark.parametrize("argv", [
        ["bound", "--class", "cubic_phase", "--eps0", "1e-3", "--tau", "1e150", "--points", "3"],
        ["bound", "--class", "universal", "--eps0", "1e-3", "--tau", "1e150", "--points", "3"],
        ["bound", "--class", "universal", "--eps0", "1e-3", "--tau", "1e153", "--points", "3"],
    ], ids=" ".join)
    def test_large_tau_gives_finite_rows(self, argv):
        # tau^2 is finite here, so the guarantee is valid: no warning, no NaN.
        proc = subprocess.run(
            [sys.executable, "-m", "cvoodg.cli", *argv], capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert proc.stderr == ""
        values = [float(line.split(",")[1]) for line in proc.stdout.strip().splitlines()[2:]]
        assert len(values) == 3
        assert all(0.0 <= v <= 2.0 for v in values)

    @pytest.mark.parametrize("tau", ["1e9", "1.3e154"])
    def test_squeezing_at_large_tau_gives_positive_rows(self, tau):
        # The squeezing constant no longer cancels to c = 1 (rows of -0), and
        # 2 tau^2, which overflows from tau = 9.5e153, is never formed.
        proc = subprocess.run(
            [sys.executable, "-m", "cvoodg.cli", "bound", "--class", "squeezing",
             "--eps0", "0.1", "--tau", tau, "--points", "3"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert proc.stderr == ""
        values = [float(line.split(",")[1]) for line in proc.stdout.strip().splitlines()[2:]]
        assert len(values) == 3
        assert all(0.0 < v < 2.0 for v in values)
        assert values == sorted(values)

    def test_concavity_limits_at_the_largest_tau_exit_zero(self, tmp_path):
        out = tmp_path / "v.json"
        assert run_cli(["verify", "--suite", "concavity-limits", "--tau", "1.3e154",
                        "--output", str(out)]) == 0
        assert json.loads(out.read_text())["status"] == "pass"

    @pytest.mark.parametrize("tau", ["1000", "1e4"])
    def test_squeezing_dominance_at_large_tau_exit_zero(self, tau, tmp_path):
        # The worst-case squeezing pair saturates its guarantee instead of
        # exceeding it.
        out = tmp_path / "v.json"
        assert run_cli(["verify", "--suite", "dominance", "--class", "squeezing",
                        "--eps0", "0.1", "--tau", tau, "--output", str(out)]) == 0
        assert json.loads(out.read_text())["status"] == "pass"

    def test_phase_rotation_dominance_at_large_tau_exit_zero(self, tmp_path):
        # The rotation angle comes from asin, not from an acos of a number
        # near 1 that cancels, so the worst-case pair stays within its
        # guarantee.
        out = tmp_path / "v.json"
        assert run_cli(["verify", "--suite", "dominance", "--class", "phase_rotation",
                        "--eps0", "0.1", "--tau", "1e4", "--output", str(out)]) == 0
        assert json.loads(out.read_text())["status"] == "pass"

    def test_universal_order_cap_exit_two(self):
        proc = subprocess.run(
            [sys.executable, "-m", "cvoodg.cli", "bound", "--class", "universal",
             "--eps0", "1e-3", "--nbar-max", "1e6", "--points", "2"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == (
            "error: universal bound at nbar 1000000.0 needs truncation order 4010000, "
            "above the cap 5000\n"
        )

    @pytest.mark.parametrize("argv, message", [
        (["bound", "--class", "universal", "--eps0", "1e-3", "--nbar-max", "1e308",
          "--points", "3"],
         "error: universal bound at nbar 5e+307 needs truncation order inf, above the cap 5000\n"),
        (["extend", "--state", "fock:1", "--curve", "universal", "--eps0", "1e-3",
          "--hull-max", "1e308"],
         "error: universal bound at nbar 4.1666666666666656e+305 needs truncation order "
         "1.66666666666667e+306, above the cap 5000\n"),
    ], ids=["bound", "extend"])
    def test_universal_order_past_the_float_range_exit_two(self, argv, message):
        # The order is compared with the cap while it is a float: int() of
        # an infinite order raised OverflowError, a traceback and exit 1.
        proc = subprocess.run(
            [sys.executable, "-m", "cvoodg.cli", *argv], capture_output=True, text=True,
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == message

    def test_universal_bound_near_the_cap(self, capsys):
        # Every point but the vacuum is certified at the ceiling, so none of
        # them builds the order^2 series tables of the s-search.
        assert run_cli(["bound", "--class", "universal", "--eps0", "1e-3", "--tau", "1",
                        "--nbar-max", "1160", "--points", "5"]) == 0
        assert capsys.readouterr().out == (
            "# schema=cvoodg.bound.v1\n"
            "nbar,epsilon,class,eps0,tau\n"
            "0,0.0024000000200000006,universal,0.001,1\n"
            "290,2,universal,0.001,1\n"
            "580,2,universal,0.001,1\n"
            "870,2,universal,0.001,1\n"
            "1160,2,universal,0.001,1\n"
        )

    def test_universal_hull_near_the_cap(self, capsys):
        assert run_cli(["extend", "--state", "fock:2", "--curve", "universal", "--eps0", "1e-3",
                        "--tau", "1", "--hull-max", "1100", "--hull-points", "5"]) == 0
        assert json.loads(capsys.readouterr().out) == {
            "branch": "fock",
            "curve": "universal",
            "eps0": 0.001,
            "intermediates": {
                "curve_arg": 0.20709905562939024,
                "curve_value": 0.0039043675600768297,
                "penalty": 2.7267503560651107,
                "pre_clamp": 3.555453381405105,
                "prefactor": 212.2502588674533,
            },
            "params": {"M": None, "kappa": None, "s": 0.0929395938037651},
            "schema": "cvoodg.bound_report.v1",
            "state": "fock:2",
            "tau": 1.0,
            "value": 2.0,
        }

    @pytest.mark.parametrize("job", CLI_CORPUS["jobs"], ids=lambda job: job["id"])
    def test_output_is_the_corpus(self, job, tmp_path, monkeypatch, capsys):
        for name, text in job["files"].items():
            (tmp_path / name).write_text(text, encoding="utf-8")
        monkeypatch.chdir(tmp_path)
        code = exit_code(job["argv"])
        captured = capsys.readouterr()
        made_on = f"corpus made on Python {CLI_CORPUS['python']}, numpy {CLI_CORPUS['numpy']}"
        assert (code, captured.out, captured.err) == (
            job["exit"], job["stdout"], job["stderr"]), made_on

    def test_cubic_phase_fidelity_out_of_range_exit_two(self, monkeypatch, capsys):
        import mpmath

        monkeypatch.setattr(mpmath, "airyai", lambda z: mpmath.mpf(0))
        assert run_cli(["bound", "--class", "cubic_phase", "--eps0", "0.1", "--points", "3"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: cubic phase fidelity out of range")

    def test_seventeen_digit_serialization(self, tmp_path):
        out = tmp_path / "digits.csv"
        assert run_cli([
            "bound", "--class", "displacement", "--eps0", "0.1", "--tau", "1",
            "--points", "2", "--nbar-max", "1", "--output", str(out),
        ]) == 0
        value = out.read_text().strip().splitlines()[-1].split(",")[1]
        assert float(value) == 0.1
        assert value == f"{0.1:.17g}"


class TestOverflowAndSignedZeroInputs:
    """Inputs at the edge of the doubles give a row, or exit 2 with one
    error line; never a NaN row with exit 0, and never a -0 in a row."""

    def test_huge_spat_gives_finite_rows(self, capsys):
        # 3 + 4q overflows from q of about 4.5e307 on; the s = 0 point paid
        # 2 sqrt(0 inf) = nan for its smoothing and the row read nan.
        assert run_cli(["sweep", "--eps0-grid", "1e-3", "--states", "spat:5e307",
                        "--curve", "phase_rotation"]) == 0
        out = capsys.readouterr().out
        assert "nan" not in out
        assert out.splitlines()[2] == "spat:5e307,1e+308,2,phase_rotation,0.001,1,0,,"
        assert run_cli(["extend", "--state", "spat:5e307", "--curve", "displacement",
                        "--eps0", "1e-3"]) == 0
        assert json.loads(capsys.readouterr().out)["value"] == 0.001

    def test_spat_whose_energy_overflows_exit_two(self, capsys):
        assert run_cli(["extend", "--state", "spat:1e308", "--curve", "gaussian",
                        "--eps0", "1e-3"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: invalid state spec 'spat:1e308': SPAT requires a finite mean photon "
            "number 1 + 2q, got q 1e+308\n"
        )

    @pytest.mark.parametrize("argv,cause", [
        (["sweep", "--eps0-grid", "1e-3", "--states", "finite-negativity:1e200:1e200:1e200",
          "--curve", "gaussian"], "state energy nan and mu_P 2e+200"),
        (["extend", "--state", "finite-negativity:1e308:0:0", "--curve", "gaussian",
          "--eps0", "0"], "state energy 0.0 and mu_P inf"),
    ], ids=["energy", "mu"])
    def test_overflowing_negativity_profile_exit_two(self, argv, cause, capsys):
        assert run_cli(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        spec = argv[argv.index("--states" if argv[0] == "sweep" else "--state") + 1]
        assert captured.err == (
            f"error: invalid state spec {spec!r}: profile overflows: {cause} must be finite\n"
        )

    @pytest.mark.parametrize("argv,cause", [
        (["extend", "--state", f"fock:{HUGE_INT}", "--curve", "phase_rotation", "--eps0", "1e-3"],
         f"invalid state spec 'fock:{HUGE_INT}': int too large to convert to float"),
        (["sweep", "--eps0-grid", "1e-3", "--states", f"fock:{HUGE_INT}", "--curve", "gaussian"],
         f"invalid state spec 'fock:{HUGE_INT}': int too large to convert to float"),
        (["extend", "--state", "known-fock:huge.json", "--curve", "phase_rotation",
          "--eps0", "1e-3"],
         "invalid state spec 'known-fock:huge.json': int too large to convert to float"),
        (["bound", "--class", "step", "--points", HUGE_INT],
         "a grid holds at most 1000000 points"),
        (["extend", "--state", "fock:1", "--curve", "step", "--hull-points", HUGE_INT],
         "a grid holds at most 1000000 points"),
    ], ids=["fock", "sweep-fock", "known-fock", "points", "hull-points"])
    def test_integer_past_the_float_range_exit_two(self, argv, cause, tmp_path, monkeypatch,
                                                  capsys):
        # Each once raised OverflowError converting the integer to a float,
        # a traceback with exit 1, which reads as a violation.
        (tmp_path / "huge.json").write_text(f"[[{HUGE_INT}, 0], [0, 0]]", encoding="utf-8")
        monkeypatch.chdir(tmp_path)
        assert run_cli(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {cause}\n"

    @pytest.mark.parametrize("points", ["1000001", "100000000000"])
    @pytest.mark.parametrize("flag,argv", [
        ("--points", ["bound", "--class", "step"]),
        ("--hull-points", ["extend", "--state", "fock:1", "--curve", "step"]),
    ], ids=["points", "hull-points"])
    def test_grid_past_the_cap_exit_two(self, flag, argv, points, capsys):
        # 1e11 points once exhausted memory building the grid (MemoryError,
        # exit 1, under a 600 MB address-space limit).
        assert run_cli([*argv, flag, points]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: a grid holds at most 1000000 points\n"

    def test_minus_zero_inputs_give_zero_rows(self, capsys):
        assert run_cli(["bound", "--class", "step", "--eps0", "-0", "--nbar-max", "2",
                        "--points", "2"]) == 0
        assert capsys.readouterr().out.splitlines()[2:] == ["0,0,step,0,1", "2,2,step,0,1"]
        assert run_cli(["extend", "--state", "classical:-0", "--curve", "phase_rotation",
                        "--eps0", "1e-3"]) == 0
        payload = json.loads(capsys.readouterr().out)
        values = [payload["value"], *payload["intermediates"].values()]
        assert [math.copysign(1.0, v) for v in values] == [1.0] * 3
