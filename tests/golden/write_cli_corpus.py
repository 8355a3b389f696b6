"""Rewrite ``cli_corpus.json``, the committed output corpus of the CLI, and
print every job whose output moved.

Each job is one ``cli.main(argv)`` call run in process, in a fresh directory
that holds the job's input files, with its exit code, stdout and stderr. The
jobs are, at seeds 1-10, the ``bound-*``, ``extend-*`` and ``sweep-*`` jobs
and the ``verify-concavity`` and ``verify-negative-control`` jobs of
perfbench's ``cli-short`` workload, the ``bound-universal`` and
``sweep-universal`` jobs of its ``universal`` workload and the
``verify-dominance`` job of its ``verify-oracle`` workload, stored as argv
and files so that later workload changes do not move them, plus edge jobs:
every spelling of every state kind, zero-energy states on every curve class,
empty, malformed and unknown specs, grid sizes at and past their limits, the
report branches that no workload job reports, one squeezed vacuum through
``extend`` and both ``sweep`` formats, a finite-negativity state whose
energy rounds below 0, ``verify`` at eps0 = 2, two universal commands whose
output crosses the ceiling, and one job or more for each of the flags that
no workload job passes: ``--combined``, ``--concavify``, ``--config`` and
``--fail-on-trivial``.

The ``verify`` jobs are the ones that compute with plain floats; the
quadrature and Fock-space suites are left out until their spread across
Python and numpy versions is measured.

Run from the repository root::

    PYTHONPATH=src python tests/golden/write_cli_corpus.py

The corpus records the Python and numpy versions it was written with;
``tests/test_cli.py`` replays it byte for byte.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import platform
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
CORPUS = Path(__file__).resolve().parent / "cli_corpus.json"
SEEDS = range(1, 11)

#: A two-level mixture, the known-Fock input of the edge jobs.
RHO = "[[0.75, 0], [0, [0.25, 0.0]]]\n"
#: An integer that no float holds.
HUGE_INT = "1" + "0" * 400
#: The universal curve's hull is kept small, so its edge jobs stay cheap.
SMALL_HULL = ["--hull-max", "20", "--hull-points", "21"]
CURVES = ("step", "lipschitz", "gaussian", "phase_rotation", "squeezing", "displacement",
          "symmetric", "cubic_phase", "universal")
#: The jobs of each workload, by id prefix.
WORKLOAD_JOBS = (
    ("cli-short", ("bound-", "extend-", "sweep-", "verify-concavity", "verify-negative-control")),
    ("universal", ("bound-", "sweep-")),
    ("verify-oracle", ("verify-dominance",)),
)
KIND_SAMPLES = (
    ("classical", "0.5"), ("fock", "2"), ("spat", "1.0"), ("squeezed-vacuum", "0.3"),
    ("energy-only", "1.0"), ("finite-negativity", "0.3:1.5:0.5"), ("known-fock", "rho.json"),
)
BAD_SPECS = (
    "", ":", "fock", "fock:", "fock:1.5", "fock:abc", "fock:-1", "classical:abc",
    "classical:inf", "classical:nan", "classical:-1", "spat:0", "spat:-1",
    "squeezed-vacuum:0", "squeezed-vacuum:1", "energy-only:-1", "energy-only:",
    "finite-negativity:0.5:2", "finite-negativity:0.5:2:1:1", "finite-negativity:",
    "finite-negativity:0.5:0:2", "finite-negativity:-1:1:1", "known-fock:",
    "known-fock:missing.json", "mystery:1", "vacuum:1", "coherent:1", "squeezed_vacuum-:1",
    "energy--only:1",
)


def _spellings(kind: str) -> list[str]:
    out = []
    for name in (kind, kind.replace("-", "_"), kind.upper(), kind.replace("-", "_").upper(),
                 kind.title()):
        if name not in out:
            out.append(name)
    return out


def _extend(state: str, curve: str = "phase_rotation", *extra: str) -> list[str]:
    return ["extend", "--state", state, "--curve", curve, "--eps0", "1e-3", "--tau", "1", *extra]


def workload_jobs() -> list[tuple[str, list[str], dict[str, str]]]:
    sys.path.insert(0, str(ROOT))
    from perfbench import workloads

    jobs = []
    for name, prefixes in WORKLOAD_JOBS:
        for seed in SEEDS:
            workload = workloads.generate(name, seed)
            for job in workload.jobs:
                if job.id.startswith(prefixes):
                    files = {f: t for f, t in workload.files.items()
                             if any(f in arg for arg in job.argv)}
                    jobs.append((f"{name}/{seed}/{job.id}", list(job.argv), files))
    return jobs


def edge_jobs() -> list[tuple[str, list[str], dict[str, str]]]:
    files = {"rho.json": RHO}
    jobs = []
    for kind, rest in KIND_SAMPLES:
        for name in _spellings(kind):
            jobs.append((f"edge/spelling/{name}", _extend(f"{name}:{rest}"), files))
    every = [f"{name}:{rest}" for kind, rest in KIND_SAMPLES for name in _spellings(kind)[1:]]
    for fmt in ("csv", "json"):
        jobs.append((f"edge/spelling/sweep-{fmt}",
                     ["sweep", "--eps0-grid", "1e-3,0.1", "--states", ",".join(every),
                      "--curve", "gaussian", "--format", fmt], files))
    zero = "fock:0,energy_only:-0,ENERGY-ONLY:0.0,finite-negativity:0:0:0,classical:-0"
    for curve in CURVES:
        hull = SMALL_HULL if curve == "universal" else []
        for state in ("fock:0", "energy-only:0", "energy_only:-0"):
            jobs.append((f"edge/zero/{state}/{curve}", _extend(state, curve, *hull), {}))
        jobs.append((f"edge/zero/sweep/{curve}",
                     ["sweep", "--eps0-grid", "1e-4,0.1", "--states", zero, "--curve", curve,
                      *hull], {}))
    for spec in BAD_SPECS:
        jobs.append((f"edge/bad/{spec}", _extend(spec), {}))
    for states in ("", ",", " , ", "fock:1,mystery:1", "fock:1,finite-negativity:1"):
        jobs.append((f"edge/bad/sweep/{states}",
                     ["sweep", "--eps0-grid", "1e-3", "--states", states, "--curve", "gaussian"],
                     {}))
    for name, points in (("1", "1"), ("2", "2"), ("huge", HUGE_INT)):
        jobs.append((f"edge/grid/points/{name}",
                     ["bound", "--class", "step", "--nbar-max", "2", "--points", points], {}))
    for name, points in (("2", "2"), ("3", "3"), ("huge", HUGE_INT)):
        jobs.append((f"edge/grid/hull-points/{name}",
                     _extend("fock:1", "step", "--hull-points", points), {}))
    # The two report branches that no other job reports.
    jobs.append(("edge/branch/energy_generic",
                 ["extend", "--state", "energy-only:1.0", "--curve", "phase_rotation", "--eps0",
                  "1e-8", "--tau", "1"], {}))
    jobs.append(("edge/branch/squeezed_classical",
                 ["extend", "--state", "squeezed-vacuum:0.01", "--curve", "gaussian", "--eps0",
                  "0.05"], {}))
    # A squeezed vacuum whose n̄ once read differently as lam**2 and as
    # lam * lam: extend and both sweep formats print the same n̄.
    jobs.append(("edge/nbar/extend",
                 ["extend", "--state", "squeezed-vacuum:0.6352", "--curve", "gaussian",
                  "--eps0", "1e-3"], {}))
    for fmt in ("csv", "json"):
        jobs.append((f"edge/nbar/sweep-{fmt}",
                     ["sweep", "--eps0-grid", "1e-3", "--states", "squeezed-vacuum:0.6352",
                      "--curve", "gaussian", "--format", fmt], {}))
    # (1+N) nbar+ - N nbar- is -3e-13 here, admitted as rounding; n̄ prints 0.
    jobs.append(("edge/nbar/rounding-negative",
                 ["sweep", "--eps0-grid", "1e-3", "--states",
                  "finite-negativity:3:0.75:1.0000000000001", "--curve", "gaussian"], {}))
    # At eps0 = 2 a worst-case pair does not exist; verify names the rule.
    for suite in ("dominance", "all"):
        jobs.append((f"edge/verify/eps0-2/{suite}",
                     ["verify", "--suite", suite, "--eps0", "2"], {}))
    # Both cross the ceiling: the bound's per_point_s mixes searched s and
    # null, and the sweep holds rows at 2 and below it.
    jobs.append(("edge/universal/bound",
                 ["bound", "--class", "universal", "--eps0", "1e-4", "--tau", "1", "--nbar-max",
                  "3", "--points", "13", "--format", "json"], {}))
    jobs.append(("edge/universal/sweep",
                 ["sweep", "--eps0-grid", "1e-8,1e-4", "--states",
                  "fock:1,spat:0.3,classical:0.2", "--curve", "universal", "--tau", "0.7"], {}))
    # The flags that no workload job passes.
    for fmt in ("csv", "json"):
        jobs.append((f"edge/flag/combined-{fmt}",
                     ["bound", "--class", "phase_rotation", "--eps0", "0.3", "--tau", "1",
                      "--points", "5", "--combined", "--format", fmt], {}))
    jobs.append(("edge/flag/concavify",
                 ["bound", "--class", "lipschitz", "--eps0", "0.3", "--tau", "1", "--points",
                  "5", "--concavify", "--hull-points", "41"], {}))
    # The file gives the required --class, and --eps0 overrides its eps0.
    jobs.append(("edge/flag/config",
                 ["bound", "--config", "cfg.txt", "--points", "5", "--eps0", "0.2"],
                 {"cfg.txt": "class=phase_rotation\neps0=0.3\nconcavify=true\n"}))
    # A trivial bound exits 3, a non-trivial one 0.
    for name, state, curve, eps0 in (("trivial", "fock:2", "phase_rotation", "1e-3"),
                                     ("non-trivial", "classical:30", "gaussian", "0.5")):
        jobs.append((f"edge/flag/fail-on-trivial/{name}",
                     ["extend", "--state", state, "--curve", curve, "--eps0", eps0,
                      "--fail-on-trivial"], {}))
    return jobs


def run(argv: list[str], files: dict[str, str]) -> dict:
    """Exit code, stdout and stderr of cli.main(argv) in a fresh directory
    that holds files."""
    from cvoodg import cli

    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in files.items():
            Path(tmp, name).write_text(text, encoding="utf-8")
        os.chdir(tmp)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = cli.main(argv)
                except SystemExit as exc:
                    code = exc.code
        finally:
            os.chdir(cwd)
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def main() -> int:
    import numpy

    old = {}
    if CORPUS.exists():
        old = {job["id"]: job for job in json.loads(CORPUS.read_text())["jobs"]}
    jobs = []
    for job_id, argv, files in workload_jobs() + edge_jobs():
        job = {"id": job_id, "argv": argv, "files": files, **run(argv, files)}
        before = old.get(job_id)
        if before is None:
            print(f"new: {job_id}")
        else:
            for key in ("exit", "stdout", "stderr"):
                if before[key] != job[key]:
                    print(f"moved {key}: {job_id}\n  - {before[key]!r}\n  + {job[key]!r}")
        jobs.append(job)
    for job_id in old.keys() - {job["id"] for job in jobs}:
        print(f"gone: {job_id}")
    corpus = {"python": platform.python_version(), "numpy": numpy.__version__, "jobs": jobs}
    CORPUS.write_text(json.dumps(corpus, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
