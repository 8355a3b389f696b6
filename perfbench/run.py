"""cvoodg CLI benchmark.

    python3 perfbench/run.py --workload cli-short --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``. Workloads are in ``workloads.py`` and their rationale, metrics and
baseline in ``NOTES.md``.

Load model: a closed loop with one client. Each job is a fresh
``python -m cvoodg.cli`` process started only after the previous one has
exited, with ``CV_OODG_THREADS`` removed from its environment.

``--trace 0`` measures the end-to-end metrics with tracing off: the first
pass runs every job once, then jobs repeat in order until ``--seconds``
have passed, and each job's time is the mean of its runs.
``--trace 1`` replays the same jobs in two fresh interpreters, untraced and
traced, and reports the per-layer metrics.

Every job run passes through the correctness gate (``gate.py``). A job is
one operation: ``attempted`` counts the workload's jobs and ``failed`` the
jobs of which the gate rejects any run, so both are fixed for a seed however
often a run repeats its jobs. ``correct`` is false when a job printed a
result the gate rejects or exited 0 without one; a job that exits with an
error and prints nothing is a failed job, not an incorrect result. The last
line of stdout is the JSON result; a record with the seed, every argv, the
per-run results and the provenance is written under ``.perfbench/runs/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from importlib import metadata
from pathlib import Path

import gate
from workloads import WORKLOADS, Job, Workload, generate

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SCHEMA_DIR = str(SRC / "cvoodg" / "schemas")
OUT_DIR = ROOT / ".perfbench"

# Set-up probes run half before and half after the timed jobs.
SETUP_PROBES = 4
IMPORTTIME_PROBES = 3
# Every run ends well inside the 180 s a run may take.
RUN_DEADLINE_S = 170.0
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
COMMANDS = ("bound", "extend", "sweep", "verify")


class BenchError(RuntimeError):
    pass


class _Deadline(Exception):
    pass


def _on_alarm(signum, frame):
    raise _Deadline


class Runner:
    """Starts one child at a time and reaps it with ``os.wait4``."""

    def __init__(self, workdir: Path, deadline: float):
        self.workdir = workdir
        self.deadline = deadline
        env = {k: v for k, v in os.environ.items() if k != "CV_OODG_THREADS"}
        env["PYTHONPATH"] = str(SRC)
        self.env = env

    def python(self, args: list[str], name: str = "child") -> dict:
        """Run ``python <args>``; wall seconds, exit code, peak RSS and output."""
        out_path, err_path = self.workdir / f"{name}.out", self.workdir / f"{name}.err"
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError(f"run deadline reached before {name}")
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable, *args], cwd=self.workdir, env=self.env,
                                    stdin=subprocess.DEVNULL, stdout=out, stderr=err)
            previous = signal.signal(signal.SIGALRM, _on_alarm)
            signal.setitimer(signal.ITIMER_REAL, remaining)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException as exc:
                proc.kill()
                proc.wait()
                if isinstance(exc, _Deadline):
                    raise BenchError(f"{name} did not finish before the run deadline") from None
                raise
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
                signal.signal(signal.SIGALRM, previous)
            seconds = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
        return {"seconds": seconds, "cpu_s": usage.ru_utime + usage.ru_stime,
                "exit": proc.returncode, "rss_mb": usage.ru_maxrss / 1024.0,
                "stdout": out_path.read_text(encoding="utf-8", errors="replace"),
                "stderr": err_path.read_text(encoding="utf-8", errors="replace")}


def calib_ms() -> float:
    """A fixed pure-Python plus numpy probe of machine speed (median of 3)."""
    import numpy as np

    times = []
    for _ in range(3):
        start = time.perf_counter()
        total = 0
        for i in range(150_000):
            total += i * i % 7
        a = np.linspace(0.0, 1.0, 200_000)
        for _ in range(20):
            a = np.sqrt(a * a + 1.0) - 0.5
        np.sort(a)
        times.append(1e3 * (time.perf_counter() - start))
    return statistics.median(times)


def _git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _cpu_model() -> str | None:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def provenance() -> dict:
    versions = {}
    for package in ("numpy", "scipy", "mpmath", "jsonschema"):
        try:
            versions[package] = metadata.version(package)
        except metadata.PackageNotFoundError:
            versions[package] = None
    return {
        "git_commit": _git_commit(),
        "python": platform.python_version(),
        "versions": versions,
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "blas_thread_vars": {k: os.environ[k] for k in BLAS_THREAD_VARS if k in os.environ},
    }


def warm_up(runner: Runner) -> None:
    """Import the package once, untimed, so ``.pyc`` compilation is not timed,
    and check that it is the checkout's own copy."""
    probe = "import cvoodg, cvoodg.cli; print(cvoodg.__file__)"
    result = runner.python(["-c", probe], "warm-up")
    if result["exit"] != 0:
        raise BenchError(f"cannot import cvoodg.cli from {SRC}: {result['stderr'].strip()}")
    imported = Path(result["stdout"].strip()).resolve()
    if SRC.resolve() not in imported.parents:
        raise BenchError(f"cvoodg was imported from {imported}, not from {SRC}")


def _importtime(stderr: str) -> dict[str, float]:
    """Import cost of cvoodg.cli from ``-X importtime`` output, in ms.

    scipy.integrate is loaded through scipy's lazy ``__getattr__``, which
    importtime does not time as one entry, so its cost is the cumulative
    time of the outermost scipy entries: cvoodg imports no other part of
    scipy at module level.
    """
    entries = []
    for line in stderr.splitlines():
        parts = line.split("|")
        if len(parts) != 3 or not parts[0].startswith("import time:"):
            continue
        try:
            self_us, cum_us = int(parts[0].split(":")[1]), int(parts[1])
        except ValueError:
            continue  # the header line
        name = parts[2].rstrip()
        entries.append((len(name) - len(name.lstrip()), name.strip(), self_us, cum_us))
    total = scipy = own = 0
    stack: list[tuple[int, bool]] = []  # (indent, inside a scipy entry)
    for indent, name, self_us, cum_us in reversed(entries):  # parents come after children
        while stack and stack[-1][0] >= indent:
            stack.pop()
        in_scipy = bool(stack) and stack[-1][1]
        is_scipy = name == "scipy" or name.startswith("scipy.")
        if is_scipy and not in_scipy:
            scipy += cum_us
        if name == "cvoodg" or name.startswith("cvoodg."):
            own += self_us
            if not stack:
                total += cum_us
        stack.append((indent, in_scipy or is_scipy))
    return {"cli.import_ms": total / 1e3, "cli.import_scipy_integrate_ms": scipy / 1e3,
            "cli.import_cvoodg_self_ms": own / 1e3}


def _judge(job: Job, result: dict) -> dict:
    """The run's record for ``runs``: the gate's verdict, without stdout."""
    problems = gate.check(job, result["exit"], result["stdout"], SCHEMA_DIR)
    wrong = bool(problems) and (bool(result["stdout"]) or result["exit"] == 0)
    kept = {k: v for k, v in result.items() if k != "stdout"}
    return {"job": job.id, **kept, "problems": problems, "wrong": wrong}


def failed_jobs(runs: list[dict]) -> set[str]:
    """The jobs of which the gate rejected at least one run."""
    return {r["job"] for r in runs if r["problems"]}


def run_timed(workload: Workload, runner: Runner, seconds: float) -> tuple[dict, list[dict]]:
    """End-to-end metrics with tracing off."""
    def probe_setup() -> list[float]:
        return [runner.python(["-c", "import cvoodg.cli"], "setup")["seconds"]
                for _ in range(SETUP_PROBES // 2)]

    setup = probe_setup()
    runs: list[dict] = []
    samples: list[list[float]] = [[] for _ in workload.jobs]
    start = time.perf_counter()
    index = 0
    while index < len(workload.jobs) or time.perf_counter() - start < seconds:
        slot = index % len(workload.jobs)
        job = workload.jobs[slot]
        result = runner.python(["-m", "cvoodg.cli", *job.argv], job.id)
        samples[slot].append(result["seconds"])
        runs.append(_judge(job, result))
        index += 1
    setup += probe_setup()
    # A heavy job runs only three or four times in a run; over that few
    # samples the mean spread less from run to run than the median did.
    job_s = [statistics.fmean(s) for s in samples]
    by_command = {c: sum(t for j, t in zip(workload.jobs, job_s) if j.command == c)
                  for c in COMMANDS if any(j.command == c for j in workload.jobs)}
    summary = {
        "wall_s": (sum(job_s), "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (max(r["rss_mb"] for r in runs), "MB"),
        **{f"{c}_s": (v, "s") for c, v in by_command.items()},
        "fail_frac": (len(failed_jobs(runs)) / len(workload.jobs), "frac"),
    }
    return summary, runs


def run_traced(workload: Workload, runner: Runner) -> tuple[dict, list[dict], list]:
    """Per-layer metrics from an untraced and a traced in-process pass."""
    probes = [_importtime(runner.python(["-X", "importtime", "-c", "import cvoodg.cli"],
                                        "importtime")["stderr"])
              for _ in range(IMPORTTIME_PROBES)]
    layers = {k: (statistics.median(p[k] for p in probes), "ms") for k in probes[0]}
    jobs_path = runner.workdir / "jobs.json"
    jobs_path.write_text(json.dumps([list(j.argv) for j in workload.jobs]), encoding="utf-8")
    inproc = str(Path(__file__).resolve().parent / "inproc.py")
    passes = {}
    for trace in (0, 1):
        result_path = runner.workdir / f"inproc{trace}.json"
        child = runner.python([inproc, str(jobs_path), str(result_path), "--trace", str(trace)],
                              f"inproc{trace}")
        if child["exit"] != 0:
            raise BenchError(f"in-process pass failed: {child['stderr'].strip()[-2000:]}")
        passes[trace] = json.loads(result_path.read_text(encoding="utf-8"))
    runs = []
    for trace, payload in passes.items():
        runs += [{**_judge(j, r), "trace": trace} for j, r in zip(workload.jobs, payload["jobs"])]
    layers.update({k: tuple(v) for k, v in passes[1]["layers"].items()})
    untraced, traced = (sum(r["seconds"] for r in passes[t]["jobs"]) for t in (0, 1))
    layers["bench.trace_overhead_frac"] = (traced / untraced - 1.0, "frac")
    return layers, runs, passes[1]["spans"]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A terminated run still kills and reaps its child and removes its files.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    deadline = time.monotonic() + RUN_DEADLINE_S

    if not (SRC / "cvoodg" / "cli.py").is_file():
        print(f"error: no cvoodg sources under {SRC}", file=sys.stderr)
        return 2
    workload = generate(args.workload, args.seed)
    (OUT_DIR / "tmp").mkdir(parents=True, exist_ok=True)
    record = {"workload": workload.as_json(), "trace": args.trace, "seconds": args.seconds,
              "provenance": provenance()}
    try:
        with tempfile.TemporaryDirectory(dir=OUT_DIR / "tmp") as tmp:
            runner = Runner(Path(tmp), deadline)
            workload.write_files(runner.workdir)
            warm_up(runner)
            calib = [calib_ms()]
            if args.trace:
                metrics, runs, spans = run_traced(workload, runner)
                record["spans"] = spans
            else:
                metrics, runs = run_timed(workload, runner, args.seconds)
            calib.append(calib_ms())
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    record["calib_ms"] = calib
    record["runs"] = runs
    if args.trace:
        metrics["bench.calib_ms"] = (statistics.median(calib), "ms")
        reported = metrics
    else:
        reported = {k: metrics[k] for k in ("wall_s", "setup_s", "peak_rss_mb")}
    record["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}

    runs_dir = OUT_DIR / "runs"
    runs_dir.mkdir(parents=True, exist_ok=True)
    record_path = runs_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=1), encoding="utf-8")

    for run in runs:
        if run["problems"]:
            print(f"FAILED {run['job']}: {'; '.join(run['problems'])}")
    print(f"calib_ms before/after: {calib[0]:.1f} / {calib[1]:.1f}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(f"record: {record_path}")
    result = {
        "correct": not any(r["wrong"] for r in runs),
        "attempted": len(workload.jobs),
        "failed": len(failed_jobs(runs)),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in reported.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
