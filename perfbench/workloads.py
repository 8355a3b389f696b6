"""Seeded job generator for the cvoodg CLI benchmark.

A job is one ``python -m cvoodg.cli <argv>`` call plus what its output must
look like. The generator draws parameters from ``random.Random(seed)``, whose
stream is fixed across Python versions, so one seed always gives
byte-identical argv and input files. Paths in argv are relative: jobs run
with the directory holding the generated files as their working directory.

Parameters are drawn only where the cost of a job does not depend on them.
The universal truncation order depends on nbar alone, so the nbar grids are
fixed and eps0, tau and the states vary.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path

WORKLOADS = ("cli-short", "universal", "verify-oracle")

CLOSED_FORM_CLASSES = (
    "step", "lipschitz", "gaussian", "phase_rotation", "squeezing", "displacement", "symmetric",
)
# Curves that are concave as built, so ``extend`` spends its time in the
# extension and not in a hull.
CONCAVE_CURVES = ("gaussian", "phase_rotation", "squeezing", "displacement", "symmetric")
# Sweepable in both output formats; ``known-fock`` is added on purpose to
# one cli-short sweep only.
SWEEP_STATE_KINDS = ("classical", "fock", "spat", "squeezed-vacuum", "energy-only",
                     "finite-negativity")

BOUND_HEADER = "nbar,epsilon,class,eps0,tau"
SWEEP_HEADER = "state,nbar,epsilon,class,eps0,tau,s,M,kappa"


@dataclass(frozen=True)
class Job:
    """One CLI call and the shape its output must have.

    ``output`` is one of ``csv-bound``, ``csv-sweep``, ``json-curve``,
    ``json-report`` and ``json-verify``; ``rows`` is the expected number of
    data rows (CSV) or grid points (curve JSON); ``status`` is the expected
    top-level status of a verify report.
    """

    id: str
    command: str
    argv: tuple[str, ...]
    output: str
    expect_exit: int = 0
    rows: int | None = None
    status: str | None = None


@dataclass
class Workload:
    name: str
    seed: int
    jobs: list[Job]
    files: dict[str, str] = field(default_factory=dict)

    def write_files(self, directory: Path) -> None:
        for name, text in self.files.items():
            (directory / name).write_text(text, encoding="utf-8")

    def as_json(self) -> dict:
        return {
            "name": self.name,
            "seed": self.seed,
            "jobs": [{"id": j.id, "argv": list(j.argv), "expect_exit": j.expect_exit}
                     for j in self.jobs],
            "files": self.files,
        }


def _fmt(x: float) -> str:
    return repr(float(x))


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return lo * (hi / lo) ** rng.random()


def _guarantee(rng: random.Random, eps0_lo: float = 1e-4, eps0_hi: float = 0.1) -> list[str]:
    return ["--eps0", _fmt(_log_uniform(rng, eps0_lo, eps0_hi)),
            "--tau", _fmt(rng.uniform(0.5, 1.5))]


def _state(rng: random.Random, kind: str) -> str:
    if kind == "classical":
        return f"classical:{_fmt(rng.uniform(0.1, 8.0))}"
    if kind == "fock":
        return f"fock:{rng.randint(1, 6)}"
    if kind == "spat":
        return f"spat:{_fmt(rng.uniform(0.2, 3.0))}"
    if kind == "squeezed-vacuum":
        return f"squeezed-vacuum:{_fmt(rng.uniform(0.1, 0.8))}"
    if kind == "energy-only":
        return f"energy-only:{_fmt(rng.uniform(0.1, 5.0))}"
    if kind == "finite-negativity":
        negativity = rng.uniform(0.05, 1.0)
        nbar_minus = rng.uniform(0.1, 2.0)
        # nbar_plus keeps the state energy (1+N) n+ - N n- positive.
        nbar_plus = negativity * nbar_minus / (1.0 + negativity) + rng.uniform(0.1, 4.0)
        return f"finite-negativity:{_fmt(negativity)}:{_fmt(nbar_plus)}:{_fmt(nbar_minus)}"
    raise ValueError(f"unknown state kind {kind!r}")


def density_matrix_json(rng: random.Random, dim: int = 8) -> str:
    """A full-rank dim x dim density matrix G G^dagger / tr, as [re, im] pairs.

    Built in pure Python so the bytes do not depend on a BLAS; the sums run
    in the same order for (i, j) and (j, i), so the matrix is exactly
    Hermitian with an exactly real diagonal.
    """
    g = [[complex(rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0)) for _ in range(dim)]
         for _ in range(dim)]
    rho = [[sum(g[i][k] * g[j][k].conjugate() for k in range(dim)) for j in range(dim)]
           for i in range(dim)]
    trace = sum(rho[i][i].real for i in range(dim))
    rows = [[[rho[i][j].real / trace, rho[i][j].imag / trace] for j in range(dim)]
            for i in range(dim)]
    return json.dumps(rows) + "\n"


def _cli_short(rng: random.Random) -> tuple[list[Job], dict[str, str]]:
    jobs: list[Job] = []
    points = 200
    for i, cls in enumerate(CLOSED_FORM_CLASSES + ("cubic_phase",)):
        fmt = "json" if i % 2 else "csv"
        argv = ("bound", "--class", cls, *_guarantee(rng), "--nbar-max", "20",
                "--points", str(points), "--format", fmt)
        jobs.append(Job(f"bound-{cls}", "bound", argv,
                        "json-curve" if fmt == "json" else "csv-bound", rows=points))

    files = {"rho_extend.json": density_matrix_json(rng),
             "rho_sweep.json": density_matrix_json(rng)}
    kinds = SWEEP_STATE_KINDS + ("known-fock",)
    for kind in kinds:
        state = "known-fock:rho_extend.json" if kind == "known-fock" else _state(rng, kind)
        argv = ("extend", "--state", state, "--curve", rng.choice(CONCAVE_CURVES),
                *_guarantee(rng))
        jobs.append(Job(f"extend-{kind}", "extend", argv, "json-report"))

    eps0_grid = ",".join(_fmt(_log_uniform(rng, 1e-4, 0.1)) for _ in range(3))
    states = ",".join(_state(rng, k) for k in rng.sample(SWEEP_STATE_KINDS, 3))
    jobs.append(Job("sweep-lipschitz", "sweep",
                    ("sweep", "--eps0-grid", eps0_grid, "--states", states,
                     "--curve", "lipschitz", "--tau", _fmt(rng.uniform(0.5, 1.5))),
                    "csv-sweep", rows=9))
    eps0_grid = ",".join(_fmt(_log_uniform(rng, 1e-4, 0.1)) for _ in range(2))
    states = ",".join(["known-fock:rho_sweep.json", _state(rng, rng.choice(SWEEP_STATE_KINDS))])
    jobs.append(Job("sweep-known-fock", "sweep",
                    ("sweep", "--eps0-grid", eps0_grid, "--states", states,
                     "--curve", "phase_rotation", "--tau", _fmt(rng.uniform(0.5, 1.5))),
                    "csv-sweep", rows=4))

    jobs.append(Job("verify-gamma", "verify",
                    ("verify", "--suite", "gamma-closed-form", *_guarantee(rng)),
                    "json-verify", status="pass"))
    jobs.append(Job("verify-concavity", "verify",
                    ("verify", "--suite", "concavity-limits", *_guarantee(rng)),
                    "json-verify", status="pass"))
    # Negative control: an under-scaled curve must be caught (exit 1).
    jobs.append(Job("verify-negative-control", "verify",
                    ("verify", "--suite", "dominance", "--class", "phase_rotation",
                     *_guarantee(rng, 1e-3, 0.3), "--seed", str(rng.randint(0, 9999)),
                     "--curve-scale", "0.5"),
                    "json-verify", expect_exit=1, status="fail"))
    return jobs, files


def _universal(rng: random.Random) -> tuple[list[Job], dict[str, str]]:
    # 21 points keep a pass near 9 s, so a run times each job about three
    # times; the truncation order still differs at every point.
    points = 21
    # The s-search costs up to ~15% more at eps0 near 0.1 than below 1e-3,
    # so eps0 stays in a decade where the cost is flat.
    bound = Job("bound-universal", "bound",
                ("bound", "--class", "universal", *_guarantee(rng, 1e-4, 1e-3),
                 "--nbar-max", "40", "--points", str(points), "--format", "json"),
                "json-curve", rows=points)
    eps0_grid = ",".join(_fmt(_log_uniform(rng, 1e-4, 1e-3)) for _ in range(2))
    states = ",".join(_state(rng, k) for k in rng.sample(SWEEP_STATE_KINDS, 2))
    sweep = Job("sweep-universal", "sweep",
                ("sweep", "--eps0-grid", eps0_grid, "--states", states, "--curve", "universal",
                 "--tau", _fmt(rng.uniform(0.5, 1.5)), "--hull-max", "20",
                 "--hull-points", str(points)),
                "csv-sweep", rows=4)
    return [bound, sweep], {}


def _verify_oracle(rng: random.Random) -> tuple[list[Job], dict[str, str]]:
    tau = _fmt(rng.uniform(0.5, 1.5))
    jobs = [
        Job("verify-all", "verify",
            ("verify", "--suite", "all", "--eps0", _fmt(_log_uniform(rng, 1e-3, 0.3)),
             "--tau", tau, "--seed", str(rng.randint(0, 9999))),
            "json-verify", status="pass"),
        Job("verify-dominance", "verify",
            ("verify", "--suite", "dominance", "--eps0", _fmt(_log_uniform(rng, 1e-3, 0.3)),
             "--tau", tau, "--seed", str(rng.randint(0, 9999))),
            "json-verify", status="pass"),
    ]
    return jobs, {}


_BUILDERS = {"cli-short": _cli_short, "universal": _universal, "verify-oracle": _verify_oracle}


def generate(name: str, seed: int) -> Workload:
    """The jobs and input files of one workload at one seed."""
    if name not in _BUILDERS:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    # The workload name is mixed in so the workloads draw independent streams.
    rng = random.Random(f"{name}:{seed}")
    jobs, files = _BUILDERS[name](rng)
    return Workload(name, seed, jobs, files)
