"""Run a workload's jobs in one interpreter through ``cvoodg.cli.main``.

Usage: ``python inproc.py <jobs.json> <result.json> --trace 0|1``, with the
package on ``PYTHONPATH`` and the generated files in the working directory.
Each job's stdout is captured for the correctness gate. With ``--trace 1``
the tracer wraps the package for the whole pass and the result carries the
per-layer metrics and the spans.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import time


def run_jobs(argvs: list[list[str]], tracer=None) -> list[dict]:
    from cvoodg import cli

    results = []
    for index, argv in enumerate(argvs):
        if tracer is not None:
            tracer.job = index
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(list(argv))
            except SystemExit as exc:  # argparse errors exit through SystemExit
                code = exc.code if isinstance(exc.code, int) else 1
        results.append({"seconds": time.perf_counter() - start, "exit": code,
                        "stdout": out.getvalue(), "stderr": err.getvalue()})
    return results


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("jobs")
    parser.add_argument("result")
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    with open(args.jobs, encoding="utf-8") as handle:
        argvs = json.load(handle)

    import cvoodg.cli  # noqa: F401  (import outside the timed jobs)

    payload: dict = {}
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        try:
            payload["jobs"] = run_jobs(argvs, tracer)
        finally:
            tracer.uninstall()
        payload["layers"] = {k: list(v) for k, v in tracer.layer_metrics().items()}
        payload["spans"] = tracer.span_records()
    else:
        payload["jobs"] = run_jobs(argvs)
    with open(args.result, "w", encoding="utf-8") as handle:
        json.dump(payload, handle)


if __name__ == "__main__":
    main()
