"""Import floor: scipy is imported only inside the functions that call it,
so closed-form commands never load it."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import cvoodg

PACKAGE = Path(cvoodg.__file__).parent


def _top_level_imports(tree: ast.Module):
    for node in tree.body:
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_no_module_level_scipy_import():
    offenders = [
        (path.name, name)
        for path in sorted(PACKAGE.glob("*.py"))
        for name in _top_level_imports(ast.parse(path.read_text(encoding="utf-8")))
        if name == "scipy" or name.startswith("scipy.")
    ]
    assert offenders == []


_PROBE = """
import contextlib, io, sys
import cvoodg.cli
for argv in {argvs!r}:
    with contextlib.redirect_stdout(io.StringIO()):
        assert cvoodg.cli.main(argv) == 0, argv
print(sorted(m for m in ("scipy.integrate", "scipy.special") if m in sys.modules))
"""


def _scipy_loaded_after(*argvs: list[str]) -> list[str]:
    # The child imports the same cvoodg as this test.
    path = os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE.format(argvs=list(argvs))],
        capture_output=True, text=True, check=True, env={**os.environ, "PYTHONPATH": path},
    )
    return ast.literal_eval(proc.stdout.strip())


def test_closed_form_commands_load_no_scipy():
    assert _scipy_loaded_after(
        ["bound", "--class", "phase_rotation", "--eps0", "0.3", "--tau", "1", "--points", "5"],
        ["extend", "--state", "fock:2", "--curve", "phase_rotation", "--eps0", "1e-3"],
        ["sweep", "--eps0-grid", "1e-2,1e-3", "--states", "fock:1,spat:1.0",
         "--curve", "lipschitz", "--hull-points", "41"],
        ["verify", "--suite", "dominance", "--class", "phase_rotation"],
        ["verify", "--suite", "delta-s"],
    ) == []


def test_universal_bound_loads_scipy_special():
    loaded = _scipy_loaded_after(
        ["bound", "--class", "universal", "--eps0", "1e-3", "--tau", "1", "--points", "2"],
    )
    assert "scipy.special" in loaded
