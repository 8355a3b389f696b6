"""Import floor: the package imports scipy nowhere (tests use it only as a
reference), and mpmath only inside the one function that calls it, the
cubic-phase Airy form, so no other command loads mpmath."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import cvoodg

PACKAGE = Path(cvoodg.__file__).parent


def _imported_modules(node: ast.AST) -> list[str]:
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if isinstance(node, ast.ImportFrom) and node.level == 0:
        return [node.module]
    return []


def _is_in(package: str, name: str) -> bool:
    return name == package or name.startswith(package + ".")


def _top_level_imports(tree: ast.Module):
    for node in tree.body:
        yield from _imported_modules(node)


#: No function may import scipy.
SCIPY_IMPORTERS = set()
#: The only function that may import mpmath: the cubic-phase Airy form.
MPMATH_IMPORTERS = {"coherent_bounds._cubic_phase_fidelity_distance"}


def _importers(tree: ast.Module, module: str, package: str):
    """module.function for every function whose own body imports the package."""
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        stack = list(node.body)
        while stack:
            child = stack.pop()
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            if any(_is_in(package, name) for name in _imported_modules(child)):
                yield f"{module}.{node.name}"
            stack.extend(ast.iter_child_nodes(child))


def _module_level_imports(package: str) -> list[tuple[str, str]]:
    return [
        (path.name, name)
        for path in sorted(PACKAGE.glob("*.py"))
        for name in _top_level_imports(ast.parse(path.read_text(encoding="utf-8")))
        if _is_in(package, name)
    ]


def _function_level_importers(package: str) -> set[str]:
    return {
        name
        for path in sorted(PACKAGE.glob("*.py"))
        for name in _importers(ast.parse(path.read_text(encoding="utf-8")), path.stem, package)
    }


def test_no_module_level_scipy_import():
    assert _module_level_imports("scipy") == []


def test_no_module_level_mpmath_import():
    assert _module_level_imports("mpmath") == []


_PROBE = """
import contextlib, io, sys
import cvoodg.cli
{extra}
for argv in {argvs!r}:
    with contextlib.redirect_stdout(io.StringIO()):
        assert cvoodg.cli.main(argv) == 0, argv
print(sorted(m for m in {watched!r} if m in sys.modules))
"""


def _loaded_after(watched: tuple[str, ...], *argvs: list[str], extra: str = "") -> list[str]:
    """The modules of watched that a child has loaded after running argvs
    (and the statement extra)."""
    # The child imports the same cvoodg as this test.
    path = os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))
    probe = _PROBE.format(extra=extra, argvs=list(argvs), watched=watched)
    proc = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True, text=True, check=True, env={**os.environ, "PYTHONPATH": path},
    )
    return ast.literal_eval(proc.stdout.strip())


def _scipy_loaded_after(*argvs: list[str]) -> list[str]:
    return _loaded_after(("scipy.integrate", "scipy.special"), *argvs)


def test_function_level_scipy_imports_are_allow_listed():
    found = _function_level_importers("scipy")
    assert found <= SCIPY_IMPORTERS, sorted(found - SCIPY_IMPORTERS)


def test_function_level_mpmath_imports_are_allow_listed():
    found = _function_level_importers("mpmath")
    assert found <= MPMATH_IMPORTERS, sorted(found - MPMATH_IMPORTERS)


_CUBIC_PHASE_ARGV = ["bound", "--class", "cubic_phase", "--eps0", "0.3", "--tau", "1",
                     "--points", "2"]


def test_closed_form_commands_load_no_scipy():
    assert _scipy_loaded_after(
        ["bound", "--class", "phase_rotation", "--eps0", "0.3", "--tau", "1", "--points", "5"],
        _CUBIC_PHASE_ARGV,
        ["extend", "--state", "fock:2", "--curve", "phase_rotation", "--eps0", "1e-3"],
        ["sweep", "--eps0-grid", "1e-2,1e-3", "--states", "fock:1,spat:1.0",
         "--curve", "lipschitz", "--hull-points", "41"],
        ["verify", "--suite", "dominance", "--class", "phase_rotation"],
        ["verify", "--suite", "delta-s"],
        ["verify", "--suite", "all"],
        ["bound", "--class", "universal", "--eps0", "1e-3", "--tau", "1", "--points", "2"],
        ["extend", "--state", "fock:2", "--curve", "universal", "--eps0", "1e-3"],
        ["sweep", "--eps0-grid", "1e-3", "--states", "fock:1", "--curve", "universal",
         "--hull-points", "41"],
    ) == []


def test_scipy_probe_sees_a_scipy_import():
    # Positive control: the same probe, with an import of its own, sees scipy.
    loaded = _loaded_after(("scipy.integrate", "scipy.special"), _CUBIC_PHASE_ARGV,
                           extra="import scipy.integrate")
    assert "scipy.integrate" in loaded


def test_only_the_cubic_phase_curve_loads_mpmath():
    assert _loaded_after(
        ("mpmath",),
        ["bound", "--class", "phase_rotation", "--eps0", "0.3", "--tau", "1", "--points", "5"],
        ["bound", "--class", "universal", "--eps0", "1e-3", "--tau", "1", "--points", "2"],
        ["extend", "--state", "fock:2", "--curve", "phase_rotation", "--eps0", "1e-3"],
        ["sweep", "--eps0-grid", "1e-2", "--states", "fock:1", "--curve", "lipschitz",
         "--hull-points", "41"],
    ) == []
    assert _loaded_after(("mpmath",), _CUBIC_PHASE_ARGV) == ["mpmath"]


_VERIFY_ARGVS = (["verify", "--suite", "delta-s"], ["verify", "--suite", "all"])


def test_verify_loads_no_mpmath():
    assert _loaded_after(("mpmath",), *_VERIFY_ARGVS) == []


def test_mpmath_probe_sees_an_mpmath_import():
    # Positive control: the same probe, with an import of its own, sees mpmath.
    assert _loaded_after(("mpmath",), *_VERIFY_ARGVS, extra="import mpmath") == ["mpmath"]
