"""Import floor: the package imports scipy nowhere (tests use it only as a
reference), mpmath only inside the one function that calls it, the
cubic-phase Airy form, so no other command loads mpmath, and numpy only
through the handle of ``_np``, on the first array use, so the closed-form
commands never load it. The records are plain classes, so the package
imports no dataclasses, and start-up loads neither dataclasses nor inspect.
Usage floor: every public name, every top-level function and class, and
every method and property of the package is used by the package itself."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

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
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert cvoodg.cli.main(argv) == {exit_code}, argv
print(sorted(m for m in {watched!r} if m in sys.modules))
"""


def _loaded_after(watched: tuple[str, ...], *argvs: list[str], extra: str = "",
                  exit_code: int = 0) -> list[str]:
    """The modules of watched that a child has loaded after running argvs,
    each of which must exit with exit_code (and the statement extra)."""
    # The child imports the same cvoodg as this test.
    path = os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))
    probe = _PROBE.format(extra=extra, argvs=list(argvs), watched=watched, exit_code=exit_code)
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


def test_no_dataclasses_import():
    found = [
        (path.name, name)
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        for name in _imported_modules(node)
        if _is_in("dataclasses", name)
    ]
    assert found == []


#: Importing dataclasses loads inspect, and with it ast, dis and tokenize.
_START_UP_MODULES = ("dataclasses", "inspect")


def test_start_up_loads_no_dataclasses_or_inspect():
    # The probe imports cvoodg.cli first, then runs a closed-form bound.
    assert _loaded_after(_START_UP_MODULES, ["bound", "--class", "phase_rotation", "--eps0",
                                             "0.3", "--tau", "1", "--points", "5"]) == []


def test_start_up_probe_sees_an_inspect_import():
    # Positive control: the same probe, with an import of its own, sees inspect.
    assert "inspect" in _loaded_after(_START_UP_MODULES, extra="import inspect")


#: The only function that may import numpy: the handle's attribute hook.
NUMPY_IMPORTERS = {"_np.__getattr__"}


def test_numpy_is_imported_only_by_the_handle():
    assert _module_level_imports("numpy") == []
    assert _function_level_importers("numpy") == NUMPY_IMPORTERS


def test_importing_the_cli_loads_no_numpy():
    assert _loaded_after(("numpy",)) == []


_GUARANTEE = ["--eps0", "0.05", "--tau", "1.2"]
#: Commands that evaluate only closed forms: the seven closed-form curves, the
#: cubic-phase curve and its hull, and the extensions that call the curve
#: directly, energy-only and Fock inputs included.
_CLOSED_FORM_ARGVS = [
    *(["bound", "--class", cls, *_GUARANTEE, "--points", "50", "--format", fmt]
      for cls, fmt in [("step", "csv"), ("lipschitz", "json"), ("gaussian", "csv"),
                       ("phase_rotation", "json"), ("squeezing", "csv"),
                       ("displacement", "json"), ("symmetric", "csv")]),
    ["bound", "--class", "lipschitz", *_GUARANTEE, "--concavify", "--combined"],
    _CUBIC_PHASE_ARGV,
    *(["extend", "--state", state, "--curve", curve, *_GUARANTEE]
      for state, curve in [("classical:2.5", "lipschitz"), ("spat:0.7", "gaussian"),
                           ("squeezed-vacuum:0.4", "squeezing"),
                           ("finite-negativity:0.3:1.5:0.5", "symmetric"),
                           ("energy-only:1.0", "phase_rotation")]),
    ["extend", "--state", "fock:2", "--curve", "phase_rotation", "--eps0", "1e-3"],
]


def test_closed_form_commands_load_no_numpy():
    assert _loaded_after(("numpy",), *_CLOSED_FORM_ARGVS) == []


def test_dominance_and_concavity_suites_load_no_numpy():
    # Each oracle class gives its output fidelity in closed form, so these
    # suites compute with plain floats.
    assert _loaded_after(("numpy",), ["verify", "--suite", "dominance"],
                         ["verify", "--suite", "concavity-limits"]) == []
    # The negative control (an under-scaled curve) exits 1 without numpy too.
    assert _loaded_after(("numpy",), ["verify", "--suite", "dominance", "--class",
                                      "phase_rotation", "--curve-scale", "0.5"],
                         exit_code=1) == []


@pytest.mark.parametrize("argv", [
    ["extend", "--state", "fock:2", "--curve", "universal", "--eps0", "1e-3"],
    ["bound", "--class", "universal", "--eps0", "1e-3", "--tau", "1", "--points", "2"],
    ["verify", "--suite", "delta-s"],
])
def test_array_commands_load_numpy(argv):
    # Positive control: the same probe sees numpy once a command uses arrays.
    assert _loaded_after(("numpy",), argv) == ["numpy"]


#: Public names that nothing in the package uses yet. The state-level
#: dominance suite (ROADMAP item 2) is to call the oracle's builders, and the
#: general Gaussian pairs of the dominance oracle (ROADMAP item 16) the scalar
#: gaussian_output_fidelity_sq; together they empty this set. Item 2 also
#: supersedes BoundReport.recompute, which only tests call.
UNCALLED = {
    "state_bounds.BoundReport.recompute",
    "cvcore.gaussian_output_fidelity_sq",
    "oracle.ChannelPairSample.channels",
    "oracle.classical_mixture",
    "oracle.fock_state",
    "oracle.spat_state",
    "oracle.squeezed_vacuum_state",
    "oracle.phase_rotation_state_distance",
}


def _is_all(node: ast.AST) -> bool:
    return isinstance(node, ast.Assign) and any(
        isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
    )


def _is_definition(node: ast.AST) -> bool:
    return isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("__")


def _defined_names(tree: ast.Module) -> set[str]:
    """The __all__ entries, the top-level functions and classes, public or
    private, and Class.method for the methods and properties of those
    classes; dunders are left out."""
    names = set()
    for node in tree.body:
        if _is_all(node):
            names.update(ast.literal_eval(node.value))
        elif _is_definition(node):
            names.add(node.name)
            if isinstance(node, ast.ClassDef):
                names.update(f"{node.name}.{item.name}" for item in node.body
                             if isinstance(item, ast.FunctionDef) and _is_definition(item))
    return names


def _import_bound(tree: ast.Module) -> set[str]:
    """The names that an import anywhere in the module binds, such as np or
    math."""
    return {(alias.asname or alias.name).partition(".")[0]
            for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
            for alias in node.names}


def _references(tree: ast.Module, own_definition: str | None = None,
                method: bool = False) -> set[str]:
    """Every name that a Name, an Attribute or an import refers to, outside
    __all__ and outside the definition named own_definition (a top-level
    name, or Class.method). Docstrings and comments are no references. For a
    method, an attribute read off a name that an import binds, such as
    np.trace, is no reference either."""
    found = set()
    imported = _import_bound(tree) if method else set()
    # Each node with the prefix of its qualified name: "" at the top level,
    # "Class." in the body of a top-level class, None deeper down.
    stack = [(node, "") for node in tree.body if not _is_all(node)]
    while stack:
        node, prefix = stack.pop()
        if (prefix is not None and isinstance(node, (ast.FunctionDef, ast.ClassDef))
                and prefix + node.name == own_definition):
            continue
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            if not (isinstance(node.value, ast.Name) and node.value.id in imported):
                found.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            found.update(alias.name.rpartition(".")[2] for alias in node.names)
        inner = f"{node.name}." if prefix == "" and isinstance(node, ast.ClassDef) else None
        stack.extend((child, inner) for child in ast.iter_child_nodes(node))
    return found


def _uncalled(sources: dict[str, str]) -> set[str]:
    """module.name for every defined name that no module references outside
    the name's own definition; a method counts as referenced wherever an
    attribute of its name is read, except off a name that an import binds."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    return {
        f"{module}.{name}"
        for module, tree in trees.items()
        for name in _defined_names(tree)
        if not any(
            name.rpartition(".")[2] in _references(
                other, name if other_module == module else None, "." in name)
            for other_module, other in trees.items()
        )
    }


def test_every_public_name_is_used_by_the_package():
    sources = {path.stem: path.read_text(encoding="utf-8") for path in PACKAGE.glob("*.py")}
    assert _uncalled(sources) == UNCALLED


def test_usage_guard_sees_an_uncalled_name():
    # Positive control: recursion, __all__ and a docstring are no use; a call
    # from another function or module, an attribute or an import is. A
    # private function that nothing calls is reported like a public one. A
    # method whose name is read only off an imported module (math.floor) is
    # reported, while a function read off one (a.by_attribute) is used.
    sources = {
        "a": '''
__all__ = ["unused", "called", "by_attribute", "imported"]

def unused(n):
    """Calls unused and called."""
    return unused(n - 1) if n else 0

def called():
    return 1

def by_attribute():
    return 2

def imported():
    return 3

def _private():
    return called()

class Box:
    def __init__(self):
        self.size = 1

    def unused_method(self, n):
        """Calls unused_method."""
        return self.unused_method(n - 1) if n else 0

    def read(self):
        return self.size

    @property
    def area(self):
        return self.read() ** 2

    def floor(self):
        return 0
''',
        "b": '''
import math
from .a import imported
from . import a

def main():
    return a.by_attribute() + a.Box().area + math.floor(2.5)
''',
    }
    # Methods count too: the method that only calls itself is reported; a
    # method read as an attribute in the module or another one is not.
    assert _uncalled(sources) == {"a.unused", "a._private", "b.main", "a.Box.unused_method",
                                  "a.Box.floor"}

