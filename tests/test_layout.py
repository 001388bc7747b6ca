"""Package layout: no module leans on another module's private names,
every public module-level function and class, and every public method of a
module-level class, is named somewhere in the library, and every name the
benchmark in perfbench/ wraps or calls is still there.

The first two checks parse the sources with ast instead of importing them,
so a private name reached through `from .x import _y`,
`from spectral_bounds.x import _y` or an attribute `x._y` of a sibling
module bound by `from . import x` is found wherever it sits in the file.
"""

import ast
import importlib.util
import inspect
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import spectral_bounds
from spectral_bounds import bounds, cli, special

PACKAGE = Path(spectral_bounds.__file__).parent
BENCHMARK = Path(__file__).resolve().parents[1] / "perfbench"
MODULES = sorted(path.stem for path in PACKAGE.glob("*.py")
                 if path.stem != "__init__")
# (importer, owner, name). sturm1d shares the FEM eigensolver until the
# gamma = 2 path that calls it is deleted
ALLOWED = {("sturm1d", "fem", "_inverse_iteration")}
# public functions, classes and methods the library defines but never names:
# argparse calls the parser's error hook
NAMED_OUTSIDE = {"_Parser.error"}


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def _owner(node: ast.ImportFrom) -> str | None:
    """The sibling module an import reads from, or None for `from . import`
    and for imports from outside the package."""
    if node.level == 1:
        return node.module
    if node.level == 0 and node.module:
        head, _, rest = node.module.partition(".")
        if head == "spectral_bounds" and rest:
            return rest
    return None


def _tree(stem: str) -> ast.Module:
    return ast.parse((PACKAGE / f"{stem}.py").read_text(encoding="utf-8"))


def _private_uses(stem: str) -> set:
    tree = _tree(stem)
    found, siblings = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            owner = _owner(node)
            for alias in node.names:
                if owner is not None and _private(alias.name):
                    found.add((stem, owner, alias.name))
                elif owner is None and node.level == 1 \
                        and alias.name in MODULES:
                    siblings.add(alias.asname or alias.name)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and _private(node.attr) \
                and isinstance(node.value, ast.Name) \
                and node.value.id in siblings:
            found.add((stem, node.value.id, node.attr))
    return found


def test_no_module_imports_a_private_name_of_another():
    found = set().union(*(_private_uses(stem) for stem in MODULES))
    assert found - ALLOWED == set(), "private cross-module use"
    assert ALLOWED - found == set(), "stale allowed exception"


def _named() -> set:
    """Every name or attribute referenced in a module but __init__.
    Definitions are not references, so code only the tests call is caught."""
    return {node.id if isinstance(node, ast.Name) else node.attr
            for stem in MODULES for node in ast.walk(_tree(stem))
            if isinstance(node, (ast.Name, ast.Attribute))}


def _defined(tree: ast.Module):
    """Qualified name and bare name of every public module-level function
    and class and every public method of a module-level class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
                and not node.name.startswith("_"):
            yield node.name, node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) \
                        and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item.name


def test_every_public_function_is_named_in_the_library():
    used = _named()
    unnamed = {qualified for stem in MODULES
               for qualified, name in _defined(_tree(stem))
               if name not in used}
    assert unnamed - NAMED_OUTSIDE == set(), "public code nothing names"
    assert NAMED_OUTSIDE - unnamed == set(), "stale allowed exception"


def _benchmark_tracer():
    """perfbench/tracer.py, loaded by path: perfbench is not a package."""
    spec = importlib.util.spec_from_file_location(
        "benchmark_tracer", BENCHMARK / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_benchmark_tracer_finds_what_it_wraps():
    """The benchmark's tracer wraps the names in its own tables; a rename
    in the package would break only the benchmark run. Installing it reads
    every SPECIAL_METHODS name and each module's splu, and a traced run
    must give every ATTRS name a span whose result fields were read."""
    tracing = _benchmark_tracer()
    tracer = tracing.Tracer()
    try:
        tracer.install()
        for argv in (["chiti", "--domain", "square", "--level", "1"],
                     ["sturm", "--gamma", "1.5", "--beta", "0.8", "--A", "1",
                      "--N", "64"]):
            code = cli.dispatch(argv, out=io.StringIO(), err=io.StringIO(),
                                solves=bounds.SharedSolves())
            assert code == 0, argv
    finally:
        tracer.uninstall()
    read = {span.name for span in tracer.spans if span.attrs is not None}
    # the half-rhombus mesh left the package; the tracer's key is stale
    stale = {"geometry.triangulate_half_rhombus"}
    assert set(tracing.ATTRS) - stale - read == set()
    # run.py clears and reads psi_profile's cache, and certify.py takes the
    # p = 2 zeros from bessel_first_zero; this list follows those files
    for owner, name in ((special.psi_profile, "cache_info"),
                        (special.psi_profile, "cache_clear"),
                        (special, "bessel_first_zero")):
        assert callable(getattr(owner, name, None)), name


def _fresh_interpreter(code: str) -> str:
    """Stdout of ``code`` run in a fresh interpreter that imports this
    package, where this one has loaded scipy for the tests."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [
        str(PACKAGE.parent), os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True,
                          timeout=60).stdout


def test_the_cli_loads_no_integrator_or_optimizer():
    """scipy.integrate, and the scipy.optimize it pulls in, cost about a
    third of the CLI's start-up; the library marches its one ODE itself."""
    loaded = _fresh_interpreter(
        "import sys, spectral_bounds.cli; "
        "print(*sorted(m for m in sys.modules if m.startswith("
        "('scipy.integrate', 'scipy.optimize'))))")
    assert loaded == "\n"


CLOSED_FORM = (["bound", "--domain", "square"],
               ["bound", "--domain", "rhombus", "--m", "8", "--p", "3"],
               ["psi", "--p", "2,3.7", "--n", "2,32"])
SOLVING = (["compare-bounds", "--domain", "square", "--level", "2"],
           ["sturm", "--gamma", "2", "--beta", "1", "--A", "1", "--N", "64"])


def _dispatch(argv) -> list:
    out, err = io.StringIO(), io.StringIO()
    return [cli.dispatch(argv, out=out, err=err), out.getvalue(),
            err.getvalue()]


def test_the_closed_form_subcommands_load_no_scipy():
    """bound and psi run on numpy alone; the FEM layer and sturm1d load
    scipy when a subcommand first solves, and then print what they print
    in this interpreter, where every module was loaded up front."""
    script = "\n".join([
        "import io, json, sys",
        "from spectral_bounds import cli",
        inspect.getsource(_dispatch),
        f"closed = [_dispatch(argv) for argv in {CLOSED_FORM!r}]",
        "scipy = sorted(m for m in sys.modules",
        "               if m.partition('.')[0] == 'scipy')",
        f"solving = [_dispatch(argv) for argv in {SOLVING!r}]",
        "print(json.dumps([closed, scipy, solving]))"])
    closed, scipy, solving = json.loads(_fresh_interpreter(script))
    assert scipy == []
    assert closed == [_dispatch(argv) for argv in CLOSED_FORM]
    assert solving == [_dispatch(argv) for argv in SOLVING]
    assert [code for code, _, _ in closed + solving] == [0] * 5
