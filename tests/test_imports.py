"""The scalar layer and the CLI's --coeffs paths run without numpy; numpy is
loaded when a point array is first built, and importing the CLI loads only
argparse and json beyond the package.  The package's value types need
neither ``dataclasses`` nor the ``inspect`` machinery it loads.  No module
of the package or of the tests imports a name it does not use, no shared
test helper goes uncalled, and the package reads its tolerance in one
function and no environment variable."""
import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

from test_guards import GUARDS

ROOT = Path(__file__).resolve().parents[1]
SRC = str(ROOT / "src")

# Prints the modules importing the CLI adds, beyond the stdlib modules the
# package imports besides argparse and json (which site may have loaded or
# not), and which of numpy, dataclasses and inspect were loaded after running
# each argv given as JSON on the command line (exit codes and output of the
# runs are reported too).
PROBE = """
import sys
import math, os, reprlib, typing
before = set(sys.modules)
import cloudinv, cloudinv.cli
added = sorted(set(sys.modules) - before)
import contextlib, io, json
WATCHED = ("numpy", "dataclasses", "inspect")
runs = []
for argv in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cloudinv.cli.main(argv)
    runs.append([code, out.getvalue(), err.getvalue()])
print(json.dumps({"loaded": [m for m in WATCHED if m in sys.modules],
                  "added": added, "runs": runs}))
"""


def probe(*argvs):
    env = {**os.environ, "PYTHONPATH": SRC}
    proc = subprocess.run([sys.executable, "-c", PROBE, json.dumps(argvs)],
                          capture_output=True, text=True, env=env, check=True)
    return json.loads(proc.stdout)


def test_import_does_not_load_numpy():
    # Of the rest, importing the CLI adds the package's own modules and at
    # most argparse and json with what they import: a subset, as site may
    # have loaded some of them already.
    result = probe()
    assert (result["loaded"], result["runs"]) == ([], [])
    added = set(result["added"])
    package = {"cloudinv", *(f"cloudinv.{path.stem}" for path in
                             (ROOT / "src" / "cloudinv").glob("*.py") if path.stem != "__init__")}
    assert {name for name in added if name.partition(".")[0] == "cloudinv"} == package
    assert added - package <= {"argparse", "gettext", "json", "json.decoder", "json.encoder",
                               "json.scanner", "_json", "__future__"}


def test_coeffs_commands_do_not_load_numpy():
    ref = "--coeffs=1.52244,2.46998"
    result = probe(
        ["transform", ref, "--matrix", "1,0.7;0,1"],
        ["invariant", ref, "--matrix", "0.4,-0.4;-0.05,0.9"],
        ["invariant", ref, "--family", "diag", "--phi", "0.5,2"],
        ["simulate", ref, "--json"],
        ["transform", ref, "--matrix", "1,2;2,4"],
        ["transform", "--coeffs", "1,1", "--matrix", "1,-1;0,1"],
        ["invariant", "--coeffs", "1.5,3.5", "--matrix", "2,0;0,2"],
    )
    assert [run[0] for run in result["runs"]] == [0, 0, 0, 0, 2, 3, 4]
    assert result["loaded"] == []


def test_generated_cloud_loads_numpy():
    result = probe(["coeffs", "--gen", "ellipse", "--n", "300", "--json"])
    code, out, _ = result["runs"][0]
    assert code == 0 and json.loads(out)["inputs"]["n"] == 300
    assert "numpy" in result["loaded"]


FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def _local_names(func):
    """The names a function binds itself: its arguments, and the targets of
    its assignments, for and with statements (not those of a function or
    class nested in it)."""
    names = {arg.arg for arg in ast.walk(func.args) if isinstance(arg, ast.arg)}
    todo = [*func.body] if isinstance(func.body, list) else [func.body]
    while todo:
        node = todo.pop()
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
        if not isinstance(node, (*FUNCTIONS, ast.ClassDef)):
            todo.extend(ast.iter_child_nodes(node))
    return names


def _module_reads(node, local=frozenset()):
    """The names read under node where no enclosing function binds them:
    reads of the module's own names."""
    if isinstance(node, FUNCTIONS):
        local = local | _local_names(node)
    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id not in local:
        yield node.id
    for child in ast.iter_child_nodes(node):
        yield from _module_reads(child, local)


def test_no_unused_imports():
    # A name an import binds must be read somewhere in its module where no
    # function binds it as a local (as a name, so ``np`` in ``np.array``
    # counts) or be exported by ``__all__``; a function of conftest.py or
    # exact.py must be read somewhere in tests/.
    unused, helpers, read = [], {}, set()
    for path in sorted([*(ROOT / "src" / "cloudinv").glob("*.py"),
                        *(ROOT / "tests").glob("*.py")]):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        bound, used, attrs = {}, set(_module_reads(tree)), set()
        for node in ast.walk(tree):
            if isinstance(node, (ast.Attribute, ast.arg)):  # exact.f, a fixture
                attrs.add(getattr(node, "attr", None) or node.arg)
            elif isinstance(node, ast.Assign) and any(
                    getattr(t, "id", None) == "__all__" for t in node.targets):
                used.update(ast.literal_eval(node.value))
            elif (isinstance(node, (ast.Import, ast.ImportFrom))
                  and getattr(node, "module", None) != "__future__"):
                for alias in node.names:
                    bound[alias.asname or alias.name.partition(".")[0]] = node.lineno
        unused += [f"{path.relative_to(ROOT)}:{line}: {name}"
                   for name, line in bound.items() if name not in used]
        if path.parent.name == "tests":
            read |= used | attrs
        if path.name in ("conftest.py", "exact.py"):
            helpers.update({node.name: f"{path.relative_to(ROOT)}:{node.lineno}: {node.name}"
                            for node in tree.body if isinstance(node, ast.FunctionDef)})
    assert unused + [where for name, where in helpers.items() if name not in read] == []


def _tolerance_uses(node, func=None):
    """(enclosing function's qualified name or None, how) for each mention of
    RTOL and each call of _near_zero under node."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        func = f"{func}.{node.name}" if func else node.name
    if isinstance(node, ast.Name) and node.id == "RTOL":
        yield func, type(node.ctx).__name__
    elif isinstance(node, ast.Attribute) and node.attr == "RTOL":
        yield func, "Attribute"
    elif isinstance(node, ast.alias) and node.name == "RTOL":
        yield func, "import"
    elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_near_zero":
        yield func, "guard"
    for child in ast.iter_child_nodes(node):
        yield from _tolerance_uses(child, func)


def test_rtol_is_read_only_by_the_guard_function():
    # The tolerance rule is written once: RTOL is assigned, and read only in
    # coefficients._near_zero.  Each function that calls it, once, has its row
    # of two sides in test_guards.GUARDS, and no row outlives its guard.
    uses = [(f"cloudinv.{path.stem}", *use)
            for path in sorted((ROOT / "src" / "cloudinv").glob("*.py"))
            for use in _tolerance_uses(ast.parse(path.read_text(encoding="utf-8")))]
    assert [use for use in uses if use[2] != "guard"] == [
        ("cloudinv.coefficients", None, "Store"),
        ("cloudinv.coefficients", "_near_zero", "Load")]
    assert sorted(use[:2] for use in uses if use[2] == "guard") == sorted(
        (guard.__module__, guard.__qualname__) for guard in GUARDS)


def _hits(pattern, paths):
    return [f"{path.relative_to(ROOT)}:{number}: {line.strip()}"
            for path in sorted(paths)
            for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
            if re.search(pattern, line)]


def test_no_environment_read_and_no_unit_floor():
    # Output depends on argv alone, and no comparison is floored at a unit
    # scale (a maximum with 1); neither form appears in src/ or the README,
    # and the tests judge accuracy in ulps against the exact oracle, with no
    # such floor either.
    assert _hits(r"os\.environ|getenv|max\(1", [*(ROOT / "src").rglob("*.py"),
                                                ROOT / "README.md"]) == []
    assert _hits(r"max\(1", (ROOT / "tests").glob("*.py")) == []
