"""Mutation run: each mutant of src/cloudinv must fail the tier-1 tests.

    python tests/mutate.py

A mutant changes one operator in one module: a comparison to its twin (< <=,
> >=, == !=, is / is not, in / not in), + to - or back, * to / or back, or
RTOL times 10**3 or 10**-3.  It is named file:line:col Old->New, at the
operand right of the operator.  Each runs in a temporary copy of src/, tests/,
pyproject.toml and README.md, with every module written by ast.unparse (the
unmutated copy runs first), under pytest -x -q -p no:cacheprovider
--hypothesis-seed=0 and conftest.py's "mutation" profile, which does not
shrink, with no bytecode written and a fresh hypothesis database.  The copy
runs every tier-1 test, FIRST's modules first, but SAME_NAMES, which checks
EQUIVALENT against the lines of src/ as written, not as unparsed.  Exits 1 unless the survivors are
exactly EQUIVALENT; the last line gives the counts and the wall time.
"""
import ast
import itertools
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TWINS = {ast.Lt: ast.LtE, ast.Gt: ast.GtE, ast.Eq: ast.NotEq, ast.Is: ast.IsNot,
         ast.In: ast.NotIn, ast.Add: ast.Sub, ast.Mult: ast.Div}
TWINS.update({v: k for k, v in TWINS.items()})

# The mutants no test can kill, each with why it computes what the original
# does on every input the package accepts.
EQUIVALENT = {
    "cloudgen.py:99:15 Gt->GtE": "noise >= 0 adds 0 * N(0, 1) at noise 0: no generated "
                                 "coordinate is -0.0, so each keeps its bits",
    "coefficients.py:74:40 Lt->LtE": "num ^ den <= 0: the xor is 0 only at num == den, "
                                     "whose quotient 1.0 does not overflow",
}

SAME_NAMES = "tests/test_imports.py::test_each_equivalent_mutant_is_made"
# Run first: the goldens and the guard table take about a second and kill
# most mutants, which pytest -x then stops at; test_transform.py holds the
# closed forms' extreme inputs, subnormal and near-overflow entries.
FIRST = ["tests/test_golden.py", "tests/test_guards.py", "tests/test_transform.py"]


def mutations(tree):
    """(name, change) for each mutant of a module, in a fixed order;
    change() makes it in the tree given."""
    for node in ast.walk(tree):
        sites = []
        if isinstance(node, (ast.BinOp, ast.AugAssign)):
            sites = [(node.op, getattr(node, "right", None) or node.value,
                      lambda op, n=node: setattr(n, "op", op))]
        elif isinstance(node, ast.Compare):
            sites = [(op, right, lambda op, i=i, ops=node.ops: ops.__setitem__(i, op))
                     for i, (op, right) in enumerate(zip(node.ops, node.comparators))]
        for op, right, put in sites:
            if type(op) in TWINS:
                new = TWINS[type(op)]
                yield (f"{right.lineno}:{right.col_offset} {type(op).__name__}->{new.__name__}",
                       lambda put=put, new=new: put(new()))
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", "") == "RTOL":
            for f in (1e3, 1e-3):
                yield f"{node.lineno}:{node.col_offset} RTOL*{f:g}", lambda n=node, f=f: setattr(
                    n, "value", ast.BinOp(n.value, ast.Mult(), ast.Constant(f)))


def passes(copy):
    shutil.rmtree(copy / ".hypothesis", ignore_errors=True)
    env = {**os.environ, "PYTHONPATH": str(copy / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    rest = sorted(f"tests/{path.name}" for path in copy.glob("tests/test_*.py"))
    try:  # a mutant that loops is killed by the timeout
        return subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
             "--hypothesis-seed=0", "--hypothesis-profile=mutation", "--deselect",
             SAME_NAMES, *FIRST, *(name for name in rest if name not in FIRST)], cwd=copy, env=env, stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL, timeout=600).returncode == 0
    except subprocess.TimeoutExpired:
        return False


def main():
    start, survivors, count = time.monotonic(), set(), 0
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp)
        for part in ("src", "tests", "pyproject.toml", "README.md"):
            (shutil.copytree if part in ("src", "tests") else shutil.copy)(ROOT / part, copy / part)
        modules = {path: path.read_text() for path in sorted(copy.glob("src/cloudinv/*.py"))}
        for path, source in modules.items():
            path.write_text(ast.unparse(ast.parse(source)))
        if not passes(copy):
            sys.exit("the unmutated copy fails its tests")
        for path, source in modules.items():
            for k, (name, _) in enumerate(list(mutations(ast.parse(source)))):
                tree = ast.parse(source)
                next(itertools.islice(mutations(tree), k, None))[1]()
                path.write_text(ast.unparse(tree))
                name, count, killed = f"{path.name}:{name}", count + 1, not passes(copy)
                survivors |= set() if killed else {name}
                print("killed  " if killed else "SURVIVED", name, flush=True)
            path.write_text(ast.unparse(ast.parse(source)))
    wrong = sorted(survivors ^ set(EQUIVALENT))
    minutes, seconds = divmod(round(time.monotonic() - start), 60)
    print(f"{count} mutants, {count - len(survivors)} killed; not as EQUIVALENT lists: "
          f"{wrong}; {minutes} min {seconds} s")
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
