"""Golden CLI outputs: stdout, stderr and exit code must stay byte-identical.

Each case is one argv; its recorded output lives in ``tests/golden/<name>.json``.
After a deliberate output change, re-record the changed cases with
``PYTHONPATH=src python tests/test_golden.py NAME...`` (every case when no
name is given) and name the change in CHANGES.md.  The text form of every
``--json`` case must hold the same report, one ``key  value`` line per leaf.
"""
import contextlib
import hashlib
import io
import json
import os
import sys
from pathlib import Path

import pytest

from cloudinv.cli import main

GOLDEN = Path(__file__).parent / "golden"
REF = "--coeffs=1.52244,2.46998"

# Written by the test into the working directory, so the echoed path is
# the same on every run.
CSV_NAME = "golden_cloud.csv"
CSV_TEXT = "x,y\n0,0\n1,1\n2,0\n3,2.5\n-1.25,0.5\n"
# Points file written by ``--dump-points``; its sha256 is recorded too.
DUMP_NAME = "golden_dump.csv"

CASES = {
    "coeffs-uniform-box": ["coeffs", "--gen", "uniform-box", "--n", "300",
                           "--seed", "1", "--json"],
    "coeffs-line-with-noise": ["coeffs", "--gen", "line-with-noise", "--n", "300",
                               "--seed", "2", "--json"],
    "transform-ellipse": ["transform", "--gen", "ellipse", "--n", "300",
                          "--seed", "3", "--matrix", "0.4,-0.4;-0.05,0.9",
                          "--json"],
    "simulate-two-segment": ["simulate", "--gen", "two-segment", "--n", "300",
                             "--seed", "4", "--json"],
    "coeffs-csv": ["coeffs", "--csv", CSV_NAME, "--json"],
    "text-coeffs-csv": ["coeffs", "--csv", CSV_NAME],
    "transform-coeffs": ["transform", REF, "--matrix", "1,0.7;0,1", "--json"],
    "text-transform-coeffs": ["transform", REF, "--matrix", "1,0.7;0,1"],
    "invariant-matrix-coeffs": ["invariant", REF, "--matrix",
                                "[[0.4,-0.4],[-0.05,0.9]]", "--json"],
    "invariant-family-phi-list": ["invariant", REF, "--family", "diag",
                                  "--phi", "0.5,1,2.5", "--json"],
    "simulate-coeffs": ["simulate", REF, "--json"],
    "text-simulate-coeffs": ["simulate", REF],
    "text-invariant-family": ["invariant", REF, "--family", "diag",
                              "--phi", "0.5,2"],
    "invariant-family-upper": ["invariant", REF, "--family", "upper", "--json"],
    "invariant-family-lower": ["invariant", REF, "--family", "lower",
                               "--phi=-1.5,0.3", "--json"],
    "invariant-family-rot": ["invariant", REF, "--family", "rot",
                             "--phi", "0.5,1,2.5", "--json"],
    "invariant-family-linear": ["invariant", REF, "--family",
                                "linear:-2,-2;-0.25,0.5|12,8;1,2", "--json"],
    "text-invariant-matrix": ["invariant", REF, "--matrix",
                              "0.4,-0.4;-0.05,0.9"],
    "exit2-singular-matrix": ["transform", REF, "--matrix", "1,2;2,4"],
    "exit3-degenerate-image": ["transform", "--coeffs", "1,1",
                               "--matrix", "1,-1;0,1"],
    "exit4-uniform-scaling": ["invariant", "--coeffs", "1.5,3.5",
                              "--matrix", "2,0;0,2"],
    # Several reduction chunks.
    "simulate-ellipse-70000": ["simulate", "--gen", "ellipse", "--n", "70000",
                               "--seed", "5", "--json"],
    "transform-two-segment-70000-dump": [
        "transform", "--gen", "two-segment", "--n", "70000", "--seed", "6",
        "--matrix", "0.4,-0.4;-0.05,0.9", "--dump-points", DUMP_NAME, "--json"],
}


def dump_digest():
    """sha256 of the dumped points file, or None if no case wrote one."""
    if not os.path.exists(DUMP_NAME):
        return None
    with open(DUMP_NAME, "rb") as fh:
        digest = hashlib.sha256(fh.read()).hexdigest()
    os.remove(DUMP_NAME)
    return digest


def run_case(argv):
    """(exit code, stdout, stderr, sha256 of the dumped points or None) of one
    in-process CLI run in the working directory."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue(), dump_digest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden(name, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / CSV_NAME).write_text(CSV_TEXT)
    want = json.loads((GOLDEN / f"{name}.json").read_text())
    assert want["argv"] == CASES[name]
    assert run_case(CASES[name]) == (want["exit"], want["stdout"],
                                     want["stderr"], want.get("dump_sha256"))


def leaves(node, key=""):
    """(dotted key, leaf) for each leaf of a JSON report; items of a list of
    objects are indexed, any other list is one leaf."""
    if isinstance(node, dict):
        return [kv for name, value in node.items()
                for kv in leaves(value, f"{key}.{name}" if key else name)]
    if isinstance(node, list) and node and all(isinstance(v, dict) for v in node):
        return [kv for i, value in enumerate(node)
                for kv in leaves(value, f"{key}[{i}]")]
    return [(key, node)]


@pytest.mark.parametrize("name", sorted(n for n, argv in CASES.items()
                                        if "--json" in argv))
def test_text_is_the_json_report(name, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / CSV_NAME).write_text(CSV_TEXT)
    argv = CASES[name]
    code, out, err, _ = run_case(argv)
    report = dict(leaves(json.loads(out)))
    text_code, text, text_err, _ = run_case([a for a in argv if a != "--json"])
    assert (text_code, text_err) == (code, err) == (0, "")
    rows = [line.split(None, 1) for line in text.splitlines()]
    assert [key for key, _ in rows] == list(dict(rows))
    assert {key: json.loads(value) for key, value in rows} == report


def record(names=()):
    """Re-record the named cases, or every case if none is named."""
    unknown = sorted(set(names) - set(CASES))
    if unknown:
        raise SystemExit(f"unknown golden cases: {', '.join(unknown)}")
    GOLDEN.mkdir(exist_ok=True)
    here = os.getcwd()
    os.chdir(GOLDEN)
    try:
        Path(CSV_NAME).write_text(CSV_TEXT)
        results = {name: run_case(CASES[name]) for name in names or CASES}
        os.remove(CSV_NAME)
    finally:
        os.chdir(here)
    for name, (code, out, err, digest) in results.items():
        doc = {"argv": CASES[name], "exit": code, "stdout": out, "stderr": err}
        if digest is not None:
            doc["dump_sha256"] = digest
        (GOLDEN / f"{name}.json").write_text(json.dumps(doc, indent=1) + "\n")


if __name__ == "__main__":
    record(sys.argv[1:])
