"""Golden CLI outputs: stdout, stderr and exit code must stay byte-identical.

Each case is one argv; its recorded output lives in ``tests/golden/<name>.json``.
After a deliberate output change, re-record the changed cases with
``PYTHONPATH=src python tests/test_golden.py NAME...`` (every case when no
name is given) and name the change in CHANGES.md.  The text form of every
``--json`` case must hold the same report, one ``key  value`` line per leaf.
The cases derived from a cloud are also certified against the exact oracle
on the cloud's coordinates: every closed form they report is its exact value
rounded once, and every moment within its layer's budget, on any CPU,
recorded and freshly run alike.
"""
import contextlib
import hashlib
import io
import json
import os
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from cloudinv import (CloudGenSpec, FamilyGenerator, LinearCoefficients,
                      Matrix2, Scatter, apply_to_cloud, generate_cloud,
                      parse_family, read_cloud_csv)
from cloudinv.cli import _SIMULATION_CASES, main
from exact import (MOMENT_ULPS, centered_sums, chart_ulps, induced, kernel,
                   scatter_ulps)

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
    assert report_leaves(text) == report


def report_leaves(stdout):
    """The leaves of a report printed as JSON or as text, by dotted key."""
    if stdout.startswith("{"):
        return dict(leaves(json.loads(stdout)))
    return {key: json.loads(value)
            for key, value in (line.split(None, 1) for line in stdout.splitlines())}


def source_cloud(report):
    """The cloud a report was computed from: regenerated from its echoed
    spec, or read from its CSV path."""
    if report["inputs.source"] == "csv":
        return read_cloud_csv(report["inputs.path"])
    return generate_cloud(CloudGenSpec(*[report[f"inputs.{k}"]
                                         for k in ("kind", "n", "noise", "seed")]))


def _steps(report):
    """(key prefix, matrix entries, generator or None) of each image a
    report holds: transform's one, invariant's evaluations, simulate's cases."""
    command = report["command"]
    if command == "transform":
        return [("", report["inputs.matrix"], None)]
    spec = None if command == "simulate" else FamilyGenerator(
        report["spec.bprime"], report["spec.gprime"], report["spec.delta"])
    if command == "invariant" and "inputs.matrix" in report:
        return [("", report["inputs.matrix"], spec)]
    if command == "invariant":
        family = parse_family(report["inputs.family"])
        return [(f"evaluations[{i}].", family.evaluate(phi).entries(), spec)
                for i, phi in enumerate(report["inputs.phi"])]
    families = {name: family for name, _, family in _SIMULATION_CASES}
    return [(f"cases[{i}].", report[f"cases[{i}].matrix"],
             families[report[f"cases[{i}].name"]].derivative_coefficients())
            for i in range(len(_SIMULATION_CASES))]


def _point(report, key):
    return LinearCoefficients(report[f"{key}.m"], report[f"{key}.h"])


def certify(reports, cloud, image_of=None):
    """Every float that each report (as :func:`report_leaves`) computes from
    ``cloud``, against the exact oracle on its own inputs: within its
    layer's budget, the raw sums and the chart point against the cloud's
    centered sums, and each direct recomputation against the sums of the
    image coordinates it reduced, ``image_of(entries)`` (default: the image
    the package writes); rounded once, each closed-form image, T S T^T of
    the reported chart point, and each kernel and H/M^2 at its own (M, H).
    The fields derived from these, the
    discrepancy between closed form and direct recomputation and the kernel
    drift, are the float expressions of the reported leaves, bit for bit."""
    sums = centered_sums(cloud.xs, cloud.ys)
    image_of = image_of or (lambda entries: apply_to_cloud(Matrix2(*entries), cloud))
    images = {}
    for report in reports:
        if "raw_sums.mn" in report:
            raw = Scatter(*[report[f"raw_sums.{k}"] for k in ("mn", "hn", "d")])
            assert scatter_ulps(raw, sums) <= MOMENT_ULPS
        command = report["command"]
        before = _point(report, "coefficients" if command == "coeffs" else "before")
        assert chart_ulps(before, sums) <= MOMENT_ULPS
        closed = "after_closed_form" if command == "transform" else "after"
        for prefix, entries, spec in [] if command == "coeffs" else _steps(report):
            after = _point(report, prefix + closed)
            assert (after.m, after.h) == induced(entries, before)
            if prefix + "after_direct.m" in report:
                key = tuple(entries)
                if key not in images:
                    image = image_of(entries)
                    images[key] = centered_sums(image.xs, image.ys)
                direct = _point(report, prefix + "after_direct")
                assert chart_ulps(direct, images[key]) <= MOMENT_ULPS
                gap = "discrepancy" if command == "transform" else prefix + "closed_vs_direct"
                assert report[gap] == max(abs(direct.m - after.m), abs(direct.h - after.h))
            if spec is not None:
                for at, name in ((before, "kernel_before"), (after, "kernel_after")):
                    got = report[prefix + name]
                    assert got == float(kernel(spec, at.m, at.h))
                drift = report[prefix + "kernel_after"] - report[prefix + "kernel_before"]
                assert report[prefix + "drift.abs"] == abs(drift)
            for at, name in ((before, "before"), (after, "after")):
                if f"{prefix}h_over_m2_{name}" in report:
                    want = Fraction(at.h) / Fraction(at.m) ** 2
                    assert report[f"{prefix}h_over_m2_{name}"] == float(want)


@pytest.mark.parametrize("name", sorted(n for n, argv in CASES.items()
                                        if "--gen" in argv or "--csv" in argv))
def test_certified(name, tmp_path, monkeypatch):
    # The recorded output and a fresh run, on the case's own coordinates:
    # regenerated, read from the CSV text, or (for a dumped image) read back
    # from the file the run wrote.  Unlike the bytes, this does not depend on
    # the order in which the CPU's BLAS kernel sums.
    monkeypatch.chdir(tmp_path)
    (tmp_path / CSV_NAME).write_text(CSV_TEXT)
    recorded = json.loads((GOLDEN / f"{name}.json").read_text())["stdout"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(CASES[name]) == 0
    reports = [report_leaves(recorded), report_leaves(out.getvalue())]
    dumped = "--dump-points" in CASES[name]
    certify(reports, source_cloud(reports[0]),
            (lambda entries: read_cloud_csv(DUMP_NAME)) if dumped else None)


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
