import contextlib
import io
import json
import math
import os
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cloudinv import (LinearCoefficients, Matrix2, cli, induced_coefficients,
                      read_cloud_csv)
from cloudinv.cli import main
from cloudinv.coefficients import _CHUNK
from conftest import REF_H, REF_M, traced_peak

REF_COEFFS = f"--coeffs={REF_M},{REF_H}"

# A --phi list that parses, with a singular family member at phi = 0.
SINGULAR_MEMBER = ["invariant", "--coeffs", "1.5,3.5", "--family", "diag",
                   "--phi", "0.5,0"]

# Number lists from outside under the one rule: `1,2` is read, and each of
# these is refused (an empty item, a non-number, a non-finite value).
REFUSED_LISTS = ["", " ", ",", "1,,2", "x", "inf", "nan", "1e309"]

# A value far longer than an error line quotes.
LONG = "x" * 40_000

# Where a number list given on the command line goes: --coeffs, --phi and
# the first row of a text --matrix.  CSV rows have their own tests.
LIST_FORMS = {
    "coeffs": lambda item: ["simulate", "--coeffs", item],
    "phi": lambda item: ["invariant", "--coeffs", "1.5,3.5", "--family", "upper",
                         "--phi", item],
    "matrix": lambda item: ["transform", "--coeffs", "1.5,3.5",
                            "--matrix", f"{item};3,4"],
}


# +-j * 2**k from the smallest subnormal to past the largest double (an
# overflow reads as inf, which is refused).
POWERS_OF_TWO = st.builds(lambda sign, j, k: sign * j * 2.0 ** k,
                          st.sampled_from([1.0, -1.0]), st.integers(0, 7),
                          st.integers(-1074, 1023))
JUNK = ["--bogus", "--n", "abc", "x", "--json", "--phi", "nan", "--coeffs",
        "1,2,3", "--matrix=1,2;3", "--matrix=[[1,2],[3]]", "--family=linear:1",
        "--family", "--seed", "1.5", ""]


@st.composite
def fuzz_argv(draw):
    def num():
        return repr(draw(POWERS_OF_TWO))

    coeffs = f"--coeffs={num()},{num()}"
    # Either literal form, or brackets nested past any recursion limit and
    # not always balanced.
    matrix = "--matrix=" + draw(st.sampled_from([
        f"{num()},{num()};{num()},{num()}",
        f"[[{num()},{num()}],[{num()},{num()}]]",
        "[" * draw(st.integers(0, 30_000)) + "]" * draw(st.integers(0, 30_000))]))
    argv = draw(st.sampled_from([
        ["transform", coeffs, matrix],
        ["invariant", coeffs, matrix],
        ["invariant", coeffs, "--family", draw(st.sampled_from(
            ["diag", "upper", "lower", "rot", "linear:-2,-2;-0.25,0.5|12,8;1,2"]))],
        ["invariant", coeffs, "--family", "diag", f"--phi={num()},{num()}"],
        ["simulate", coeffs],
    ]))
    if draw(st.booleans()):
        argv.append("--json")
    for token in draw(st.lists(st.sampled_from(JUNK), max_size=2)):
        argv.insert(draw(st.integers(0, len(argv))), token)
    return argv


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--json")
    return code, (json.loads(out) if code == 0 else None), err


@pytest.fixture
def triangle_csv(tmp_path):
    path = tmp_path / "cloud.csv"
    path.write_text("x,y\n0,0\n1,1\n2,0\n")
    return str(path)


class TestCoeffs:
    def test_csv_triangle(self, capsys, triangle_csv):
        code, report, _ = run_json(capsys, "coeffs", "--csv", triangle_csv)
        assert code == 0
        assert report["schema"] == "cloud-invariants/1"
        assert report["coefficients"]["m"] == pytest.approx(0.0, abs=1e-15)
        assert report["coefficients"]["h"] == pytest.approx(1 / 3)
        assert report["collinear"] is False

    def test_collinear_csv(self, capsys, tmp_path):
        path = tmp_path / "line.csv"
        path.write_text("0,0\n1,1\n2,2\n")
        code, report, _ = run_json(capsys, "coeffs", "--csv", str(path))
        assert code == 0
        assert report["collinear"] is True
        assert report["coefficients"] == {"m": 1.0, "h": 1.0}

    def test_single_point_rejected(self, capsys, tmp_path):
        path = tmp_path / "one.csv"
        path.write_text("1,2\n")
        code, _, err = run(capsys, "coeffs", "--csv", str(path))
        assert code == 2
        assert "error" in err

    def test_vertical_line_degenerate(self, capsys, tmp_path):
        path = tmp_path / "vert.csv"
        path.write_text("0,0\n0,1\n0,2\n")
        code, _, err = run(capsys, "coeffs", "--csv", str(path))
        assert code == 2

    def test_horizontal_line_has_exactly_zero_spread(self, capsys, tmp_path):
        # y is 0.1 three times: Hn is 0, not a rounding residue.
        path = tmp_path / "flat.csv"
        path.write_text("0,0.1\n1,0.1\n2.5,0.1\n")
        code, report, _ = run_json(capsys, "coeffs", "--csv", str(path))
        assert code == 0
        assert report["collinear"] is True
        assert report["coefficients"] == {"m": 0.0, "h": 0.0}
        assert report["raw_sums"]["hn"] == 0.0

    def test_offset_cloud_is_not_vertical(self, capsys, tmp_path):
        # D = 6 is far from zero; a bound that grew with n*mean**2 called it
        # vertical at x = 5e6.
        path = tmp_path / "offset.csv"
        path.write_text("5000000,0\n5000001,1\n5000002,3\n")
        code, report, _ = run_json(capsys, "coeffs", "--csv", str(path))
        assert code == 0
        assert report["coefficients"]["m"] == 1.5

    @pytest.mark.parametrize("header", ["x,y\n", ""])
    def test_csv_with_byte_order_mark(self, capsys, tmp_path, header):
        body = (header + "0,0\n1,1\n2,3\n").encode()
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        plain.write_bytes(body)
        marked.write_bytes(b"\xef\xbb\xbf" + body)
        code, want, _ = run_json(capsys, "coeffs", "--csv", str(plain))
        assert code == 0
        code, got, err = run_json(capsys, "coeffs", "--csv", str(marked))
        assert (code, err) == (0, "")
        assert got["coefficients"] == want["coefficients"] == {"m": 1.5, "h": 7 / 3}
        assert got["raw_sums"] == want["raw_sums"]

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "coeffs", "--csv", "/no/such/file.csv")
        assert code == 2

    def test_no_source(self, capsys):
        code, _, err = run(capsys, "coeffs")
        assert code == 2

    def test_generated(self, capsys):
        code, report, _ = run_json(capsys, "coeffs", "--gen", "two-segment",
                                   "--n", "500", "--seed", "7")
        assert code == 0
        assert report["inputs"]["seed"] == 7


class TestTransform:
    def test_generated_cloud_discrepancy(self, capsys):
        code, report, _ = run_json(
            capsys, "transform", "--gen", "two-segment", "--n", "2000",
            "--seed", "11", "--matrix", "1,0;0,2")
        assert code == 0
        assert report["discrepancy"] <= 1e-9

    def test_identity_zero_drift(self, capsys, triangle_csv):
        code, report, _ = run_json(capsys, "transform", "--csv", triangle_csv,
                                   "--matrix", "1,0;0,1")
        assert code == 0
        assert report["before"] == report["after_closed_form"]
        assert report["discrepancy"] == 0.0

    def test_degenerate_image_exit_code(self, capsys, tmp_path):
        path = tmp_path / "horizontal.csv"
        path.write_text("0,5\n1,5\n2,5\n")
        code, _, err = run(capsys, "transform", "--csv", str(path),
                           "--matrix", "0,1;-1,0")
        assert code == 3

    def test_singular_matrix_exit_code(self, capsys, triangle_csv):
        code, _, err = run(capsys, "transform", "--csv", triangle_csv,
                           "--matrix", "1,1;1,1")
        assert code == 2

    def test_coeffs_bypass(self, capsys):
        code, report, _ = run_json(capsys, "transform", REF_COEFFS,
                                   "--matrix", "1,0;0,2")
        assert code == 0
        assert report["after_closed_form"]["m"] == pytest.approx(3.04488, abs=5e-5)
        assert "after_direct" not in report

    def test_dump_points(self, capsys, triangle_csv, tmp_path):
        out = tmp_path / "image.csv"
        code, report, _ = run_json(capsys, "transform", "--csv", triangle_csv,
                                   "--matrix", "1,0;0,2",
                                   "--dump-points", str(out))
        assert code == 0
        image = read_cloud_csv(str(out))
        assert image.ys[1] == 2.0

    @pytest.mark.parametrize("dest", ["directory", "missing-parent", "/dev/full"])
    def test_dump_points_unwritable(self, capsys, tmp_path, dest):
        path = {"directory": tmp_path,
                "missing-parent": tmp_path / "missing" / "x.csv"}.get(dest, dest)
        if dest == "/dev/full" and not os.path.exists(dest):
            pytest.skip("no /dev/full on this system")
        code, out, err = run(capsys, "transform", "--gen", "uniform-box",
                             "--n", "10", "--matrix", "1,0;0,2",
                             "--dump-points", str(path))
        assert (code, out) == (2, "")
        assert "Traceback" not in err
        lines = err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith(f"error: cannot write {path}: ")

    def test_dump_points_needs_cloud(self, capsys, tmp_path):
        code, _, err = run(capsys, "transform", REF_COEFFS,
                           "--matrix", "1,0;0,2",
                           "--dump-points", str(tmp_path / "x.csv"))
        assert code == 2

    @pytest.mark.parametrize("literal,reference", [
        ("1e308,1e308;-1e308,1e308", (1.0, 1.0, -1.0, 1.0)),
        ("[[1e308,1e308],[-1e308,1e308]]", (1.0, 1.0, -1.0, 1.0)),
        ("1e200,1;0,1e200", (1.0, 1e-200, 0.0, 1.0)),
    ])
    def test_huge_matrix_maps_like_its_scaled_copy(self, capsys, literal,
                                                   reference):
        code, report, _ = run_json(capsys, "transform", "--coeffs", "1.5,3.5",
                                   "--matrix", literal)
        assert code == 0
        want = induced_coefficients(Matrix2(*reference),
                                    LinearCoefficients(1.5, 3.5))
        got = report["after_closed_form"]
        assert got["m"] == pytest.approx(want.m, rel=1e-15)
        assert got["h"] == pytest.approx(want.h, rel=1e-15)


    @pytest.mark.parametrize("coeffs", ["0,1e12", "1e7,100000000000001"])
    def test_large_h_under_the_identity(self, capsys, coeffs):
        code, report, _ = run_json(capsys, "transform", "--coeffs", coeffs,
                                   "--matrix", "1,0;0,1")
        assert code == 0
        assert report["after_closed_form"] == report["before"]

    def test_y_spread_far_above_x_spread(self, capsys, tmp_path):
        # The image of a box under diag(1, 2**20) has H near 1e12; the closed
        # form must map it under the identity as the direct recomputation does.
        out = tmp_path / "tall.csv"
        code, _, _ = run_json(capsys, "transform", "--gen", "uniform-box",
                              "--n", "1000", "--matrix", "1,0;0,1048576",
                              "--dump-points", str(out))
        assert code == 0
        code, report, _ = run_json(capsys, "transform", "--csv", str(out),
                                   "--matrix", "1,0;0,1")
        assert code == 0
        assert report["before"]["h"] > 1e12
        assert report["after_closed_form"] == report["after_direct"]


class TestInvariant:
    @pytest.mark.parametrize("family", ["diag", "lower", "upper"])
    def test_large_h(self, capsys, family):
        code, _, _ = run_json(capsys, "invariant", "--coeffs",
                              "1e7,100000000000001", "--family", family,
                              "--phi", "0.5")
        assert code == 0

    def test_upper_family_drift(self, capsys):
        code, report, _ = run_json(
            capsys, "invariant", "--gen", "two-segment", "--n", "2000",
            "--seed", "3", "--family", "upper", "--phi", "0.7")
        assert code == 0
        ev = report["evaluations"][0]
        assert ev["drift"]["abs"] <= 1e-9

    def test_diag_identity_phi(self, capsys):
        code, report, _ = run_json(capsys, "invariant", REF_COEFFS,
                                   "--family", "diag", "--phi", "1")
        assert code == 0
        ev = report["evaluations"][0]
        assert ev["kernel_after"] == ev["kernel_before"]
        assert ev["h_over_m2_after"] == pytest.approx(1.06564, abs=5e-5)

    def test_uniform_scaling_family_exit_code(self, capsys):
        code, _, err = run(capsys, "invariant", REF_COEFFS,
                           "--family", "linear:1,0;0,1|2,0;0,2",
                           "--phi", "0.5")
        assert code == 4

    def test_no_identity_family_exit_code(self, capsys):
        code, _, err = run(capsys, "invariant", REF_COEFFS,
                           "--family", "linear:2,0;0,1|0,1;0,0",
                           "--phi", "0.5")
        assert code == 2

    def test_identity_matrix_exit_code(self, capsys):
        code, _, err = run(capsys, "invariant", REF_COEFFS,
                           "--matrix", "1,0;0,1")
        assert code == 4
        assert "multiple of the identity (uniform scaling)" in err

    @pytest.mark.parametrize("matrix", ["2,1e-300;0,2", "2,0;0,2.0000000000001",
                                        "1e200,1;0,1e200"])
    def test_near_uniform_scaling_matrix_exit_code(self, capsys, matrix):
        # Within 1e-12 of a multiple of the identity, relative to the
        # largest entry: the same exit as an exact multiple.
        code, out, err = run(capsys, "invariant", REF_COEFFS, "--matrix", matrix)
        assert (code, out) == (4, "")
        assert "multiple of the identity (uniform scaling)" in err

    def test_pencil_equal_to_diag_reports_ratio(self, capsys):
        code, diag, _ = run_json(capsys, "invariant", REF_COEFFS,
                                 "--family", "diag", "--phi", "2")
        assert code == 0
        code, pencil, _ = run_json(capsys, "invariant", REF_COEFFS, "--family",
                                   "linear:1,0;0,0|0,0;0,1", "--phi", "2")
        assert code == 0
        assert "h_over_m2_after" in pencil["evaluations"][0]
        pencil["inputs"]["family"] = "diag"
        assert pencil == diag

    @pytest.mark.parametrize("target", [["--matrix", "2,0;0,3"],
                                        ["--family", "linear:1,0;0,1|0,0;0,1"]])
    def test_every_diagonal_direction_reports_ratio(self, capsys, target):
        # b' = g' = 0: every member is diagonal, and H/M^2 is invariant.
        code, report, _ = run_json(capsys, "invariant", "--coeffs", "1.5,3.5",
                                   *target)
        assert code == 0
        ev = report["evaluations"][0] if "--family" in target else report
        assert ev["h_over_m2_before"] == pytest.approx(3.5 / 1.5 ** 2, rel=1e-15)
        assert ev["h_over_m2_after"] == pytest.approx(ev["h_over_m2_before"],
                                                      rel=1e-15)

    def test_no_ratio_off_the_diagonal_directions(self, capsys):
        code, report, _ = run_json(capsys, "invariant", "--coeffs", "1.5,3.5",
                                   "--matrix", "2,1e-3;0,3")
        assert code == 0
        assert "h_over_m2_before" not in report

    def test_singular_family_member_exit_code(self, capsys):
        code, out, err = run(capsys, "invariant", REF_COEFFS,
                             "--family", "diag", "--phi", "0")
        assert (code, out) == (2, "")
        assert "has determinant 0.0 within tolerance of zero" in err

    def test_family_and_matrix_exclusive(self, capsys):
        code, _, err = run(capsys, "invariant", REF_COEFFS,
                           "--family", "diag", "--matrix", "1,0;0,2")
        assert code == 2


class TestSimulate:
    def test_generated_cloud_drifts(self, capsys):
        code, report, _ = run_json(capsys, "simulate", "--gen", "two-segment",
                                   "--n", "10000", "--seed", "42")
        assert code == 0
        assert len(report["cases"]) == 4
        for case in report["cases"]:
            before = case["kernel_before"]
            assert case["drift"]["abs"] <= 1e-8 * max(1.0, abs(before))
            assert case["closed_vs_direct"] <= 1e-9

    def test_reference_coefficients_reproduce_reported_values(self, capsys):
        code, report, _ = run_json(capsys, "simulate", REF_COEFFS)
        assert code == 0
        by_name = {c["name"]: c for c in report["cases"]}
        diag = by_name["diagonal"]
        assert diag["after"]["m"] == pytest.approx(3.04488, abs=5e-5)
        assert diag["after"]["h"] == pytest.approx(9.87991, abs=5e-5)
        assert diag["h_over_m2_before"] == pytest.approx(1.06564, abs=5e-5)
        upper = by_name["upper-triangular"]
        assert upper["after"]["m"] == pytest.approx(0.748882, abs=5e-6)
        assert upper["after"]["h"] == pytest.approx(0.568896, abs=5e-6)
        rot = by_name["rotation-pi/3"]
        assert rot["after"]["m"] == pytest.approx(-0.0364518, abs=5e-7)
        assert rot["after"]["h"] == pytest.approx(0.0143303, abs=5e-7)
        assert rot["kernel_before"] == pytest.approx(-0.0126368, abs=5e-7)
        gen = by_name["general"]
        assert gen["after"]["m"] == pytest.approx(-4.86159, abs=5e-5)
        assert gen["after"]["h"] == pytest.approx(27.4371, abs=5e-4)
        assert gen["kernel_before"] == pytest.approx(-0.000131743, abs=5e-9)

    def test_byte_identical_reports(self, capsys):
        args = ["simulate", "--gen", "two-segment", "--n", "1000",
                "--seed", "999", "--json"]
        code1 = main(args)
        out1 = capsys.readouterr().out
        code2 = main(args)
        out2 = capsys.readouterr().out
        assert code1 == code2 == 0
        assert out1 == out2

    def test_tiny_collinear_cloud_zero_kernels(self, capsys):
        code, report, _ = run_json(capsys, "simulate", "--gen",
                                   "line-with-noise", "--n", "2",
                                   "--noise", "0", "--seed", "8")
        assert code == 0
        for case in report["cases"]:
            assert abs(case["kernel_before"]) <= 1e-12
            assert abs(case["kernel_after"]) <= 1e-12


class TestSeed:
    """CLOUD_INV_SEED, once the default of --seed, is no longer read."""

    @pytest.mark.parametrize("value", ["31337", "not-a-number"])
    def test_env_is_ignored(self, capsys, monkeypatch, value):
        # argv alone decides a run: --seed defaults to 0 whatever the
        # environment holds.
        monkeypatch.setenv("CLOUD_INV_SEED", value)
        code, report, _ = run_json(capsys, "coeffs", "--gen", "uniform-box",
                                   "--n", "50")
        assert code == 0
        assert report["inputs"]["seed"] == 0

    def test_flag_overrides_env(self, capsys, monkeypatch):
        # The same argv gives the same report with and without the variable.
        argv = ["coeffs", "--gen", "uniform-box", "--n", "50", "--seed", "1"]
        want = run_json(capsys, *argv)
        monkeypatch.setenv("CLOUD_INV_SEED", "31337")
        assert run_json(capsys, *argv) == want
        code, report, _ = want
        assert code == 0
        assert report["inputs"]["seed"] == 1


class TestBadInputExitCodes:
    """Inputs that once escaped as tracebacks: each must give its documented
    exit code and a single error line."""

    def test_overflowing_kernel_denominator(self, capsys):
        code, out, err = run(capsys, "invariant", "--coeffs", "1.5,3.5",
                             "--matrix", "1e308,1e308;-1e308,1e308")
        assert (code, out) == (2, "")
        assert err == "error: kernel denominator overflows at (1.5, 3.5)\n"

    @pytest.mark.parametrize("argv,exit_code", [
        (["invariant", "--coeffs", "1.5,3.5", "--matrix", "2,0;0,2"], 4),
        (["invariant", "--coeffs", "1.5,3.5", "--matrix", "[[0.5,0],[0,0.5]]"], 4),
        (["transform", "--coeffs", "1.5,3.5", "--matrix", "[[null,1],[2,3]]"], 2),
        (["transform", "--coeffs", "1.5,3.5", "--matrix", "[[{},1],[2,3]]"], 2),
        (["transform", "--coeffs", "1.5,3.5", "--matrix", "[[1,[2]],[2,3]]"], 2),
        (["transform", "--coeffs", "1.5,3.5", "--matrix", '[[1,2],["3",4]]'], 2),
        (["transform", "--coeffs", "1.5,3.5", "--matrix", "[[1,2],[3,true]]"], 2),
        (["transform", "--coeffs", "1.5,3.5", "--matrix", f"[[1{'0' * 400},0],[0,1]]"], 2),
        # A finite 1e308 matrix maps (TestTransform); a literal past the
        # float range reads as inf and is refused.
        (["transform", "--coeffs", "1.5,3.5", "--matrix", "1e309,1;-1,1"], 2),
        (["transform", "--coeffs", "1.5,3.5", "--matrix", "[[1,1],[-1,1e309]]"], 2),
        (["invariant", "--coeffs", "1.5,3.5", "--family", "rot", "--phi", "inf"], 2),
        (["invariant", "--coeffs", "1.5,3.5", "--family", "rot", "--phi", "0.5,nan"], 2),
        (["invariant", "--coeffs", "1.5,3.5", "--family", "diag", "--phi", "inf"], 2),
        (["invariant", "--coeffs", "1.5,3.5", "--family", "diag", "--phi", "nan"], 2),
        # A --phi list with no value is refused, not read as the identity.
        (["invariant", "--coeffs", "1.5,3.5", "--family", "upper", "--phi", ","], 2),
        (["invariant", "--coeffs", "1.5,3.5", "--family", "upper", "--phi", " "], 2),
        (["invariant", "--coeffs", "1.5,3.5", "--family", "upper", "--phi", ""], 2),
        # Kernels that overflow to inf or -inf, in either output form:
        # K = (M^2 - H)/H^2 is about 1e800 here, and about -1e578 below.
        (["invariant", "--coeffs", "1e200,1e-200", "--family", "upper", "--json"], 2),
        (["invariant", "--coeffs", "1e-11,1e300", "--family", "diag", "--json"], 2),
        (["invariant", "--coeffs", "1e200,1e-200", "--family", "upper"], 2),
        (["simulate", "--coeffs", "nan,1"], 2),
        (["simulate", "--coeffs", "1,x"], 2),
        # So is a list with an empty item.
        (["invariant", "--coeffs", "1.5,3.5", "--family", "upper", "--phi", "1,,2"], 2),
        (["invariant", "--coeffs", "1.5,3.5", "--family", "upper", "--phi", "1,"], 2),
        (["invariant", "--coeffs", "1.5,3.5", "--family", "upper", "--phi", ",1"], 2),
        (SINGULAR_MEMBER, 2),
        # Usage errors: one error line through main(), not a usage block.
        (["transform", "--coeffs", "1,2"], 2),
        (["coeffs", "--gen", "ellipse", "--n", "abc"], 2),
        (["coeffs", "--gen", "ellipse", "--no-such-option"], 2),
        ([], 2),
        (["coeffs"], 2),
        (["coeffs", "--gen", "ellipse", "--csv", "cloud.csv"], 2),
        (["transform", "--coeffs", "1,2", "--gen", "ellipse", "--matrix", "1,0;0,2"], 2),
        (["invariant", "--coeffs", "1,2"], 2),
        *[(form(item), 2) for form in LIST_FORMS.values() for item in REFUSED_LISTS],
        # A bracketed literal is two rows under the number-list rule, and
        # nothing else: no space inside a number, no third level, no
        # missing or extra row, no recursion however deep the brackets.
        *[(["transform", "--coeffs", "1.5,3.5", "--matrix", literal], 2)
          for literal in ["[[1 2,3],[4,5]]", "[[1,2],[3]]", "[[1,2]],[[3,4]]",
                          "[1,2],[3,4]", "[" * 20_000 + "]" * 20_000]],
    ])
    def test_exit_code_and_one_error_line(self, capsys, argv, exit_code):
        code, out, err = run(capsys, *argv)
        assert code == exit_code
        assert out == ""
        assert "Traceback" not in err
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        if "--phi" in argv and argv != SINGULAR_MEMBER:
            assert lines[0].startswith("error: bad --phi list")

    @pytest.mark.parametrize("argv,message", [
        (["transform", "--coeffs", "1,2"],
         "the following arguments are required: --matrix"),
        (["coeffs", "--gen", "ellipse", "--n", "abc"],
         "argument --n: invalid int value: 'abc'"),
        (["coeffs", "--gen", "ellipse", "--no-such-option"],
         "unrecognized arguments: --no-such-option"),
        (["invariant", "--coeffs", "1,2", "--family", "diag", "--matrix", "1,0;0,2"],
         "argument --matrix: not allowed with argument --family"),
    ])
    def test_usage_error_is_returned_as_one_line(self, capsys, argv, message):
        assert run(capsys, *argv) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("argv", [["--help"], ["coeffs", "--help"], ["--version"]])
    def test_help_and_version_still_exit_zero(self, capsys, argv):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 0
        captured = capsys.readouterr()
        assert captured.out and captured.err == ""

    @pytest.mark.parametrize("command,own", [
        ("coeffs", []),
        ("transform", ["--coeffs", "--matrix", "--dump-points"]),
        ("invariant", ["--coeffs", "--family", "--matrix", "--phi"]),
        ("simulate", ["--coeffs"]),
    ])
    def test_each_command_lists_its_own_options(self, capsys, command, own):
        with pytest.raises(SystemExit) as info:
            main([command, "--help"])
        assert info.value.code == 0
        # An option's help line is indented by two spaces; usage lines by more.
        listed = re.findall(r"^  (?:-h, )?(--[a-z-]+)", capsys.readouterr().out, re.M)
        shared = ["--help", "--csv", "--gen", "--n", "--noise", "--seed", "--json"]
        assert sorted(listed) == sorted(shared + own)

    @pytest.mark.parametrize("argv,start", [
        (["simulate", "--coeffs", LONG], "expected finite --coeffs M,H: 'xxx"),
        ([*SINGULAR_MEMBER[:-1], LONG], "bad --phi list: 'xxx"),
        (["transform", "--coeffs", "1.5,3.5", "--matrix", LONG],
         "expected 'a,b;c,d', got 'xxx"),
        (["transform", "--coeffs", "1.5,3.5", "--matrix", "[" * 20_000 + "]" * 20_000],
         "expected [[a,b],[c,d]], got '[[["),
        (["invariant", "--coeffs", "1.5,3.5", "--family", LONG],
         "unknown family literal 'xxx"),
        (["invariant", "--coeffs", "1.5,3.5", "--family", f"linear:{LONG}|1,0;0,1"],
         "expected 'a,b;c,d', got 'xxx"),
        (["coeffs", "--csv", "{csv}"], "bad CSV {csv}: line 2: 'xxx"),
    ])
    def test_a_long_value_is_quoted_by_head_and_tail(self, capsys, tmp_path, argv,
                                                     start):
        # At most 400 characters of each quoted value, and at most two quotes.
        path = tmp_path / "cloud.csv"
        path.write_text(f"0,0\n{LONG}\n5,1\n")
        argv = [str(path) if arg == "{csv}" else arg for arg in argv]
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: " + start.replace("{csv}", str(path)))
        assert err.count("\n") == 1 and "..." in err and len(err) < 1000

    @pytest.mark.parametrize("argv", [
        ["coeffs", "--gen", "ellipse", "--n", "9" * 40_000],
        ["coeffs", "--gen", LONG],
        ["coeffs", "--gen", "ellipse", "--noise", LONG],
        [LONG, "--coeffs", "1,2"],
    ])
    def test_a_long_usage_error_is_cut_by_head_and_tail(self, capsys, argv):
        # argparse writes the value back whole; the line keeps 400 characters.
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: argument ") and "..." in err
        assert err.count("\n") == 1 and len(err.encode()) < 1000

    @pytest.mark.parametrize("form", [*LIST_FORMS, "csv"])
    def test_number_list_rule_accepts(self, capsys, tmp_path, form):
        if form == "csv":
            path = tmp_path / "cloud.csv"
            path.write_text("0,0\n1,2\n5,1\n")
            argv = ["coeffs", "--csv", str(path)]
        else:
            argv = LIST_FORMS[form]("1,2")
        code, report, err = run_json(capsys, *argv)
        assert (code, err) == (0, "")
        inputs = report["inputs"]
        if form == "csv":
            assert inputs["n"] == 3
        elif form == "coeffs":
            assert [inputs["m"], inputs["h"]] == [1.0, 2.0]
        else:
            assert inputs[form][:2] == [1.0, 2.0]

    @pytest.mark.parametrize("row", REFUSED_LISTS)
    def test_number_list_rule_on_a_csv_row(self, capsys, tmp_path, row):
        path = tmp_path / "cloud.csv"
        path.write_text(f"0,0\n{row}\n5,1\n")
        code, out, err = run(capsys, "coeffs", "--csv", str(path), "--json")
        if not row.strip():
            # A blank or all-space row is a blank line, which CSV input skips.
            assert (code, json.loads(out)["inputs"]["n"]) == (0, 2)
            return
        assert (code, out) == (2, "")
        assert err == (f"error: bad CSV {path}: line 2: {row!r} is not a list of "
                       "2 finite numbers\n")

    @pytest.mark.parametrize("argv,exit_code", [
        (["invariant", "--coeffs", "1.5e-100,3.5e-200", "--family", "upper"], 0),
        (["invariant", "--coeffs", "1.5e-100,3.5e-200", "--matrix", "1,0.7;0,1"], 0),
        (["invariant", "--coeffs", "1e-300,0", "--family", "diag", "--phi", "2"], 0),
        (["simulate", "--coeffs", "1e-300,0"], 2),
        (["invariant", "--coeffs", "1e-11,1e300", "--family", "diag"], 2),
        (["invariant", "--coeffs", "0,1.5e308", "--family", "upper"], 0),
    ])
    def test_squared_denominator_out_of_range(self, capsys, argv, exit_code):
        # den**2 underflows to 0 (or overflows) where the quotient does not.
        code, report, err = run_json(capsys, *argv)
        assert code == exit_code
        if code:
            assert err.startswith("error: kernel ")
        elif "upper" in argv:
            m, h = map(float, argv[2].split(","))
            want = -1.0204081632653e199 if m else -1.0 / h
            assert report["kernel_before"] == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("coeffs", ["1e-300,0", "1e-200,2e-400", "1e200,0",
                                        "1e200,1e300", "1.7e308,0"])
    @pytest.mark.parametrize("target", [["--family", "diag"],
                                        ["--matrix", "2,0;0,1"]])
    def test_degree_zero_kernel_keeps_its_square(self, capsys, coeffs, target):
        # M*M under- or overflows here, yet K = (M^2 - H)/M^2 is 1 (H is
        # at most 1e-100 of M^2).
        code, report, _ = run_json(capsys, "invariant", "--coeffs", coeffs,
                                   *target)
        assert code == 0
        assert report["kernel_before"] == 1.0

    def test_diagonal_ratio_out_of_range(self, capsys):
        # A diagonal --matrix reports H/M^2, here 1e390: past the float range.
        code, out, err = run(capsys, "invariant", "--coeffs", "1e-200,1e-10",
                             "--matrix", "1e200,0;0,2e200")
        assert (code, out) == (2, "")
        assert err.startswith("error: Out of range float values are not JSON compliant")

    def test_diagonal_ratio_at_zero_slope_is_a_singular_kernel(self, capsys):
        # At M = 0 the kernel denominator delta*M is 0 before H/M^2 is formed.
        code, out, err = run(capsys, "invariant", "--coeffs", "0,3.5",
                             "--matrix", "2,0;0,3")
        assert (code, out) == (2, "")
        assert err == ("error: kernel denominator 0.0 is zero within tolerance "
                       "at (0.0, 3.5)\n")

    def test_huge_m_kernel_is_finite(self, capsys):
        # M*M overflows, yet K = (M^2 - H)/H^2 is about 1e-200.
        code, report, _ = run_json(capsys, "invariant", "--coeffs",
                                   "1e200,1e300", "--family", "upper")
        assert code == 0
        assert report["kernel_before"] == pytest.approx(1e-200, rel=1e-12)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_argv_fuzz_exits_by_the_documented_codes(self, data):
        # M, H and the matrix entries anywhere in the float range, from the
        # smallest subnormal up, with unknown options and bad values mixed in.
        argv = data.draw(fuzz_argv())
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (0, 2, 3, 4)
        lines = err.getvalue().splitlines()
        if code:
            assert out.getvalue() == ""
            assert len(lines) == 1 and lines[0].startswith("error: ")
        else:
            assert lines == []

    def test_singular_family_member_names_the_matrix(self, capsys):
        code, out, err = run(capsys, *SINGULAR_MEMBER)
        assert (code, out) == (2, "")
        assert err == ("error: matrix (1.0, 0.0; 0.0, 0.0) has determinant 0.0 "
                       "within tolerance of zero\n")

    @pytest.mark.parametrize("as_json", [True, False])
    def test_non_finite_report_prints_nothing(self, capsys, as_json):
        with pytest.raises(ValueError, match="not JSON compliant"):
            cli._emit({"a": 1.0, "b": [{"c": math.nan}]}, as_json)
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("message", ["Unable to allocate 745. TiB", ""])
    def test_out_of_memory(self, capsys, monkeypatch, message):
        # The allocation is refused by a stub: a really huge request could
        # succeed lazily and then exhaust the machine.
        def refuse(*args, **kwargs):
            raise MemoryError(message)

        monkeypatch.setattr(np, "empty", refuse)
        code, out, err = run(capsys, "coeffs", "--gen", "uniform-box",
                             "--n", "100000000000000")
        assert (code, out) == (2, "")
        assert err == f"error: out of memory: {message or 'allocation failed'}\n"


class TestAllocation:
    """Direct recomputation on a generated cloud allocates the cloud and
    chunk-sized buffers only: the image is reduced, never written."""

    N = 1_000_000
    LIMIT = 16 * N + 32 * _CHUNK + 1024 * 1024

    @pytest.mark.parametrize("argv", [
        ["transform", "--gen", "uniform-box", "--n", str(N),
         "--matrix", "0.4,-0.4;-0.05,0.9", "--json"],
        ["simulate", "--gen", "uniform-box", "--n", str(N), "--json"],
    ])
    def test_peak(self, capsys, argv):
        codes = []
        assert traced_peak(lambda: codes.append(main(argv))) <= self.LIMIT
        assert codes == [0]
        assert "after_direct" in capsys.readouterr().out
