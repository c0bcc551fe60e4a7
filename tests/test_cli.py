import json
import math

import numpy as np
import pytest

from cloudinv import (LinearCoefficients, Matrix2, cli, induced_coefficients,
                      read_cloud_csv)
from cloudinv.cli import main
from cloudinv.coefficients import _CHUNK
from conftest import REF_H, REF_M, traced_peak

REF_COEFFS = f"--coeffs={REF_M},{REF_H}"


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
        assert image.points[1].y == 2.0

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

    def test_matrix_mode_reports_normalized_kernel(self, capsys):
        code, report, _ = run_json(capsys, "invariant", REF_COEFFS,
                                   "--matrix", "1,0.7;0,1")
        assert code == 0
        assert report["normalized_kernel_before"] == \
            pytest.approx(-0.0249396, abs=1e-6)
        assert report["kernel_drift"]["abs"] <= 1e-12

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


class TestSeedEnvVar:
    def test_env_seed_used(self, capsys, monkeypatch):
        monkeypatch.setenv("CLOUD_INV_SEED", "31337")
        code, report, _ = run_json(capsys, "coeffs", "--gen", "uniform-box",
                                   "--n", "50")
        assert code == 0
        assert report["inputs"]["seed"] == 31337

    def test_flag_overrides_env(self, capsys, monkeypatch):
        monkeypatch.setenv("CLOUD_INV_SEED", "31337")
        code, report, _ = run_json(capsys, "coeffs", "--gen", "uniform-box",
                                   "--n", "50", "--seed", "1")
        assert code == 0
        assert report["inputs"]["seed"] == 1

    def test_bad_env_seed(self, capsys, monkeypatch):
        monkeypatch.setenv("CLOUD_INV_SEED", "not-a-number")
        code, _, err = run(capsys, "coeffs", "--gen", "uniform-box")
        assert code == 2


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
        # Kernels that overflow to NaN or -inf, in either output form.
        (["invariant", "--coeffs", "1e200,1e300", "--family", "upper", "--json"], 2),
        (["invariant", "--coeffs", "1e-11,1e300", "--family", "diag", "--json"], 2),
        (["invariant", "--coeffs", "1e200,1e300", "--family", "upper"], 2),
        (["simulate", "--coeffs", "nan,1"], 2),
        (["simulate", "--coeffs", "1,x"], 2),
    ])
    def test_exit_code_and_one_error_line(self, capsys, argv, exit_code):
        code, out, err = run(capsys, *argv)
        assert code == exit_code
        assert out == ""
        assert "Traceback" not in err
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        if "--phi" in argv:
            assert lines[0].startswith("error: bad --phi list")

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
