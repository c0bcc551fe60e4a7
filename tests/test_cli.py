import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
from inspect import CO_GENERATOR
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cloudinv import FamilyGenerator, cli, coefficients
from cloudinv.cli import main
from cloudinv.coefficients import _CHUNK, _QUOTE
from conftest import REF_H, REF_M, traced_peak
from exact import centered_sums, chart, kernel
from test_golden import certify, leaves, source_cloud

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


def certify_report(report):
    """Every float of a report computed from a generated or CSV cloud, within
    its budget of the exact oracle on the cloud's coordinates."""
    flat = dict(leaves(report))
    certify([flat], source_cloud(flat))


@pytest.fixture
def triangle_csv(tmp_path):
    path = tmp_path / "cloud.csv"
    path.write_text("x,y\n0,0\n1,1\n2,0\n")
    return str(path)


class TestCoeffs:
    def test_vertical_line_degenerate(self, capsys, tmp_path):
        path = tmp_path / "vert.csv"
        path.write_text("0,0\n0,1\n0,2\n")
        code, out, err = run(capsys, "coeffs", "--csv", str(path))
        assert code == 2
        assert out == ""
        assert err == ("error: x-spread sum D is 0: the least-squares line is "
                       "vertical, so (M, H) is undefined\n")

    def test_horizontal_line_has_exactly_zero_spread(self, capsys, tmp_path):
        # y is 0.1 three times: Hn is 0, not a rounding residue.
        path = tmp_path / "flat.csv"
        path.write_text("0,0.1\n1,0.1\n2.5,0.1\n")
        code, report, _ = run_json(capsys, "coeffs", "--csv", str(path))
        assert code == 0
        assert report["collinear"] is True
        assert report["coefficients"] == {"m": 0.0, "h": 0.0}
        assert report["raw_sums"]["hn"] == 0.0

    @pytest.mark.parametrize("rows", [
        "1e-162,1e-162\n2e-162,3e-162\n4e-162,2e-162\n",
        "1e-163,1e-163\n2e-163,3e-163\n4e-163,2e-163\n",
        "1,1e-163\n2,3e-163\n4,2e-163\n",
        "1,1e-300\n2,3e-300\n4,2e-300\n",
    ], ids=["both-1e-162", "both-1e-163", "y-1e-163", "y-1e-300"])
    def test_tiny_cloud_is_refused(self, capsys, tmp_path, rows):
        # (1, 1), (2, 3), (4, 2) with x, y or both scaled by s: at 1e-162 the
        # squares of the coordinate gaps are subnormal, and the moments read
        # M = H = 0, a collinear cloud, where the exact values are M = 3/14
        # and H = 3/7; from 1e-163 down they are all 0, a spread sum of
        # exactly 0 over unequal coordinates, which is neither a vertical
        # line nor (y alone tiny) a horizontal one.
        path = tmp_path / "tiny.csv"
        path.write_text(rows)
        code, out, err = run(capsys, "coeffs", "--csv", str(path))
        assert (code, out) == (2, "")
        assert re.fullmatch(r"error: cloud spread too small: .* 3 subnormal squares\n", err)


class TestTransform:
    def test_dumped_image_reads_back_to_after_direct(self, capsys, tmp_path):
        # A generated block, a written image and a CSV cloud in turn: the
        # image read back from --dump-points has the direct recompute's
        # coefficients to the last bit.
        out = tmp_path / "image.csv"
        code, report, _ = run_json(capsys, "transform", "--gen", "two-segment",
                                   "--n", "70000", "--matrix", "0.4,-0.4;-0.05,0.9",
                                   "--dump-points", str(out))
        assert code == 0
        code, back, _ = run_json(capsys, "coeffs", "--csv", str(out))
        assert code == 0
        assert back["coefficients"] == report["after_direct"]

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

    def test_image_under_tiny_entries_is_refused(self, capsys, triangle_csv):
        # The closed form has degree 0 in T; the image's own moments are lost.
        code, out, err = run(capsys, "transform", "--csv", triangle_csv,
                             "--matrix", "1e-160,0;0,1e-160")
        assert (code, out) == (2, "")
        assert err.startswith("error: cloud spread too small: ")

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
        # The kernel before and after, and the image, each within its budget
        # of the exact value of its own inputs.
        code, report, _ = run_json(
            capsys, "invariant", "--gen", "two-segment", "--n", "2000",
            "--seed", "3", "--family", "upper", "--phi", "0.7")
        assert code == 0
        certify_report(report)

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


class TestSimulate:
    def test_tiny_collinear_cloud_zero_kernels(self, capsys):
        # The exact kernel of a line is 0, and the reported kernels are
        # within their budget of the exact kernel at the reported points.
        code, report, _ = run_json(capsys, "simulate", "--gen",
                                   "line-with-noise", "--n", "2",
                                   "--noise", "0", "--seed", "8")
        assert code == 0
        certify_report(report)
        cloud = source_cloud(dict(leaves(report)))
        m, h = chart(centered_sums(cloud.xs, cloud.ys))
        assert h == m * m


class TestBadInputExitCodes:
    """Inputs that once escaped as tracebacks: each must give its documented
    exit code and a single error line."""

    @pytest.mark.parametrize("argv,exit_code", [
        (["invariant", "--coeffs", "1.5,3.5", "--matrix", "[[0.5,0],[0,0.5]]"], 4),
        # Kernels that overflow to inf or -inf, in either output form:
        # K = (M^2 - H)/H^2 is about 1e800 here, and about -1e578 below.
        (["invariant", "--coeffs", "1e200,1e-200", "--family", "upper", "--json"], 2),
        (["invariant", "--coeffs", "1e-11,1e300", "--family", "diag", "--json"], 2),
        (["invariant", "--coeffs", "1e200,1e-200", "--family", "upper"], 2),
        # Usage errors: one error line through main(), not a usage block.
        ([], 2),
        (["coeffs"], 2),
        (["coeffs", "--gen", "ellipse", "--csv", "cloud.csv"], 2),
        (["coeffs", "--csv", "/no/such/file.csv"], 2),
        (["transform", REF_COEFFS, "--matrix", "1,0;0,2", "--dump-points", "x.csv"], 2),
        (["transform", "--coeffs", "1,2", "--gen", "ellipse", "--matrix", "1,0;0,2"], 2),
        (["invariant", "--coeffs", "1,2"], 2),
        *[(form(item), 2) for form in LIST_FORMS.values() for item in REFUSED_LISTS],
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

    @pytest.mark.parametrize("argv,message", [
        (["transform", "--coeffs", "1,2"],
         "the following arguments are required: --matrix"),
        (["coeffs", "--gen", "ellipse", "--n", "abc"],
         "argument --n: invalid int value: 'abc'"),
        (["coeffs", "--gen", "ellipse", "--no-such-option"],
         "unrecognized arguments: --no-such-option"),
        (["invariant", "--coeffs", "1,2", "--family", "diag", "--matrix", "1,0;0,2"],
         "argument --matrix: not allowed with argument --family"),
        # At M = 0 the kernel denominator delta*M is 0 before H/M^2 is formed.
        (["invariant", "--coeffs", "0,3.5", "--matrix", "2,0;0,3"],
         "kernel denominator 0.0 is zero within tolerance at (0.0, 3.5)"),
        # Rotation's denominator H + 1 is 2**-52, its exact value.
        (["invariant", "--coeffs", "0.5,-0.9999999999999998", "--family", "rot"],
         "kernel denominator 2.220446049250313e-16 is zero within tolerance at "
         "(0.5, -0.9999999999999998)"),
        # A diagonal --matrix reports H/M^2, here 1e390: past the float range.
        *[(["invariant", "--coeffs", "1e-200,1e-10", "--matrix", "1e200,0;0,2e200", *form],
           "report value h_over_m2_before is not finite: inf") for form in ([], ["--json"])],
        (SINGULAR_MEMBER,
         "matrix (1.0, 0.0; 0.0, 0.0) has determinant 0.0 within tolerance of zero"),
        # With --matrix, a --phi list (well formed or not) is refused, not
        # ignored; without --gen, a generator option is, even at its default.
        *[(["invariant", "--coeffs", "1.5,3.5", "--matrix", "1,0.7;0,1", "--phi", phi,
            *form], "--phi needs --family")
          for phi in ("1,2", "1,2,nonsense") for form in ([], ["--json"])],
        (["simulate", "--coeffs", "1.5,3.5", "--n", "-5"], "--n needs --gen"),
        (["transform", "--coeffs", "1,2", "--matrix", "1,1;0,1", "--seed", "9",
          "--n", "7"], "--n needs --gen"),
        (["invariant", "--coeffs", "1.5,3.5", "--family", "diag", "--seed", "0"],
         "--seed needs --gen"),
        (["coeffs", "--csv", "cloud.csv", "--noise", "0.05"], "--noise needs --gen"),
        # Pencils that never reach the identity: the candidate phi overflows,
        # or its phi*b is past the float range in A12.
        (["invariant", "--coeffs", "1.5,3.5", "--family",
          "linear:2,1;1,2|5e-324,5e-324;5e-324,5e-324"],
         "no phi makes A0 + phi*B the identity (best candidate -inf)"),
        (["invariant", "--coeffs", "1.5,3.5", "--family", "linear:-1.7976931348623157e308,0;0,1"
          "|1.7187820019775026e289,1.7187820019775026e289;0,0"],
         "no phi makes A0 + phi*B the identity (best candidate 1.0459110770266526e+19)"),
    ])
    def test_an_error_is_returned_as_one_exact_line(self, capsys, argv, message):
        assert run(capsys, *argv) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("argv", [["--help"], ["--version"]])
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

    @pytest.mark.parametrize("extra", [0, 1])
    @pytest.mark.parametrize("argv", [["coeffs", "--gen", "ellipse", "--n"], ["coeffs", "--gen"],
                                      ["coeffs", "--gen", "ellipse", "--noise"], []],
                             ids=["n", "gen", "noise", "command"])
    def test_a_usage_error_is_cut_past_400_characters(self, capsys, argv, extra):
        # argparse writes the value back whole: its message for each option
        # or the command, at exactly 400 characters and at 401.
        frame = run(capsys, *argv, "")[2]
        value = "x" * (400 + extra - (len(frame) - len("error: \n")))
        message = frame[len("error: "):-1].replace("''", repr(value))
        assert len(message) == 400 + extra
        code, out, err = run(capsys, *argv, value)
        assert (code, out) == (2, "")
        if extra:
            assert err == f"error: {_QUOTE.repr(message)[1:-1]}\n" and "..." in err
        else:
            assert err == f"error: {message}\n"

    @pytest.mark.parametrize("argv,exit_code", [
        (["invariant", "--coeffs", "1.5e-100,3.5e-200", "--family", "upper"], 0),
        (["invariant", "--coeffs", "1.5e-100,3.5e-200", "--matrix", "1,0.7;0,1"], 0),
        (["invariant", "--coeffs", "1e-300,0", "--family", "diag", "--phi", "2"], 0),
        (["simulate", "--coeffs", "1e-300,0"], 2),
        (["invariant", "--coeffs", "1e-11,1e300", "--family", "diag"], 2),
        (["invariant", "--coeffs", "0,1.5e308", "--family", "upper"], 0),
        (["invariant", "--coeffs", "1e200,1e300", "--family", "upper"], 0),
        # a - d overflows: the direction is formed at half scale.
        (["invariant", "--coeffs", "1.5,3.5", "--matrix", "1e308,0;0,-1e308"], 0),
        (["invariant", "--coeffs", "1.5,3.5", "--family",
          "linear:1,0;0,1|1e308,0;0,-1e308"], 0),
        # The denominator 4.5e308 overflows, and the kernel -1.25/4.5e308**2
        # underflows to -0.0: reported, as any kernel that does not overflow.
        (["invariant", "--coeffs", "1.5,3.5", "--matrix", "1e308,1e308;-1e308,1e308"], 0),
    ])
    def test_squared_denominator_out_of_range(self, capsys, argv, exit_code):
        # den**2 underflows to 0 (or overflows) where the quotient does not:
        # the kernel is its exact value rounded once.
        code, report, err = run_json(capsys, *argv)
        assert code == exit_code
        if code:
            assert err.startswith("error: kernel ")
        else:
            spec = FamilyGenerator(*[report["spec"][k] for k in ("bprime", "gprime", "delta")])
            before = report["before"]
            assert report["kernel_before"] == float(kernel(spec, before["m"], before["h"]))

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

    def test_generator_options_default_under_gen(self, capsys):
        code, report, _ = run_json(capsys, "coeffs", "--gen", "uniform-box")
        assert code == 0
        assert report["inputs"] == {"source": "generated", "kind": "uniform-box",
                                    "n": 1000, "noise": 0.05, "seed": 0}

    @pytest.mark.parametrize("as_json", [True, False])
    def test_non_finite_report_prints_nothing(self, capsys, as_json):
        with pytest.raises(ValueError,
                           match=r"^report value b\[0\]\.c is not finite: nan$"):
            cli._emit({"a": 1.0, "b": [{"c": math.nan}]}, as_json)
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("unbuffered", [True, False])
    @pytest.mark.parametrize("stdout", ["closed pipe", "/dev/full"])
    def test_unwritable_stdout_is_one_error_line(self, stdout, unbuffered):
        # The report's own write fails, or with a buffered stdout its flush:
        # the reader of a pipe is gone before it, or the device is full.
        if stdout == "/dev/full" and not os.path.exists(stdout):
            pytest.skip("no /dev/full on this system")
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        if stdout == "closed pipe":
            read, write = os.pipe()
            os.close(read)
        else:
            write = os.open(stdout, os.O_WRONLY)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "cloudinv.cli", "invariant", "--coeffs", "1.5,3.5",
                 "--matrix", "2,0;0,1"],
                stdout=write, stderr=subprocess.PIPE, text=True, env=env, timeout=60)
        finally:
            os.close(write)
        reason = {"closed pipe": "[Errno 32] Broken pipe",
                  "/dev/full": "[Errno 28] No space left on device"}[stdout]
        assert proc.returncode == 2
        assert proc.stderr == f"error: cannot write stdout: {reason}\n"

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


class TestMomentPasses:
    """The moment passes (calls of ``coefficients._copy_and_reduce``) each
    command makes: a count, so a change that adds a pass fails here without
    a wall-clock comparison.  A cloud is reduced once when it is built, an
    image once as it is reduced pending, and a written image once more.  The
    Python-level calls of a --phi request are counted the same way."""

    @pytest.mark.parametrize("argv,passes", [
        (["coeffs", "--gen", "ellipse", "--n", "300"], 1),
        (["coeffs", "--csv", "cloud.csv"], 1),
        (["transform", "--gen", "ellipse", "--n", "300", "--matrix", "1,0.7;0,1"], 2),
        (["transform", "--gen", "ellipse", "--n", "300", "--matrix", "1,0.7;0,1",
          "--dump-points", "image.csv"], 3),
        (["invariant", "--gen", "ellipse", "--n", "300", "--family", "upper"], 1),
        (["simulate", "--gen", "ellipse", "--n", "300"], 5),
        (["transform", REF_COEFFS, "--matrix", "1,0.7;0,1"], 0),
        (["invariant", REF_COEFFS, "--matrix", "0.4,-0.4;-0.05,0.9"], 0),
        (["invariant", REF_COEFFS, "--family", "diag", "--phi", "0.5,2"], 0),
        (["simulate", REF_COEFFS], 0),
    ])
    def test_passes_per_command(self, capsys, monkeypatch, tmp_path, argv, passes):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "cloud.csv").write_text("x,y\n0,0\n1,1\n2,0\n")
        calls = []
        reduce = coefficients._copy_and_reduce

        def counting(*args):
            calls.append(1)
            return reduce(*args)

        monkeypatch.setattr(coefficients, "_copy_and_reduce", counting)
        assert run(capsys, *argv)[0] == 0
        assert len(calls) == passes

    # Python-level calls of named functions in src/cloudinv per invariant
    # request with k values of --phi: (a base, and the calls each value adds).
    # Comprehensions, lambdas and generators are not counted, so the count
    # does not depend on whether the Python version inlines them.
    CALLS_PER_PHI_REQUEST = {"diag": (39, 53), "upper": (39, 41), "rot": (32, 41),
                             "linear:-2,-2;-0.25,0.5|12,8;1,2": (54, 41)}

    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("family", CALLS_PER_PHI_REQUEST)
    def test_python_calls_per_phi_request(self, capsys, family, k):
        src, calls = str(Path(cli.__file__).parent), []

        def profile(frame, event, arg):
            code = frame.f_code
            if (event == "call" and code.co_filename.startswith(src)
                    and not code.co_name.startswith("<") and not code.co_flags & CO_GENERATOR):
                calls.append(code.co_name)

        sys.setprofile(profile)
        try:
            code = main(["invariant", REF_COEFFS, "--family", family,
                         "--phi", ",".join(["0.5", "2"][:k])])
        finally:
            sys.setprofile(None)
        assert (code, capsys.readouterr().err) == (0, "")
        base, per_phi = self.CALLS_PER_PHI_REQUEST[family]
        assert len(calls) == base + per_phi * k


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
