"""The four workloads: their inputs, one request, and the oracle it must meet.

Each workload is a closed loop with one client.  ``requests()`` is the
endless seeded request stream.  A workload with a fixed mix sets
``whole_cycles``, the length ``cycle_len`` of its repeating mix and
``CYCLE_S``, about the seconds one cycle takes on a shared 2-vCPU VM, so that
a run measures for about ``--seconds``; when the host is busy, a cycle takes
up to twice as long, and so does the run.
``warmup_requests()`` is what runs untimed before measuring and
``trace_requests()`` the fixed list the traced run replays, so that its
counts repeat exactly.  ``run`` does one request and ``check`` judges its
output against values the benchmark computed itself.
"""
from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import os
import subprocess
import sys
import tracemalloc
import traceback

import numpy as np

import inputs as inp
from stats import rel_gap

SCHEMA = "cloud-invariants/1"

# Tolerances from tests/test_acceptance.py: closed form vs direct recompute
# (criterion 3), kernel drift (criterion 4) and PDE residual (criterion 5).
COEF_TOL = 1e-9
KERNEL_TOL = 1e-8
PDE_TOL = 1e-6


def judge(triples) -> tuple[str | None, float]:
    """(reason, worst gap) over (got, want, tolerance) triples."""
    worst, reason = 0.0, None
    for got, want, tol in triples:
        gap = rel_gap(got, want)
        worst = max(worst, gap)
        if not gap <= tol:
            reason = "oracle"
    return reason, worst


def _literal(t) -> str:
    return "{!r},{!r};{!r},{!r}".format(*t)


class Points:
    """Moments and the closed-form map against the direct recompute.

    Sizes are log-spaced from 1e5 points (1.6 MB, inside L2) to 2e7 (160 MB
    per coordinate array, above L3).  A cycle of 28 holds as many requests
    below the 3.8e5 class as above it, so the median request sits in the
    middle of that class, and the 11th slowest of the 3 to 10 cycles a run
    holds inside the 5.3e6 class, so neither sits on a boundary between
    classes, where a small change of speed would move it to another size.
    """

    name = "points"
    in_process = True
    whole_cycles = True
    CYCLE_S = 5.0
    SIZES = (100_000, 376_060, 1_414_214, 5_318_296, 20_000_000)
    # Size classes of one cycle: 8, 12, 4, 3 and 1 requests.  The order is
    # fixed, not drawn from the seed, because what ran before a request
    # (a 2e7 request flushes every cache) changes its time.
    ORDER = (0, 1, 0, 2, 1, 3, 1, 0, 1, 2, 1, 0, 4, 1, 0, 1, 3, 1, 0, 2, 1, 0, 1, 3, 1, 0, 2, 1)
    # Classes whose arrays stay below glibc's largest mmap threshold (32 MiB)
    # change allocation path after first use; larger ones are fresh mappings
    # on every request, so warming them up buys nothing.
    WARM = 3

    def __init__(self, api, seed: int, warmup_only: bool = False, **_):
        self.api = api
        rng = np.random.default_rng([seed, 1])
        first = int(rng.integers(len(inp.SHAPES)))
        self.inputs = []
        for i, n in enumerate(self.SIZES[:self.WARM] if warmup_only else self.SIZES):
            x, y = inp.cloud_arrays(rng, n, inp.SHAPES[(first + i) % len(inp.SHAPES)])
            self.inputs.append((x, y, inp.moments(x, y)))
        self.cycle_len = len(self.ORDER)
        self.rng = rng

    def _request(self, i: int):
        return i, inp.cloud_matrix(self.rng, *self.inputs[i])

    def requests(self):
        while True:
            for i in self.ORDER:
                yield self._request(i)

    def warmup_requests(self):
        return [self._request(i) for i in range(self.WARM)]

    def trace_requests(self):
        return [self._request(i) for i in self.ORDER]

    def units(self, req) -> int:
        return len(self.inputs[req[0]][0])

    ops = units

    def stdout_bytes(self, out) -> int:
        return 0

    def run(self, req):
        api = self.api
        x, y, _ = self.inputs[req[0]]
        cloud = api.Cloud.from_arrays(x, y)
        rs = api.raw_sums(cloud)
        lc = api.linear_coefficients(cloud)
        collinear = api.is_collinear(cloud)
        t = api.Matrix2(*req[1])
        closed = api.induced_coefficients(t, lc)
        direct = api.linear_coefficients(api.apply_to_cloud(t, cloud))
        return rs, lc, collinear, closed, direct

    def check(self, req, out):
        rs, lc, collinear, closed, direct = out
        s = self.inputs[req[0]][2]
        if collinear != inp.is_collinear(s):
            return "collinear flag", 0.0
        m, h = inp.mh(s)
        m2, h2 = inp.mh(inp.image_moments(req[1], s))
        return judge([(rs.mn / rs.d, m, COEF_TOL), (rs.hn / rs.d, h, COEF_TOL),
                      (lc.m, m, COEF_TOL), (lc.h, h, COEF_TOL),
                      (closed.m, m2, COEF_TOL), (closed.h, h2, COEF_TOL),
                      (direct.m, m2, COEF_TOL), (direct.h, h2, COEF_TOL),
                      (closed.m, direct.m, COEF_TOL), (closed.h, direct.h, COEF_TOL)])

    def alloc_pass(self):
        """Traced-memory peak per point of one call each, at the 1.4e6 size."""
        api = self.api
        x, y, _ = self.inputs[2]
        cloud = api.Cloud.from_arrays(x, y)
        t = api.Matrix2(0.4, -0.4, -0.05, 0.9)
        out = {}
        tracemalloc.start()
        try:
            for name, call in (("coefficients.linear_coefficients",
                                lambda: api.linear_coefficients(cloud)),
                               ("transform.apply_to_cloud",
                                lambda: api.apply_to_cloud(t, cloud))):
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
                result = call()
                out[name] = (tracemalloc.get_traced_memory()[1] - base) / len(x)
                del result
        finally:
            tracemalloc.stop()
        return out


class Orbit:
    """Invariance checks on (M, H) draws: scalar validation, kernels and the
    generator layers, with no points touched.  Every request has the same
    shape; the family cycles diag, upper, lower, rot, linear."""

    name = "orbit"
    in_process = True
    whole_cycles = False
    POOL = 5000
    WARMUP = 250
    TRACED = 2000

    def __init__(self, api, seed: int, warmup_only: bool = False, **_):
        self.api = api
        rng = np.random.default_rng([seed, 2])
        count = self.WARMUP if warmup_only else self.POOL
        self.pool, self.useful_ratio = inp.invariance_pool(rng, count)
        self.families = [api.parse_family(lit) for lit, _, _ in inp.FAMILIES]

    def requests(self):
        return itertools.cycle(self.pool)

    def warmup_requests(self):
        return self.pool[:self.WARMUP]

    def trace_requests(self):
        return self.pool[:self.TRACED]

    def units(self, req) -> int:
        return 0

    def ops(self, req) -> int:
        return 1

    def stdout_bytes(self, out) -> int:
        return 0

    def run(self, d):
        api = self.api
        t = api.Matrix2(*d.t)
        lc = api.LinearCoefficients(d.m, d.h)
        after = api.induced_coefficients(t, lc)
        kb = api.kernel_for_matrix(t, d.m, d.h)
        ka = api.kernel_for_matrix(t, after.m, after.h)
        family = self.families[d.family]
        a = family.evaluate(d.phi)
        spec = family.derivative_coefficients()
        fb = api.kernel_value(spec, d.m, d.h)
        image = api.induced_coefficients(a, lc)
        fa = api.kernel_value(spec, image.m, image.h)
        residual = api.family_pde_residual(
            spec, lambda m, h: api.kernel_value(spec, m, h), d.m, d.h)
        return after, kb, ka, image, fb, fa, residual

    def check(self, d, out):
        after, kb, ka, image, fb, fa, residual = out
        return judge([(after.m, d.t_image[0], COEF_TOL), (after.h, d.t_image[1], COEF_TOL),
                      (kb, d.t_kernel, KERNEL_TOL), (ka, kb, KERNEL_TOL),
                      (image.m, d.a_image[0], COEF_TOL), (image.h, d.a_image[1], COEF_TOL),
                      (fb, d.f_kernel_before, KERNEL_TOL),
                      (fa, d.f_kernel_after, KERNEL_TOL), (fa, fb, KERNEL_TOL),
                      (residual, 0.0, PDE_TOL)])


class CliRequest:
    """One invocation: argv, the exit code it must give, a function from
    its JSON report to (got, want, tolerance) triples, its work units, and
    for ``--dump-points`` the points the dump must hold bit for bit."""

    __slots__ = ("argv", "exit", "expect", "units", "dump")

    def __init__(self, argv, exit=0, expect=None, units=0, dump=None):
        self.argv, self.exit, self.expect = argv, exit, expect
        self.units, self.dump = units, dump


class _Cli:
    """Runs ``python -m cloudinv.cli`` one child at a time, or, for the
    traced run, ``cloudinv.cli.main(argv)`` in this process."""

    in_process = False

    def __init__(self, api, seed: int, cli=None, env=None, tmpdir=None, **_):
        self.api, self.cli, self.env, self.tmpdir = api, cli, env, tmpdir

    def ops(self, req) -> int:
        return 1

    def units(self, req) -> int:
        return req.units

    def stdout_bytes(self, out) -> int:
        return len(out[1].encode())

    def warmup_requests(self):
        return []

    def run(self, req):
        if self.in_process:
            return self.main_in_process(req.argv)
        proc = subprocess.run([sys.executable, "-m", "cloudinv.cli", *req.argv],
                              capture_output=True, text=True, env=self.env,
                              timeout=120)
        return proc.returncode, proc.stdout, proc.stderr

    def main_in_process(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = self.cli.main(argv)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 2
            except Exception:
                traceback.print_exc()
                code = 1
        return code, out.getvalue(), err.getvalue()

    def check(self, req, out):
        code, stdout, stderr = out
        if "Traceback" in stderr:
            return "traceback", 0.0
        if code != req.exit:
            return f"exit {code}", 0.0
        if code != 0:
            lines = stderr.splitlines()
            if stdout or len(lines) != 1 or not lines[0].startswith("error: "):
                return "error message", 0.0
            return None, 0.0
        try:
            doc = json.loads(stdout)
            if doc.get("schema") != SCHEMA:
                return "schema", 0.0
            reason, gap = judge(req.expect(doc))
        except (ValueError, KeyError, TypeError, IndexError):
            return "report shape", 0.0
        if reason is None and req.dump is not None:
            want_x, want_y = req.dump
            got_x, got_y = inp.read_csv(req.argv[req.argv.index("--dump-points") + 1])
            if not (np.array_equal(got_x, want_x) and np.array_equal(got_y, want_y)):
                return "dumped points", gap
        return reason, gap


def _expect_transform(s, t, direct: bool):
    m, h = inp.mh(s)
    m2, h2 = inp.mh(inp.image_moments(t, s))

    def expect(doc):
        triples = [(doc["before"]["m"], m, COEF_TOL), (doc["before"]["h"], h, COEF_TOL),
                   (doc["after_closed_form"]["m"], m2, COEF_TOL),
                   (doc["after_closed_form"]["h"], h2, COEF_TOL)]
        if direct:
            triples += [(doc["after_direct"]["m"], m2, COEF_TOL),
                        (doc["after_direct"]["h"], h2, COEF_TOL)]
        return triples
    return expect


class CliCsv(_Cli):
    """``transform --csv IN --matrix M --dump-points OUT --json`` on files of
    1e4 to 1e5 lines; each invocation reads and writes the same line count.
    Per cycle of 7, the median request and the 11th slowest of the 3 to 10
    cycles a run holds both fall inside the 3.2e4 class, where CSV work
    outweighs the interpreter start."""

    name = "cli-csv"
    whole_cycles = True
    CYCLE_S = 4.0
    LINES = (10_000, 31_623, 100_000)
    # Line-count classes of one cycle, 2, 4 and 1 requests, in a fixed order.
    ORDER = (1, 0, 1, 2, 1, 0, 1)

    def __init__(self, api, seed: int, **kw):
        super().__init__(api, seed, **kw)
        rng = np.random.default_rng([seed, 3])
        self.files = []
        for n in self.LINES:
            per_shape = []
            for shape in inp.SHAPES:
                x, y = inp.cloud_arrays(rng, n, shape)
                path = os.path.join(self.tmpdir, f"in-{n}-{shape}.csv")
                inp.write_csv(path, x, y)
                per_shape.append((path, x, y, inp.moments(x, y)))
            self.files.append(per_shape)
        self.dump_path = os.path.join(self.tmpdir, "dump.csv")
        self.cycle_len = len(self.ORDER)
        self.rng = rng
        self.turn = itertools.count()

    def _request(self, i: int) -> CliRequest:
        path, x, y, s = self.files[i][next(self.turn) % len(inp.SHAPES)]
        t = inp.cloud_matrix(self.rng, x, y, s)
        a, b, c, d = t
        argv = ["transform", "--csv", path, f"--matrix={_literal(t)}",
                "--dump-points", self.dump_path, "--json"]
        return CliRequest(argv, expect=_expect_transform(s, t, direct=True),
                          units=len(x), dump=(a * x + b * y, c * x + d * y))

    def requests(self):
        while True:
            for i in self.ORDER:
                yield self._request(i)

    def setup_request(self) -> CliRequest:
        return self._request(0)

    def trace_requests(self):
        return [self._request(i) for i in self.ORDER]


# The simulate subcommand's four fixed cases: matrix and derivative spec.
SIMULATE_CASES = {
    "diagonal": ((1.0, 0.0, 0.0, 2.0), (0.0, 0.0, -1.0)),
    "upper-triangular": ((1.0, 0.7, 0.0, 1.0), (1.0, 0.0, 0.0)),
    "rotation-pi/3": ((math.cos(math.pi / 3), math.sin(math.pi / 3),
                       -math.sin(math.pi / 3), math.cos(math.pi / 3)), (1.0, -1.0, 0.0)),
    "general": ((0.4, -0.4, -0.05, 0.9), (8.0, 1.0, 10.0)),
}


def _simulate_ok(m: float, h: float) -> bool:
    for t, spec in SIMULATE_CASES.values():
        img = inp.image_moments(t, (1.0, m, h))
        if img[0] < 1e-2 or min(abs(inp.kernel_den(spec, m, h)),
                                abs(inp.kernel_den(spec, *inp.mh(img)))) < 1e-3:
            return False
    return True


class CliSmall(_Cli):
    """Invocations with no point input.  Per cycle of 24: 12 succeed on
    ``--coeffs`` (simulate, invariant --matrix, invariant --family --phi,
    transform --matrix), 6 are documented error exits on ``--coeffs``, and
    6 use ``--gen``, so three in four use --coeffs.  Two of the ``--gen``
    requests have n of 200 to 2000, like the rest mostly interpreter start
    and imports.  Four transform a generated cloud of 1e6 points and take
    about twice as long, so the 11th slowest request of the 3 to 10 cycles
    a run holds is always one of these: the tail reads the generator and
    moment path, not the upper edge of the start-up times, which move with
    every burst of load on a shared host."""

    name = "cli-small"
    whole_cycles = True
    CYCLE_S = 6.5
    ORDER = ("simulate", "gen-coeffs", "inv-matrix", "exit2-matrix", "inv-family",
             "transform", "gen-large", "simulate", "exit3-image", "inv-matrix",
             "inv-family", "gen-large", "transform", "exit4-target", "simulate",
             "gen-transform", "inv-matrix", "exit4-generator", "gen-large", "inv-family",
             "transform", "exit2-family", "gen-large", "exit2-coeffs")
    GEN_KINDS = ("uniform-box", "line-with-noise", "ellipse", "two-segment")
    GEN_SIZES = (200, 500, 1000, 2000)
    LARGE_N = 2_000_000
    TRACE_CYCLES = 4
    # The two inputs of ROADMAP item 4 that exit 1 with a traceback today;
    # they run apart from the mix so that no request of the workload fails.
    KNOWN_CRASHES = ((["invariant", "--coeffs", "1.5,3.5", "--matrix", "2,0;0,2"], 4),
                     (["transform", "--coeffs", "1.5,3.5", "--matrix",
                       "[[null,1],[2,3]]"], 2))

    def __init__(self, api, seed: int, **kw):
        super().__init__(api, seed, **kw)
        self.rng = np.random.default_rng([seed, 4])
        self.cycle_len = len(self.ORDER)
        self.turn = itertools.count()
        self.large_turn = itertools.count()

    def _draw(self, family: int):
        while True:
            d = inp.invariance_draw(self.rng, family)
            if d is not None:
                return d

    def _request(self, kind: str) -> CliRequest:
        # The family follows the request's position, not the number of draws
        # rejected, so the traced call counts do not depend on the seed.
        family = next(self.turn) % len(inp.FAMILIES)
        d = self._draw(family)
        coeffs = f"{d.m!r},{d.h!r}"
        if kind == "simulate":
            while not _simulate_ok(d.m, d.h):
                d = self._draw(family)
            return CliRequest(["simulate", f"--coeffs={d.m!r},{d.h!r}", "--json"],
                              expect=_expect_simulate(d.m, d.h))
        if kind == "inv-matrix":
            return CliRequest(["invariant", f"--coeffs={coeffs}",
                               f"--matrix={_literal(d.t)}", "--json"],
                              expect=_expect_inv_matrix(d))
        if kind == "inv-family":
            literal = inp.FAMILIES[d.family][0]
            return CliRequest(["invariant", f"--coeffs={coeffs}", "--family", literal,
                               f"--phi={d.phi!r}", "--json"],
                              expect=_expect_inv_family(d))
        if kind == "transform":
            return CliRequest(["transform", f"--coeffs={coeffs}",
                               f"--matrix={_literal(d.t)}", "--json"],
                              expect=_expect_transform((1.0, d.m, d.h), d.t, direct=False))
        if kind.startswith("gen-"):
            return self._gen_request(kind)
        return CliRequest(*{
            "exit2-matrix": (["transform", f"--coeffs={coeffs}", "--matrix", "1,2;3"], 2),
            "exit3-image": (["transform", "--coeffs", "1.0,1.0", "--matrix", "1,-1;0,1"], 3),
            "exit4-target": (["invariant", f"--coeffs={coeffs}", "--matrix", "1,0;0,1"], 4),
            "exit4-generator": (["invariant", f"--coeffs={coeffs}", "--family",
                                 "linear:1,0;0,1|1,0;0,1"], 4),
            "exit2-family": (["invariant", f"--coeffs={coeffs}", "--family",
                              "linear:2,0;0,2|0,0;0,0"], 2),
            "exit2-coeffs": (["simulate", f"--coeffs={d.m!r}"], 2),
        }[kind])

    def _gen_request(self, kind: str) -> CliRequest:
        if kind == "gen-large":
            # Each kind once per cycle, so the tail's mix is the same for every seed.
            gen = self.GEN_KINDS[next(self.large_turn) % len(self.GEN_KINDS)]
            n = self.LARGE_N
        else:
            gen = self.GEN_KINDS[int(self.rng.integers(len(self.GEN_KINDS)))]
            n = self.GEN_SIZES[int(self.rng.integers(len(self.GEN_SIZES)))]
        seed = int(self.rng.integers(2 ** 32))
        # The program generates this input; its moments come from the
        # library's generator, taken through the benchmark's own reduction.
        cloud = self.api.generate_cloud(self.api.CloudGenSpec(gen, n, 0.05, seed))
        xs, ys = np.asarray(cloud.xs), np.asarray(cloud.ys)
        s = inp.moments(xs, ys)
        source = ["--gen", gen, "--n", str(n), "--noise", "0.05", "--seed", str(seed)]
        if kind == "gen-coeffs":
            m, h = inp.mh(s)
            return CliRequest(["coeffs", *source, "--json"], units=n,
                              expect=lambda doc: [(doc["coefficients"]["m"], m, COEF_TOL),
                                                  (doc["coefficients"]["h"], h, COEF_TOL)])
        t = inp.cloud_matrix(self.rng, xs, ys, s)
        return CliRequest(["transform", *source, f"--matrix={_literal(t)}", "--json"],
                          units=n, expect=_expect_transform(s, t, direct=True))

    def requests(self):
        while True:
            for kind in self.ORDER:
                yield self._request(kind)

    def setup_request(self) -> CliRequest:
        return self._request("simulate")

    def trace_requests(self):
        return [self._request(kind) for kind in self.ORDER * self.TRACE_CYCLES]

    def known_crashes_failing(self) -> int:
        """How many ROADMAP item 4 inputs still miss their documented exit."""
        failing = 0
        for argv, code in self.KNOWN_CRASHES:
            if self.check(CliRequest(argv, exit=code), self.run(CliRequest(argv)))[0]:
                failing += 1
        return failing


def _expect_simulate(m: float, h: float):
    def expect(doc):
        triples = [(doc["before"]["m"], m, 0.0), (doc["before"]["h"], h, 0.0)]
        if len(doc["cases"]) != len(SIMULATE_CASES):
            raise ValueError("simulate must report every standard case")
        for case in doc["cases"]:
            t, spec = SIMULATE_CASES[case["name"]]
            m2, h2 = inp.mh(inp.image_moments(t, (1.0, m, h)))
            kb = inp.kernel(spec, m, h)
            triples += [(case["after"]["m"], m2, COEF_TOL), (case["after"]["h"], h2, COEF_TOL),
                        (case["kernel_before"], kb, KERNEL_TOL),
                        (case["kernel_after"], kb, KERNEL_TOL)]
        return triples
    return expect


def _expect_inv_matrix(d):
    def expect(doc):
        return [(doc["after"]["m"], d.t_image[0], COEF_TOL),
                (doc["after"]["h"], d.t_image[1], COEF_TOL),
                (doc["kernel_before"], d.t_kernel, KERNEL_TOL),
                (doc["kernel_after"], d.t_kernel, KERNEL_TOL)]
    return expect


def _expect_inv_family(d):
    def expect(doc):
        (ev,) = doc["evaluations"]
        spec = doc["spec"]
        return [(spec["bprime"], d.f_spec[0], 0.0), (spec["gprime"], d.f_spec[1], 0.0),
                (spec["delta"], d.f_spec[2], 0.0),
                (ev["after"]["m"], d.a_image[0], COEF_TOL),
                (ev["after"]["h"], d.a_image[1], COEF_TOL),
                (ev["kernel_before"], d.f_kernel_before, KERNEL_TOL),
                (ev["kernel_after"], d.f_kernel_after, KERNEL_TOL)]
    return expect


WORKLOADS = {w.name: w for w in (Points, Orbit, CliCsv, CliSmall)}
