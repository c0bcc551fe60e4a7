"""Tests of the benchmark's own arithmetic: the tail rule, self time and
failure counting, plus the tracer's patching of the package.

    python3 -m pytest -q bench/tests
"""
from __future__ import annotations

import statistics
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import cloudinv  # noqa: E402
import cloudinv.cli  # noqa: E402
from stats import Tally, quartiles, spread, tail  # noqa: E402
from tracing import REQUEST, Tracer, summarize, traced  # noqa: E402
from run import MAX_CYCLES, MIN_CYCLES, TAIL_CAP, cycle_count  # noqa: E402
from workloads import CliCsv, CliRequest, CliSmall, Points, judge  # noqa: E402


class TestTail:
    def test_eleventh_largest_of_a_hundred(self):
        value, pct, n = tail(list(range(1, 101)))
        assert (value, pct, n) == (90, 90.0, 100)

    def test_exactly_ten_beyond(self):
        samples = [5.0] * 3 + [1.0, 2.0, 3.0] * 10
        value, _, _ = tail(samples)
        assert sum(1 for s in samples if s > value) <= 10
        assert sorted(samples, reverse=True)[10] == value

    def test_smallest_sample_count(self):
        assert tail(list(range(11))) == (0, 100.0 / 11, 11)

    def test_cap_stops_the_percentile_climbing(self):
        samples = list(range(1, 100_001))
        assert tail(samples) == (99_990, 99.99, 100_000)
        assert tail(samples, cap=99.9) == (99_900, 99.9, 100_000)
        assert tail(list(range(1, 101)), cap=99.9) == (90, 90.0, 100)

    def test_too_few_samples(self):
        with pytest.raises(ValueError):
            tail(list(range(10)))


class TestCycles:
    """A fixed-mix run holds a cycle count set by ``--seconds`` alone; at
    every count allowed, its median and tail fall in the same size class,
    the median in the middle half of that class.  Request time grows with
    size, so sizes stand in for times here."""

    @pytest.mark.parametrize("workload, sizes", [(Points, Points.SIZES),
                                                 (CliCsv, CliCsv.LINES)])
    def test_classes_do_not_depend_on_cycle_count(self, workload, sizes):
        def classes(cycles):
            run = [sizes[i] for i in workload.ORDER * cycles]
            return statistics.median_low(run), tail(run, cap=TAIL_CAP)[0]
        for cycles in range(MIN_CYCLES, MAX_CYCLES + 1):
            assert classes(cycles) == classes(MIN_CYCLES)
        median, slow = classes(MIN_CYCLES)
        assert median <= slow < max(sizes)

    @pytest.mark.parametrize("workload", [Points, CliCsv])
    def test_median_sits_mid_class(self, workload):
        for cycles in range(MIN_CYCLES, MAX_CYCLES + 1):
            run = sorted(workload.ORDER * cycles)
            median = run[len(run) // 2]
            first, last = run.index(median), len(run) - 1 - run[::-1].index(median)
            assert 0.25 <= (len(run) // 2 - first) / (last - first) <= 0.75

    def test_cli_small_tail_is_a_large_generated_cloud(self):
        for cycles in range(MIN_CYCLES, MAX_CYCLES + 1):
            run = sorted(CliSmall.ORDER * cycles, key=lambda kind: kind == "gen-large")
            assert run[-11] == "gen-large"
            assert run[len(run) // 2] != "gen-large"

    def test_count_follows_seconds_within_limits(self):
        assert cycle_count(Points, 20) == round(20 / Points.CYCLE_S)
        assert cycle_count(CliSmall, 0.1) == MIN_CYCLES
        assert cycle_count(CliCsv, 3600) == MAX_CYCLES


def test_quartiles_and_spread_follow_statistics_quantiles():
    values = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]
    q1, q2, q3 = quartiles(values)
    assert (q1, q2, q3) == (2.75, 5.5, 8.25)
    assert spread(values) == pytest.approx(1.0)


def _span(name, start, end, parent, request=0, exc=None):
    return (name, start, end, parent, request, exc)


class TestSelfTime:
    SPANS = [
        _span(REQUEST, 0, 100, -1),
        _span("a.f", 10, 50, 0),
        _span("b.g", 20, 30, 1),
        _span("b.g", 60, 70, 0, exc="ValueError"),
    ]

    def test_self_is_busy_minus_direct_children(self):
        rows, _ = summarize(self.SPANS)
        assert rows[REQUEST]["self_ns"] == 100 - 40 - 10
        assert rows["a.f"] == {"calls": 1, "busy_ns": 40, "self_ns": 30, "units": 0}
        assert rows["b.g"]["calls"] == 2
        assert rows["b.g"]["self_ns"] == rows["b.g"]["busy_ns"] == 20

    def test_self_times_account_for_the_whole_request(self):
        rows, _ = summarize(self.SPANS)
        assert sum(r["self_ns"] for r in rows.values()) == rows[REQUEST]["busy_ns"]

    def test_units_and_errors_are_per_request(self):
        spans = self.SPANS + [_span(REQUEST, 100, 200, -1, request=1),
                              _span("b.g", 110, 120, 4, request=1, exc="ValueError")]
        rows, errors = summarize(spans, sizes={0: 7, 1: 3})
        assert rows["b.g"]["units"] == 7 + 7 + 3
        assert errors == {"ValueError": 2}


class TestTally:
    def test_counts_and_rate(self):
        tally = Tally()
        tally.record(None, 1e-12)
        tally.record("oracle", 5.0)
        tally.record(None, 3e-12)
        assert (tally.attempted, tally.failed) == (3, 1)
        assert tally.error_rate == pytest.approx(1 / 3)
        assert tally.reasons == {"oracle": 1}
        assert tally.max_gap == 3e-12

    def test_empty(self):
        assert Tally().error_rate == 0.0

    def test_judge_fails_outside_tolerance(self):
        assert judge([(1.0, 1.0 + 1e-12, 1e-9)]) == (None, pytest.approx(1e-12))
        assert judge([(1.0, 1.0 + 1e-12, 1e-9), (2.0, 3.0, 1e-9)])[0] == "oracle"
        assert judge([(float("nan"), 1.0, 1e-9)])[0] == "oracle"


class TestCliFailures:
    cli = CliSmall.__new__(CliSmall)

    def test_traceback_fails(self):
        req = CliRequest(["x"], exit=2)
        out = (1, "", "Traceback (most recent call last):\n  ...\nTypeError: x\n")
        assert self.cli.check(req, out)[0] == "traceback"

    def test_undocumented_exit_fails(self):
        assert self.cli.check(CliRequest(["x"], exit=4), (1, "", "error: x\n"))[0] == "exit 1"

    def test_documented_error_exit_passes(self):
        assert self.cli.check(CliRequest(["x"], exit=3), (3, "", "error: image\n")) == (None, 0.0)

    def test_error_must_be_one_line(self):
        out = (2, "", "error: a\nmore\n")
        assert self.cli.check(CliRequest(["x"], exit=2), out)[0] == "error message"

    def test_schema_checked(self):
        req = CliRequest(["x"], expect=lambda doc: [])
        assert self.cli.check(req, (0, '{"schema": "other"}', ""))[0] == "schema"
        assert self.cli.check(req, (0, "not json", ""))[0] == "report shape"

    def test_crash_in_process_is_a_traceback(self):
        cli = CliSmall.__new__(CliSmall)
        cli.cli = cloudinv.cli
        code, _, err = cli.main_in_process(["invariant", "--coeffs", "1.5,3.5",
                                            "--matrix", "2,0;0,2"])
        assert code == 1 and "Traceback" in err


class TestTracer:
    def test_patches_every_binding_and_restores(self):
        original = cloudinv.linear_coefficients
        cli_reader = cloudinv.cli.read_cloud_csv
        tracer = Tracer()
        cloud = cloudinv.Cloud.from_arrays([0.0, 1.0, 2.0], [0.0, 1.0, 3.0])
        with traced(cloudinv, tracer):
            assert cloudinv.cli.read_cloud_csv is not cli_reader
            tracer.run_request(0, cloudinv.linear_coefficients, cloud)
        assert cloudinv.linear_coefficients is original
        assert cloudinv.cli.read_cloud_csv is cli_reader
        names = [s[0] for s in tracer.spans]
        assert names[:3] == [REQUEST, "coefficients.linear_coefficients",
                             "coefficients.raw_sums"]
        assert tracer.spans[2][3] == 1
        assert "coefficients.LinearCoefficients" in names

    def test_parser_build_counts_as_cli_main_self_time(self):
        tracer = Tracer()
        builder = cloudinv.cli.build_parser
        with traced(cloudinv, tracer):
            assert cloudinv.cli.build_parser is builder
            with pytest.raises(SystemExit):
                tracer.run_request(0, cloudinv.cli.main, ["--help"])
        rows, _ = summarize(tracer.spans)
        assert rows["cli.main"]["calls"] == 1
        assert rows["cli.main"]["self_ns"] == rows["cli.main"]["busy_ns"]

    def test_recursion_is_one_call(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text("x,y\n0,0\n1,1\n2,3\n")
        tracer = Tracer()
        with traced(cloudinv, tracer):
            cloudinv.read_cloud_csv(str(path))
        rows, _ = summarize(tracer.spans)
        assert rows["coefficients.read_cloud_csv"]["calls"] == 1

    def test_exception_recorded_and_propagated(self):
        tracer = Tracer()
        with traced(cloudinv, tracer), pytest.raises(ValueError):
            tracer.run_request(0, cloudinv.parse_matrix, "1,2;3")
        _, errors = summarize(tracer.spans)
        assert errors == {"ValueError": 1}
