"""Layered benchmark for cloudinv.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (points, orbit, cli-csv, cli-small) against the package in
``src/`` of the checkout this file sits in, the way the tier-1 tests do
(``PYTHONPATH=src``), and the CLI as ``python -m cloudinv.cli``.  Every
request is checked against values the benchmark computes itself.  Prints a
table of metrics with units, then, as the last line, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: with ``--trace 0`` the
end-to-end metrics of BENCHMARK.json, with ``--trace 1`` its per-layer
metrics from a separate traced run.  A detailed report and the spans go to
``.bench_out/`` in the checkout.

``orbit`` and ``cli-csv`` are not among the workloads of BENCHMARK.json.
On a shared 2-vCPU VM, speed changes by up to twice for minutes at a time; a
set of ten runs that straddles such a change cannot agree within the
bounds.  Each workload kept is one more set exposed to that, so only the
two that together reach every module stay: ``points`` and ``cli-small``.
``orbit``'s requests are tens of microseconds of pure Python and move most
with the host; ``cli-csv`` spread most of the CLI workloads within one
host state.  Both still run, traced and untraced: ``orbit``'s traced run
is the only one that calls ``embedding.kernel_for_matrix`` and
``generators.family_pde_residual``, and ``cli-csv``'s the only one that
calls ``read_cloud_csv`` and ``write_cloud_csv``.

Exits 2 without a result when the checkout holds no ``src/cloudinv``.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from array import array
from pathlib import Path

import probes
from stats import Tally, tail
from tracing import Tracer, summarize, traced

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# Runs of the set-up whose median is setup_s.
SETUP_RUNS = 9
# Time windows of a run whose median throughput is ops_per_s; a workload
# with a fixed mix uses its cycles instead.
WINDOWS = 10
# A workload with a fixed mix runs whole cycles, as many as fit in
# ``--seconds`` at its nominal cycle time, within these limits.  The count
# follows from the arguments alone, never from measured speed, so every run
# of a workload holds the same requests and its median and tail fall in the
# size classes its docstring names, however fast the host or program is.
MIN_CYCLES, MAX_CYCLES = 3, 10
# Deepest percentile reported as the tail.  Past it, a request of tens of
# microseconds on a shared two-core host times the host's scheduling rather
# than the program, and no two runs agree.
TAIL_CAP = 99.0


def child_env() -> dict:
    """Environment for this process and every child: the package from src/,
    BLAS threads capped at the CPUs this process may use, no seed override."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    ncpu = str(len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env.setdefault(var, ncpu)
    env.pop("CLOUD_INV_SEED", None)
    return env


def _import_package():
    """Import cloudinv from src/; fail if another copy would be used."""
    sys.path.insert(0, str(SRC))
    import cloudinv
    import cloudinv.cli
    if Path(cloudinv.__file__).resolve().parent != SRC / "cloudinv":
        raise SystemExit(f"error: cloudinv imported from {cloudinv.__file__}, not {SRC}")
    return cloudinv


def setup_probe(workload: str, seed: int) -> None:
    """One in-process set-up, timed in this fresh process: the package
    import plus the warm-up requests; input generation is timed apart."""
    t0 = time.perf_counter()
    api = _import_package()
    t1 = time.perf_counter()
    from workloads import WORKLOADS
    w = WORKLOADS[workload](api, seed, warmup_only=True)
    t2 = time.perf_counter()
    for req in w.warmup_requests():
        w.run(req)
    t3 = time.perf_counter()
    print(json.dumps({"import_s": t1 - t0, "inputgen_s": t2 - t1, "warmup_s": t3 - t2}))


def timed(w, req, tally) -> tuple[int, int]:
    """One request: its latency in ns and the ops it completed (0 if failed)."""
    t0 = time.perf_counter_ns()
    try:
        out = w.run(req)
    except Exception as exc:
        elapsed = time.perf_counter_ns() - t0
        tally.record(f"crash: {type(exc).__name__}")
        return elapsed, 0
    elapsed = time.perf_counter_ns() - t0
    reason, gap = w.check(req, out)
    tally.record(reason, gap)
    return elapsed, (w.ops(req) if reason is None else 0)


def cycle_count(w, seconds: float) -> int:
    """Whole cycles a fixed-mix workload runs for ``seconds``."""
    return min(MAX_CYCLES, max(MIN_CYCLES, round(seconds / w.CYCLE_S)))


def measure(w, requests, seconds: float, tally):
    """Closed loop, one client: request latencies (ns) and, per window, the
    ops completed and the time spent in requests.

    A workload with a fixed mix runs ``cycle_count`` whole cycles, one window
    each.  Any other runs ``WINDOWS`` windows of ``seconds / WINDOWS`` of wall
    time.
    """
    samples, windows = array("q"), []
    start = time.perf_counter()
    total = cycle_count(w, seconds) * w.cycle_len if w.whole_cycles else None
    ops = busy = 0
    for k, req in enumerate(requests):
        elapsed, done = timed(w, req, tally)
        samples.append(elapsed)
        ops += done
        busy += elapsed
        if w.whole_cycles:
            closes = (k + 1) % w.cycle_len == 0
        else:
            closes = time.perf_counter() >= start + (len(windows) + 1) * seconds / WINDOWS
        if closes:
            windows.append((ops, busy))
            ops = busy = 0
            if len(samples) == total or (total is None and len(windows) == WINDOWS):
                break
    return samples, windows


def end_to_end(setup_s, samples, windows, tally, peak_rss_bytes) -> tuple[dict, dict]:
    """The end-to-end metrics: throughput is the median over windows of ops
    per second spent in requests, so that a burst of load from elsewhere on
    the host moves it less than it moves a mean."""
    tail_ns, pct, n = tail(samples, cap=TAIL_CAP)
    metrics = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (statistics.median(ops / (busy / 1e9) for ops, busy in windows), "op/s"),
        "latency_p50_ms": (statistics.median(samples) / 1e6, "ms"),
        "latency_tail_ms": (tail_ns / 1e6, "ms"),
        "peak_rss_mb": (peak_rss_bytes / 1e6, "MB"),
        "error_rate": (tally.error_rate, "fraction"),
    }
    return metrics, {"tail_percentile": pct, "samples": n, "windows": len(windows)}


def traced_run(w, api, requests, tally):
    """Replay a fixed request list with every package call wrapped in a span;
    returns the tracer, the time spent in requests and the mean bytes each
    wrote to stdout."""
    tracer = Tracer()
    busy_ns, stdout_bytes = 0, 0
    with traced(api, tracer):
        for i, req in enumerate(requests):
            t0 = time.perf_counter_ns()
            try:
                out = tracer.run_request(i, w.run, req)
            except Exception as exc:
                busy_ns += time.perf_counter_ns() - t0
                tally.record(f"crash: {type(exc).__name__}")
                continue
            busy_ns += time.perf_counter_ns() - t0
            tally.record(*w.check(req, out))
            stdout_bytes += w.stdout_bytes(out)
    return tracer, busy_ns / 1e9, stdout_bytes / len(requests)


WRAPPED = ("coefficients.Cloud", "coefficients.from_arrays", "coefficients.raw_sums",
           "coefficients.linear_coefficients", "coefficients.is_collinear",
           "coefficients.read_cloud_csv", "coefficients.write_cloud_csv",
           "coefficients.LinearCoefficients", "transform.Matrix2", "transform.parse_matrix",
           "transform.apply_to_cloud", "transform.induced_coefficients", "families.evaluate",
           "families.identity_parameter", "families.derivative_coefficients",
           "families.kernel_value", "families.parse_family", "embedding.generator_for_matrix",
           "embedding.kernel_for_matrix", "generators.FamilyGenerator",
           "generators.family_pde_residual", "cloudgen.generate_cloud", "cli.main")
ERRORS = ("DegenerateCloud", "NonInvertibleMatrix", "DegenerateImage", "NoIdentityParameter",
          "KernelSingular", "DegenerateGenerator", "DegenerateTarget", "ValueError")


def per_layer(rows, errors, n_requests, kernel_evals, extra) -> dict:
    """The per-layer metrics of BENCHMARK.json from a traced run's summary.

    A function the workload never calls reports 0 calls and 0 per unit."""
    empty = {"calls": 0, "busy_ns": 0, "self_ns": 0, "units": 0}

    def row(name):
        return rows.get(name, empty)

    def per_call(name, scale):
        r = row(name)
        return r["busy_ns"] / scale / r["calls"] if r["calls"] else 0.0

    def per_unit(name, scale):
        r = row(name)
        return r["busy_ns"] / scale / r["units"] if r["units"] else 0.0

    def per_request(name):
        return row(name)["calls"] / n_requests

    out = {}
    for name in WRAPPED:
        r = row(name)
        out[f"{name}.calls"] = (r["calls"], "count")
        out[f"{name}.busy_s"] = (r["busy_ns"] / 1e9, "s")
        out[f"{name}.self_s"] = (r["self_ns"] / 1e9, "s")
    for name in ("from_arrays", "raw_sums", "linear_coefficients", "is_collinear"):
        out[f"coefficients.{name}.ns_per_point"] = (per_unit(f"coefficients.{name}", 1), "ns/point")
    out["transform.apply_to_cloud.ns_per_point"] = (per_unit("transform.apply_to_cloud", 1), "ns/point")
    out["coefficients.moment_passes_per_request"] = (per_request("coefficients.raw_sums"), "count")
    for name in ("read_cloud_csv", "write_cloud_csv"):
        out[f"coefficients.{name}.us_per_line"] = (per_unit(f"coefficients.{name}", 1e3), "us/line")
    for name in ("transform.Matrix2", "transform.induced_coefficients", "transform.parse_matrix",
                 "families.evaluate", "families.derivative_coefficients", "families.kernel_value",
                 "families.parse_family", "embedding.kernel_for_matrix",
                 "generators.family_pde_residual"):
        out[f"{name}.us_per_call"] = (per_call(name, 1e3), "us/call")
    out["transform.Matrix2.constructions_per_request"] = (per_request("transform.Matrix2"), "count")
    out["families.identity_parameter.calls_per_request"] = (
        per_request("families.identity_parameter"), "count")
    out["embedding.generator_for_matrix.calls_per_request"] = (
        per_request("embedding.generator_for_matrix"), "count")
    residuals = row("generators.family_pde_residual")["calls"]
    out["generators.kernel_evals_per_residual"] = (
        kernel_evals / residuals if residuals else 0.0, "count")
    out["cloudgen.generate_cloud.ns_per_point"] = (per_unit("cloudgen.generate_cloud", 1), "ns/point")
    for cls in ERRORS:
        out[f"errors.rejected_share.{cls}"] = (errors.get(cls, 0) / n_requests, "fraction")
    main = row("cli.main")
    out["cli.main.self_ms"] = (main["self_ns"] / 1e6 / main["calls"] if main["calls"] else 0.0, "ms")
    request = row("request")
    out["trace.unattributed_frac"] = (request["self_ns"] / request["busy_ns"], "fraction")
    out.update(extra)
    return out


def kernel_evals_in_residuals(spans) -> int:
    """kernel_value spans whose parent is a family_pde_residual span."""
    return sum(1 for name, _s, _e, parent, _r, _x in spans
               if name == "families.kernel_value" and parent >= 0
               and spans[parent][0] == "generators.family_pde_residual")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("points", "orbit", "cli-csv", "cli-small"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "cloudinv" / "__init__.py").is_file():
        print(f"error: no package at {SRC / 'cloudinv'}; run from a full checkout",
              file=sys.stderr)
        return 2
    env = child_env()
    os.environ.update({k: v for k, v in env.items() if k.endswith("_NUM_THREADS")})
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0
    # On SIGTERM, unwind: the running child is killed and the inputs removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    OUT.mkdir(exist_ok=True)
    tmpdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        return _run(args, env, tmpdir)
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)


def _run(args, env, tmpdir) -> int:
    setups = []
    in_process = args.workload in ("points", "orbit")
    if in_process and args.trace == 0:
        for _ in range(SETUP_RUNS):
            proc = subprocess.run([sys.executable, __file__, "--setup-probe",
                                   "--workload", args.workload, "--seed", str(args.seed)],
                                  env=env, check=True, capture_output=True, text=True,
                                  timeout=170)
            probe = json.loads(proc.stdout.splitlines()[-1])
            setups.append(probe["import_s"] + probe["warmup_s"])
    api = _import_package()
    from workloads import WORKLOADS
    t0 = time.perf_counter()
    w = WORKLOADS[args.workload](api, args.seed, cli=api.cli, env=env, tmpdir=tmpdir)
    inputgen_s = time.perf_counter() - t0
    tally = Tally()
    requests = w.requests()
    if in_process:
        for req in w.warmup_requests():
            w.check(req, w.run(req))
    elif args.trace == 0:
        # The first invocation, untimed by the loop, is the CLI's set-up; it
        # is of one kind and size whatever the seed.
        first = w.setup_request()
        for _ in range(SETUP_RUNS):
            t = time.perf_counter()
            out = w.run(first)
            setups.append(time.perf_counter() - t)
            tally.record(*w.check(first, out))
    setup_s = statistics.median(setups) if setups else 0.0
    info = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "setup_runs_s": setups, "inputgen_s": inputgen_s}
    if args.workload == "cli-small":
        info["known_crash_inputs_failing"] = w.known_crashes_failing()

    if args.trace == 0:
        samples, windows = measure(w, requests, args.seconds, tally)
        who = resource.RUSAGE_SELF if in_process else resource.RUSAGE_CHILDREN
        peak = resource.getrusage(who).ru_maxrss * 1024
        metrics, detail = end_to_end(setup_s, samples, windows, tally, peak)
        info.update(detail)
        # Probed after the peak RSS is read; the copy probe's child is large.
        info["machine"] = probes.machine(env)
    else:
        info["machine"] = probes.machine(env)
        metrics = _per_layer_run(args, api, w, env, tally, info)
    info["failures"] = dict(tally.reasons)
    info["max_rel_gap"] = tally.max_gap
    info["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    with open(OUT / f"{args.workload}-trace{args.trace}.json", "w", encoding="utf-8") as fh:
        json.dump(info, fh, indent=1, sort_keys=True)
    _print(info, metrics, tally)
    return 0


def _per_layer_run(args, api, w, env, tally, info) -> dict:
    """Untraced, then traced replays of the fixed request list, in process
    for every workload (the CLI through ``cloudinv.cli.main(argv)``)."""
    w.in_process = True
    fixed = w.trace_requests()
    for req in fixed:  # one untimed replay, so neither timed pass runs cold
        timed(w, req, tally)
    busy_ns, ops = 0, 0
    deadline = time.perf_counter() + args.seconds / 2
    while not busy_ns or time.perf_counter() < deadline:
        for req in fixed:
            elapsed, done = timed(w, req, tally)
            busy_ns += elapsed
            ops += done
    untraced_ops_s = ops / (busy_ns / 1e9)
    tracer, traced_busy, stdout_bytes = traced_run(w, api, fixed, tally)
    traced_ops_s = sum(w.ops(r) for r in fixed) / traced_busy
    sizes = {i: w.units(r) for i, r in enumerate(fixed)}
    rows, errors = summarize(tracer.spans, sizes)
    tracer.write(OUT / f"{args.workload}-spans.jsonl")
    info["trace_rows"] = rows
    info["trace_errors"] = errors
    numpy_ms, own_ms = probes.import_split_ms(env)
    alloc = w.alloc_pass() if hasattr(w, "alloc_pass") else {}
    oracle = args.workload.split("-")[0]
    machine = info["machine"]
    points_gb_per_s = 16 * untraced_ops_s / 1e9 if args.workload == "points" else 0.0
    extra = {
        "coefficients.linear_coefficients.alloc_bytes_per_point": (
            alloc.get("coefficients.linear_coefficients", 0.0), "B/point"),
        "transform.apply_to_cloud.alloc_bytes_per_point": (
            alloc.get("transform.apply_to_cloud", 0.0), "B/point"),
        # 16 bytes of input per point; computed, not measured.
        "coefficients.input_gb_per_s": (points_gb_per_s, "GB/s"),
        "coefficients.bandwidth_frac": (points_gb_per_s / machine["copy_gb_per_s"], "fraction"),
        "orbit.useful_ratio": (getattr(w, "useful_ratio", 1.0), "fraction"),
        "cli.import_numpy_ms": (numpy_ms, "ms"),
        "cli.import_cloudinv_ms": (own_ms, "ms"),
        "cli.stdout_bytes": (stdout_bytes, "B"),
        "cli.crash_inputs_failing": (info.get("known_crash_inputs_failing", 0), "count"),
        "cli.interpreter_ms": (machine["interpreter_ms"], "ms"),
        **{f"oracle.{name}.max_rel_gap": (tally.max_gap if name == oracle else 0.0, "fraction")
           for name in ("points", "orbit", "cli")},
        "trace.overhead_frac": ((untraced_ops_s - traced_ops_s) / untraced_ops_s, "fraction"),
        "machine.copy_gb_per_s": (machine["copy_gb_per_s"], "GB/s"),
        "machine.nproc": (machine["nproc"], "count"),
        "machine.blas_threads": (machine["blas_threads"], "count"),
        "machine.l2_bytes": (machine["l2_bytes"], "B"),
        "machine.l3_bytes": (machine["l3_bytes"], "B"),
        "bench.inputgen_s": (info["inputgen_s"], "s"),
    }
    return per_layer(rows, errors, len(fixed), kernel_evals_in_residuals(tracer.spans), extra)


def _print(info, metrics, tally) -> None:
    print(f"workload {info['workload']}  seed {info['seed']}  seconds {info['seconds']}"
          f"  trace {info['trace']}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:58s} {value:>16.6g} {unit}")
    if "tail_percentile" in info:
        print(f"  latency_tail_ms is p{info['tail_percentile']:.3f} of {info['samples']} samples;"
              f" ops_per_s is the median of {info['windows']} windows")
    m = info["machine"]
    print(f"  machine: nproc {m['nproc']}, L2 {m['l2_bytes']} B, L3 {m['l3_bytes']} B, "
          f"blas threads {m['blas_threads']}, copy {m['copy_gb_per_s']:.2f} GB/s, "
          f"python {m['python']}, numpy {m['numpy']}, interpreter {m['interpreter_ms']:.1f} ms")
    if "known_crash_inputs_failing" in info:
        print(f"  ROADMAP item 4 crash inputs still failing: {info['known_crash_inputs_failing']}")
    if tally.failed:
        print(f"  failures: {dict(tally.reasons)}")
    gated = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in gated["end_to_end" if info["trace"] == 0 else "per_layer"]]
    result = {"correct": tally.failed == 0, "attempted": tally.attempted, "failed": tally.failed,
              "metrics": {n: {"value": metrics[n][0], "unit": metrics[n][1]} for n in names}}
    print(json.dumps(result))


if __name__ == "__main__":
    sys.exit(main())
