"""Steadiness mode: repeat workloads over seeds and judge the spread.

    python3 bench/steady.py [--workload NAME ...] [--save FILE] [--against FILE]

Runs ``bench/run.py --trace 0`` once for each of the seeds 1 to 10 on each
workload, one run at a time, and prints for every end-to-end metric of BENCHMARK.json its median,
quartiles and interquartile spread as a share of the median, against the
metric's bound.  A spread above a third of the bound is marked ``WIDE``.
``--save`` writes the values; ``--against`` compares these medians with a
saved set and marks a median worse by more than the bound ``WORSE``.  Exits
1 if any run fails, is incorrect, or any mark is set.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from stats import quartiles, spread  # noqa: E402

SEEDS = range(1, 11)


def collect(workload: str, seeds, seconds: int) -> dict[str, list[float]]:
    values: dict[str, list[float]] = {}
    for seed in seeds:
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                              capture_output=True, text=True, timeout=900)
        if proc.returncode != 0:
            raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
        result = json.loads(proc.stdout.splitlines()[-1])
        if not result["correct"] or result["failed"]:
            raise SystemExit(f"{workload} seed {seed} incorrect: {result}")
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"  {workload} seed {seed} ({time.perf_counter() - start:.0f} s): " + ", ".join(
            f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)
    return values


def worse_by(new: float, old: float, better: str) -> float:
    """How much worse ``new`` is than ``old``, as a share of ``old``."""
    change = (new - old) / abs(old)
    return change if better == "lower" else -change


def main(argv=None) -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--save")
    parser.add_argument("--against")
    args = parser.parse_args(argv)
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    saved = json.loads(Path(args.against).read_text()) if args.against else {}
    results, marked = {}, False
    for workload in workloads:
        values = collect(workload, SEEDS, spec["run_seconds"])
        results[workload] = values
        print(f"{workload}: {len(SEEDS)} runs, seeds {SEEDS.start}..{SEEDS.stop - 1}")
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            q1, med, q3 = quartiles(values[name])
            wide = spread(values[name])
            line = (f"  {name:16s} median {med:12.6g} {metric['unit']:5s} q1 {q1:12.6g} "
                    f"q3 {q3:12.6g} spread {wide:7.4f} bound {bound:.2f}")
            if wide > bound / 3:
                line += "  WIDE"
                marked = True
            if workload in saved:
                old = statistics.median(saved[workload][name])
                change = worse_by(med, old, metric["better"])
                line += f"  vs saved {change:+.4f}"
                if change > bound:
                    line += " WORSE"
                    marked = True
            print(line, flush=True)
    if args.save:
        Path(args.save).write_text(json.dumps(results, indent=1))
    return 1 if marked else 0


if __name__ == "__main__":
    sys.exit(main())
