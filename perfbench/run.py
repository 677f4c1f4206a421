#!/usr/bin/env python3
"""Runs one workload of the skypref benchmark and prints its metrics.

    python3 perfbench/run.py --workload det_blockzipf --seed 1 \
        --seconds 25 --trace 0

Run from the repository root. The first call configures and builds
perfbench/ (the skypref library from src/ plus the skypref_bench program)
in .bench_build/perfbench; later calls rebuild incrementally. Each call
then generates the workload's input from --seed, runs the closed loop for
--seconds seconds, and prints the program's lines: every metric by name with
its unit, and last one JSON object

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

holding the end-to-end metrics (--trace 0) or the per-layer metrics of the
traced run (--trace 1), exactly as BENCHMARK.json names them. Build or run
failures exit non-zero without printing a result. See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
WORKLOADS = ("det_blockzipf", "sam_uniform", "batch_nursery",
             "skyline_blockzipf")
RUN_TIMEOUT_S = 170


class BenchError(Exception):
    pass


def _check(cmd, **kwargs):
    """Runs cmd with its output on stderr, so stdout stays the result."""
    try:
        done = subprocess.run([str(c) for c in cmd], stdout=sys.stderr,
                              stderr=sys.stderr, check=False, **kwargs)
    except (OSError, subprocess.TimeoutExpired) as err:
        raise BenchError(f"{cmd[0]}: {err}") from err
    if done.returncode != 0:
        raise BenchError(f"{' '.join(map(str, cmd))} exited "
                         f"{done.returncode}")


def build():
    """Configures (once) and builds skypref_bench; returns its path."""
    if not any((BUILD_DIR / f).exists() for f in ("build.ninja", "Makefile")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        _check(["cmake", "-S", HERE, "-B", BUILD_DIR,
                "-DCMAKE_BUILD_TYPE=Release", *generator])
    jobs = max(1, min(4, os.cpu_count() or 1))
    _check(["cmake", "--build", BUILD_DIR, "-j", jobs])
    return BUILD_DIR / "skypref_bench"


def expected_metrics(trace):
    """BENCHMARK.json's metric names and units for this mode, if present."""
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.exists():
        return None
    spec = json.loads(spec_path.read_text())
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def run_once(workload, seed, seconds, trace, plant=False):
    """Builds, generates the input, runs skypref_bench; returns its stdout
    lines and the parsed result object."""
    program = build()
    inputs = BUILD_DIR / "inputs"
    inputs.mkdir(parents=True, exist_ok=True)
    data = inputs / f"{workload}-{seed}.skyd"
    _check([program, "generate", f"--workload={workload}", f"--seed={seed}",
            f"--out={data}"], timeout=RUN_TIMEOUT_S)
    cmd = [str(program), "run", f"--workload={workload}", f"--seed={seed}",
           f"--input={data}", f"--seconds={seconds}",
           f"--trace={1 if trace else 0}"]
    if plant:
        cmd.append("--plant-wrong-answer")
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired as err:
        raise BenchError(f"{workload}: no result within {err.timeout}s") \
            from err
    if done.returncode != 0:
        raise BenchError(f"{workload}: skypref_bench exited {done.returncode}")
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"{workload}: skypref_bench printed nothing")
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise BenchError(f"{workload}: malformed result {lines[-1]}")
    expected = expected_metrics(trace)
    if expected is not None:
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        if got != expected:
            raise BenchError(f"{workload}: metrics {got} differ from "
                             f"BENCHMARK.json {expected}")
    return lines, result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--plant-wrong-answer", action="store_true",
                        help="corrupt one answer before the referee checks "
                             "it (self-test of failed_ratio)")
    args = parser.parse_args()
    try:
        lines, _ = run_once(args.workload, args.seed, args.seconds,
                            args.trace == 1, args.plant_wrong_answer)
    except (BenchError, ValueError) as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 1
    print("\n".join(lines), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
