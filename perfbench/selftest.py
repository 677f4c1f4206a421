#!/usr/bin/env python3
"""Self-test of the skypref benchmark.

    python3 perfbench/selftest.py

Runs every workload at minimal load (one timed query) in both modes and
asserts that every metric BENCHMARK.json names appears, with its unit, in
the result object and as a printed `metric` line. Then, on every workload,
plants a wrong answer in the benchmark's own referee check and asserts
that the run counts it: failed >= 1, correct is false, and the printed
failed_ratio is above 0. Exits 0 when every check holds.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run as bench  # noqa: E402  (perfbench/run.py)


def printed_metrics(lines):
    """{name: (value, unit)} of the `metric NAME VALUE UNIT` lines."""
    out = {}
    for line in lines:
        parts = line.split()
        if len(parts) == 4 and parts[0] == "metric":
            out[parts[1]] = (float(parts[2]), parts[3])
    return out


def main():
    spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
    failures = []

    def check(ok, what):
        print(f"{'ok  ' if ok else 'FAIL'} {what}", flush=True)
        if not ok:
            failures.append(what)

    for workload in bench.WORKLOADS:
        for trace, key in ((False, "end_to_end"), (True, "per_layer")):
            lines, result = bench.run_once(workload, seed=1, seconds=0,
                                           trace=trace)
            printed = printed_metrics(lines)
            for metric in spec[key]:
                name, unit = metric["name"], metric["unit"]
                got = result["metrics"].get(name)
                check(got is not None and got["unit"] == unit and
                      printed.get(name, (None, None))[1] == unit,
                      f"{workload} trace={int(trace)}: {name} [{unit}]")
            check(result["correct"] and result["failed"] == 0 and
                  result["attempted"] >= 1,
                  f"{workload} trace={int(trace)}: correct, nothing failed")

        lines, result = bench.run_once(workload, seed=1, seconds=0,
                                       trace=False, plant=True)
        ratio = printed_metrics(lines).get("failed_ratio", (0.0, ""))[0]
        check(result["failed"] >= 1 and not result["correct"] and ratio > 0,
              f"{workload}: planted wrong answer counted "
              f"(failed={result['failed']}, failed_ratio={ratio})")

    print(f"{len(failures)} failed check(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except bench.BenchError as err:
        print(f"selftest: {err}", file=sys.stderr)
        sys.exit(1)
