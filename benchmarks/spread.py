"""Run the benchmark over several seeds and report each metric's spread.

Usage, from the repository root:

    python3 benchmarks/spread.py --workload fit-wide --seeds 1-10

For every metric the spread is the distance between the first and third
quartiles of its per-seed values (``statistics.quantiles(values, n=4)``) as
a share of their median. An end-to-end metric is steady when its spread is
below a third of its bound in ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from statistics import median, quantiles

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def spread(values: list[float]) -> float:
    """Interquartile distance over the median (0 for a single value)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = quantiles(values, n=4)
    mid = median(values)
    return (q3 - q1) / abs(mid) if mid else float("inf")


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    values: dict[str, list[float]] = {}
    for seed in parse_seeds(args.seeds):
        cmd = [*spec["command"], "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(spec["run_seconds"]), "--trace", "0"]
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        result = json.loads(out.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            print(out.stdout, file=sys.stderr)
        shown = {k: round(v["value"], 6) for k, v in result["metrics"].items()}
        print(f"seed {seed}: correct={result['correct']} {shown}", flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])

    steady = True
    for name, vals in values.items():
        s = spread(vals)
        ok = s < bounds[name] / 3
        steady &= ok
        verdict = f"bound {bounds[name]}  {'ok' if ok else 'TOO WIDE'}"
        print(f"{name:52s} median {median(vals):12.6g}  spread {s:7.4f}  {verdict}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
