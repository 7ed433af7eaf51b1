"""Run the benchmark once per seed and report each metric's spread.

    python3 perfbench/spread.py --workload sweep_n100 --seeds 1 2 3 4 5 --seconds 30

The spread is the distance between the first and third quartile of the
per-run values, as a share of their median.  For the end-to-end metrics it
is compared with the bound in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from stats import iqr_frac

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    argv = [
        sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=180)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    values: dict[str, list[float]] = {}
    for seed in args.seeds:
        result = run_once(args.workload, seed, args.seconds, args.trace)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} failed={result['failed']}", flush=True)
    for name, xs in values.items():
        median = statistics.median(xs)
        spread = iqr_frac(xs) if len(xs) >= 2 and median else float("nan")
        bound = bounds.get(name)
        verdict = "" if bound is None else f" bound {bound:g} ({'ok' if spread < bound / 3 else 'WIDE'})"
        print(f"{name:<48} median {median:.6g} spread {spread:.4f}{verdict}")
        print("    " + " ".join(f"{x:.6g}" for x in xs))
    return 0


if __name__ == "__main__":
    sys.exit(main())
