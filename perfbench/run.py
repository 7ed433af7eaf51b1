"""triswarm benchmark: three closed-loop workloads driven through the public API.

    python3 perfbench/run.py --workload sweep_n100 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

--trace 0 measures the end-to-end metrics with unwrapped code.  --trace 1
runs the same operations once unwrapped and once with every layer's public
functions wrapped in spans, reports per-layer metrics and the tracing
overhead, and times the layer probes.  Each run checks every operation's
output and prints a report, then, as its last line, one JSON object with
the keys correct, attempted, failed and metrics.  `--workload all` runs
every workload in its own process and ends with one such object whose
metric names are prefixed with the workload.  The exit code is 0 when
every correctness gate held, 1 when one failed and 2 when triswarm cannot
be imported from ../src.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from stats import tail
from tracing import SPAN_NAMES, Tracer, leftover_wrappers

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

END_TO_END = {
    "setup_s": "s",
    "warmup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "agent_steps_per_s": "1/s",
    "peak_rss_mb": "MB",
}

#: Functions that every workload calls.  Self times of the other spans are
#: in the report only: a time that is 0 on some workload reads the same on
#: every run of it.
SELF_TIMED = (
    "dynamics.simulate",
    "dynamics.velocities",
    "interaction.force",
    "graph.compute_links",
    "graph.rigidity_matrix",
    "graph.numerical_rank",
    "lattice.generate_triangular",
    "lattice.is_triangular",
    "lattice.perturb",
    "lattice.link_error",
)

RATIOS = {
    "dynamics.velocities.useful_pair_frac": "frac",
    "dynamics.velocities.distinct_input_frac": "frac",
    "dynamics.velocities.computed_bytes": "B",
    "graph.compute_links.distinct_input_frac": "frac",
    "graph.numerical_rank.computed_flops": "flop",
    "lattice.is_triangular.calls_per_generate": "ratio",
    "trace.overhead_frac": "frac",
}

SETUP_REPEATS = 5
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")


def per_layer_units() -> dict[str, str]:
    """Name and unit of every per-layer metric, in report order."""
    from probes import PROBE_NAMES

    units = {}
    for name in SPAN_NAMES:
        units[f"{name}.calls"] = "count"
        units[f"{name}.share"] = "frac"
    for name in SELF_TIMED:
        units[f"{name}.self_s"] = "s"
    units.update(RATIOS)
    units.update({name: "s" for name in PROBE_NAMES})
    return units


# -- running the operations -----------------------------------------------------


def closed_loop(workload, seconds: float, workdir: Path, count: int | None = None):
    """Run operations 1, 2, ... back to back (operation 0 is the warm-up).

    With `count` given, exactly that many.  Otherwise at least
    `workload.min_ops`, then more while the next one, at the median
    duration so far, is expected to end within `seconds`.
    """
    results = []
    start = time.perf_counter()
    while True:
        i = len(results)
        if count is not None:
            if i >= count:
                break
        elif i >= workload.min_ops:
            expected = statistics.median(r.seconds for r in results)
            if time.perf_counter() - start + expected > seconds:
                break
        results.append(workload.run(i + 1, workdir))
    return results


def measure_setup(workload_name: str, seed: int) -> list[float]:
    """Wall time of a fresh interpreter importing triswarm and building the workload."""
    argv = [sys.executable, str(HERE / "run.py"), "--setup-only", "--workload", workload_name, "--seed", str(seed)]
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run(argv, check=True, cwd=ROOT, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
    return times


def outputs_digest(results, count: int) -> str:
    """sha256 of the outputs of the first `count` operations (recorded, never gated)."""
    h = hashlib.sha256()
    for r in results[:count]:
        for part in r.outputs:
            h.update(len(part).to_bytes(8, "little"))
            h.update(part)
    return h.hexdigest()


# -- metrics ----------------------------------------------------------------------


def end_to_end_metrics(warm, results, setup_times) -> tuple[dict, dict]:
    """The bounded end-to-end metrics, and the report's extra detail."""
    op_s = [r.seconds for r in results]
    busy = sum(op_s)
    tail_value, tail_pct, tail_beyond = tail(op_s)
    values = {
        "setup_s": statistics.median(setup_times),
        "warmup_s": warm.seconds,
        "ops_per_s": len(op_s) / busy,
        "op_p50_s": statistics.median(op_s),
        "op_tail_s": tail_value,
        "agent_steps_per_s": sum(r.agent_steps for r in results) / busy,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    detail = {
        "setup_samples_s": setup_times,
        "op_samples_s": op_s,
        "op_tail_percentile": tail_pct,
        "op_tail_samples_beyond": tail_beyond,
    }
    for part in sorted({p for r in results for p in r.parts}):
        detail[part] = statistics.median(r.parts[part] for r in results if part in r.parts)
    return values, detail


def layer_metrics(tracer, wall: float, overhead_frac: float, probe_s: dict, peak_bytes: int) -> dict:
    values = {}
    for name in SPAN_NAMES:
        values[f"{name}.calls"] = tracer.calls[name]
        values[f"{name}.share"] = tracer.self_s[name] / wall
    for name in SELF_TIMED:
        values[f"{name}.self_s"] = tracer.self_s[name]
    pairs = tracer.counters["dynamics.velocities.ordered_pairs"]
    generates = tracer.calls["lattice.generate_triangular"]
    values.update(
        {
            "dynamics.velocities.useful_pair_frac": (
                tracer.counters["dynamics.velocities.useful_pairs"] / pairs if pairs else 0.0
            ),
            "dynamics.velocities.distinct_input_frac": tracer.distinct_input_frac("dynamics.velocities"),
            "dynamics.velocities.computed_bytes": peak_bytes,
            "graph.compute_links.distinct_input_frac": tracer.distinct_input_frac("graph.compute_links"),
            "graph.numerical_rank.computed_flops": tracer.counters["graph.numerical_rank.computed_flops"],
            "lattice.is_triangular.calls_per_generate": (
                tracer.child_calls("lattice.generate_triangular", "lattice.is_triangular") / generates
                if generates
                else 0.0
            ),
            "trace.overhead_frac": overhead_frac,
        }
    )
    values.update(probe_s)
    return values


def span_table(tracer, wall: float) -> dict:
    """calls, total, self time and share of every span, for the report."""
    return {
        name: {
            "calls": tracer.calls[name],
            "total_s": tracer.total_s[name],
            "self_s": tracer.self_s[name],
            "share": tracer.self_s[name] / wall,
        }
        for name in SPAN_NAMES
    }


def module_shares(table: dict) -> dict:
    shares = {}
    for name, row in table.items():
        module = name.split(".", 1)[0]
        shares[module] = shares.get(module, 0.0) + row["share"]
    return dict(sorted(shares.items(), key=lambda kv: -kv[1]))


# -- provenance -------------------------------------------------------------------


def machine_info(seed: int) -> dict:
    import numpy as np
    import scipy

    cpu_model = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu_model = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), None)
    except OSError:
        pass
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    revision, dirty = None, None
    if (ROOT / ".git").exists():
        try:
            revision = _git("rev-parse", "HEAD").strip()
            dirty = bool(_git("status", "--porcelain", "--untracked-files=no").strip())
        except (OSError, subprocess.CalledProcessError):
            pass
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_thread_env": {k: os.environ[k] for k in BLAS_THREAD_VARS if k in os.environ},
        "git_revision": revision,
        "git_dirty": dirty,
        "seed": seed,
    }


def _git(*args) -> str:
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True, capture_output=True, text=True).stdout


# -- the two kinds of run ---------------------------------------------------------


def warm_up(workload, workdir: Path):
    """Operation 0: gated and digested like the others, timed on its own.

    It lets BLAS threads start and the process's memory grow to the
    workload's size; the first n = 400 trial is 10-20 % slower than the
    next.  Its time is `warmup_s`, so work moved into first calls shows.
    """
    return workload.run(0, workdir)


def untraced_run(workload_cls, seed: int, seconds: float, workdir: Path):
    setup_times = measure_setup(workload_cls.name, seed)
    workload = workload_cls(seed)
    warm = warm_up(workload, workdir)
    results = closed_loop(workload, seconds - warm.seconds, workdir)
    values, detail = end_to_end_metrics(warm, results, setup_times)
    return [warm, *results], values, END_TO_END, detail


def traced_run(workload_cls, seed: int, seconds: float, workdir: Path):
    from probes import run_probes, velocities_peak_bytes

    workload = workload_cls(seed)
    warm = warm_up(workload, workdir)
    plain = closed_loop(workload, seconds / 2 - warm.seconds, workdir)
    tracer = Tracer()
    profile = workload.fn
    with tracer.installed():
        if profile is not None:
            workload.fn = tracer.wrap_profile(profile)
        traced = closed_loop(workload, seconds, workdir, count=len(plain))
    workload.fn = profile
    leftover = leftover_wrappers()
    if leftover:
        raise RuntimeError(f"tracing wrappers left installed: {leftover}")
    plain_wall = sum(r.seconds for r in plain)
    wall = sum(r.seconds for r in traced)
    probe_s = run_probes(seed)
    peak_bytes = velocities_peak_bytes(workload_cls.N, seed)
    values = layer_metrics(tracer, wall, wall / plain_wall - 1.0, probe_s, peak_bytes)
    table = span_table(tracer, wall)
    detail = {
        "warmup_s": warm.seconds,
        "traced_wall_s": wall,
        "untraced_wall_s": plain_wall,
        "module_share": module_shares(table),
        "spans": table,
    }
    return [warm, *plain, *traced], values, per_layer_units(), detail


def run_all(workloads, args) -> int:
    """Run every workload in a fresh interpreter and combine their results."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    exit_code = 0
    for name in workloads:
        argv = [
            sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        if proc.returncode not in (0, 1) or not lines:
            print(f"perfbench: {name} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode or 2
        print("\n".join(lines[:-1]), flush=True)
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
        exit_code = max(exit_code, proc.returncode)
    print(json.dumps(combined))
    return exit_code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "triswarm" / "__init__.py").is_file():
        print(f"perfbench: no triswarm package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS  # imports triswarm, known to be there by now

    if args.workload == "all":
        return run_all(WORKLOADS, args)
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload_cls = WORKLOADS[args.workload]
    if args.setup_only:
        workload_cls(args.seed)
        return 0

    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        run = traced_run if args.trace else untraced_run
        results, values, units, detail = run(workload_cls, args.seed, args.seconds, Path(tmp))

    failed = [r for r in results if r.failures]
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "attempted": len(results),
        "failed": len(failed),
        "fail_frac": len(failed) / len(results),
        "gate_failures": [f for r in failed for f in r.failures],
        "info": [r.info for r in results if r.info],
        "outputs_sha256": outputs_digest(results, workload_cls.min_ops),
        "digest_ops": workload_cls.min_ops,
        "machine": machine_info(args.seed),
        "detail": detail,
    }
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    for name, unit in units.items():
        print(f"  {name:<48} {values[name]:.6g} {unit}")
    for part in ("simulate_s", "spectrum_s"):
        if part in detail:
            print(f"  {part:<48} {detail[part]:.6g} s (median per command)")
    if "op_tail_percentile" in detail:
        print(
            f"  op_tail_s is p{detail['op_tail_percentile']:.4g} of {len(detail['op_samples_s'])} "
            f"operations, {detail['op_tail_samples_beyond']} beyond it"
        )
    print(f"  fail_frac {report['fail_frac']:.6g} ({len(failed)} of {len(results)} operations)")
    print("report " + json.dumps(report, sort_keys=True))
    result = {
        "correct": not failed,
        "attempted": len(results),
        "failed": len(failed),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0 if not failed else 1


if __name__ == "__main__":
    sys.exit(main())
