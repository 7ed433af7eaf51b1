"""The benchmark's workloads: inputs from the seed, one operation, its gates.

Every workload is a closed loop: operation i+1 starts when operation i has
finished.  Operation i's inputs are drawn from (workload seed, i), so a run
with the same seed repeats the same operations in the same order.  The
library is always reached through its module attributes, so the traced run
sees the wrapped functions.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from triswarm import cli, dynamics, experiments, graph, interaction, lattice

HERE = Path(__file__).resolve().parent

#: Center drift allowed by the `simulate` gate (the dynamics conserve the center).
CENTER_DRIFT_TOL = 1e-9


@dataclass
class OpResult:
    """Outcome of one operation: its time, its work and its gate failures."""

    seconds: float
    agent_steps: int
    failures: list[str]
    outputs: list[bytes]  # bytes that enter the output digest
    parts: dict[str, float] = field(default_factory=dict)  # seconds per command
    info: dict[str, object] = field(default_factory=dict)  # recorded, never gated


def op_seeds(seed: int, i: int) -> tuple[int, int]:
    """Two 32-bit seeds for operation i of a run with the given workload seed."""
    a, b = np.random.SeedSequence([seed, i]).generate_state(2, np.uint32)
    return int(a), int(b)


# -- correctness gates: each returns the list of violated conditions ---------


def sweep_gate(record) -> list[str]:
    """delta <= 0.25 converges and ends rigid; e is finite unless flagged as diverged."""
    failures = []
    if record.delta <= 0.25 and not (record.converged and record.rigid_final):
        failures.append(
            f"delta={record.delta}: converged={record.converged} rigid={record.rigid_final}"
        )
    if not (math.isfinite(record.e_final) or record.diverged):
        failures.append(f"delta={record.delta}: e_final={record.e_final} without divergence flag")
    return failures


def tracked_gate(record, start_rigid: bool = True) -> list[str]:
    """Rigid at every recorded step when the start was rigid, and the link error decreased.

    A perturbation radius above (R_a - R)/2 can break a link before the
    first step, so a trial may start non-rigid; it has no rigidity to keep.
    """
    failures = []
    if record.rigidity_preserved is None or (record.rigidity_preserved is False and start_rigid):
        failures.append(f"rigidity_preserved={record.rigidity_preserved}")
    if not record.e_final < record.e_initial:
        failures.append(f"e_final={record.e_final} not below e_initial={record.e_initial}")
    return failures


def simulate_gate(exit_code: int, summary: dict | None) -> list[str]:
    """`triswarm simulate` succeeded, ended rigid and kept its center."""
    if exit_code != 0 or summary is None:
        return [f"simulate exit code {exit_code}"]
    failures = []
    if summary.get("rigid_final") is not True:
        failures.append(f"simulate rigid_final={summary.get('rigid_final')}")
    drift = summary.get("center_drift")
    if not (isinstance(drift, (int, float)) and drift <= CENTER_DRIFT_TOL):
        failures.append(f"simulate center_drift={drift}")
    return failures


def spectrum_gate(exit_code: int, summary_csv: str | None, n_values) -> list[str]:
    """Every spectrum row has 3 zero modes, 2n - 3 negative modes and an aligned kernel."""
    if exit_code != 0 or summary_csv is None:
        return [f"spectrum exit code {exit_code}"]
    rows = list(csv.DictReader(io.StringIO(summary_csv)))
    failures = []
    if sorted(int(r["n"]) for r in rows) != sorted(n_values):
        failures.append(f"spectrum rows for n={[r['n'] for r in rows]}, expected {list(n_values)}")
    for r in rows:
        n = int(r["n"])
        if int(r["zero_count"]) != 3:
            failures.append(f"spectrum n={n}: {r['zero_count']} zero modes")
        if int(r["negative_count"]) != 2 * n - 3:
            failures.append(f"spectrum n={n}: {r['negative_count']} negative modes")
        if r["kernel_aligned"] != "1":
            failures.append(f"spectrum n={n}: kernel not aligned")
    return failures


# -- workloads ----------------------------------------------------------------


class SweepN100:
    """delta_sweep at the paper's settings; one operation is one trial."""

    name = "sweep_n100"
    DELTAS = (0.05, 0.25, 0.5)  # fixed link set / edge of the basin / links rearrange
    N = 100
    min_ops = len(DELTAS)

    def __init__(self, seed: int):
        self.seed = seed
        self.fn = interaction.saturated_lennard_jones()
        self.sim = dynamics.SimulationParams(dt=0.01, horizon=20.0, record_every=10)

    def run(self, i: int, workdir: Path) -> OpResult:
        delta = self.DELTAS[i % len(self.DELTAS)]
        lattice_base, perturb_base = op_seeds(self.seed, i)
        spec = experiments.SweepSpec(
            delta_values=(delta,),
            trials_per_delta=1,
            n=self.N,
            sim=self.sim,
            lattice_seed_base=lattice_base,
            perturb_seed_base=perturb_base,
            growth="compact",
        )
        start = time.perf_counter()
        result = experiments.delta_sweep(spec, self.fn, jobs=1)
        experiments.write_sweep_csv(result, workdir)
        seconds = time.perf_counter() - start
        record = result.trials[0]
        info = {}
        if delta >= 0.5:
            info = {"delta": delta, "converged": record.converged}
        return OpResult(
            seconds=seconds,
            agent_steps=self.N * self.sim.n_steps,
            failures=sweep_gate(record),
            outputs=[repr(record).encode(), (workdir / "trials.csv").read_bytes()],
            info=info,
        )


class TrackedN400:
    """convergence_study with the per-step rigidity test; one operation is one trial."""

    name = "tracked_n400"
    N = 400
    DELTA = 0.2
    HORIZON = 0.5  # 50 Euler steps, 6 recorded rank tests: the rank test dominates
    min_ops = 2

    def __init__(self, seed: int):
        self.seed = seed
        self.fn = interaction.saturated_lennard_jones()
        self.sim = dynamics.SimulationParams(dt=0.01, horizon=self.HORIZON, record_every=10)

    def run(self, i: int, workdir: Path) -> OpResult:
        lattice_base, perturb_base = op_seeds(self.seed, i)
        start = time.perf_counter()
        study = experiments.convergence_study(
            self.N,
            self.DELTA,
            1,
            self.sim,
            self.fn,
            lattice_seed_base=lattice_base,
            perturb_seed_base=perturb_base,
            track_rigidity=True,
            growth="compact",
        )
        seconds = time.perf_counter() - start
        record = study.records[0]
        start_rigid, info = True, {}
        if record.rigidity_preserved is False:
            start_rigid = self._start_is_rigid(record)
            info = {"rigidity_lost": True, "start_rigid": start_rigid}
        return OpResult(
            seconds=seconds,
            agent_steps=self.N * self.sim.n_steps,
            failures=tracked_gate(record, start_rigid),
            outputs=[repr(record).encode(), study.series.tobytes()],
            info=info,
        )

    def _start_is_rigid(self, record) -> bool:
        """Rigidity test of the trial's perturbed start, rebuilt from its seeds."""
        spec = lattice.LatticeSpec(n=self.N, seed=record.lattice_seed, growth="compact")
        config = lattice.generate_triangular(spec, self.fn.R_a)
        config = lattice.perturb(config, self.DELTA, record.perturb_seed)
        return graph.is_infinitesimally_rigid(config, graph.compute_links(config, self.fn.R_a))


class CliAnalysis:
    """In-process `triswarm simulate` then `triswarm spectrum`; one operation is the pair."""

    name = "cli_analysis"
    N = 100
    STEPS = 2000  # default horizon 20 s at dt 0.01
    SPECTRUM_CONFIG = HERE / "spectrum.cfg"
    SPECTRUM_N = (100, 400)  # must match SPECTRUM_CONFIG
    min_ops = 1

    def __init__(self, seed: int):
        self.seed = seed
        self.fn = None  # the CLI builds its own profile

    def run(self, i: int, workdir: Path) -> OpResult:
        sim_seed, spec_seed = op_seeds(self.seed, i)
        sim_out, spec_out = workdir / "simulate", workdir / "spectrum"
        for d in (sim_out, spec_out):
            shutil.rmtree(d, ignore_errors=True)
        simulate_argv = [
            "simulate", "--n", str(self.N), "--delta", "0.2", "--seed", str(sim_seed),
            "--record-every", "1", "--out", str(sim_out),
        ]
        spectrum_argv = [
            "spectrum", "--config", str(self.SPECTRUM_CONFIG), "--seed", str(spec_seed),
            "--out", str(spec_out),
        ]
        with contextlib.redirect_stdout(io.StringIO()):
            t0 = time.perf_counter()
            sim_rc = cli.main(simulate_argv)
            t1 = time.perf_counter()
            spec_rc = cli.main(spectrum_argv)
            t2 = time.perf_counter()
        summary = _read(sim_out / "summary.json")
        spectrum_csv = _read(spec_out / "spectrum_summary.csv")
        failures = simulate_gate(sim_rc, json.loads(summary) if summary else None)
        failures += spectrum_gate(spec_rc, spectrum_csv, self.SPECTRUM_N)
        outputs = [
            (summary or "").encode(),
            (_read(sim_out / "diagnostics.csv") or "").encode(),
            (spectrum_csv or "").encode(),
        ]
        return OpResult(
            seconds=t2 - t0,
            agent_steps=self.N * self.STEPS if sim_rc == 0 else 0,
            failures=failures,
            outputs=outputs,
            parts={"simulate_s": t1 - t0, "spectrum_s": t2 - t1},
        )


def _read(path: Path) -> str | None:
    try:
        return path.read_text()
    except FileNotFoundError:
        return None


WORKLOADS = {w.name: w for w in (SweepN100, TrackedN400, CliAnalysis)}
