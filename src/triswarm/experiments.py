"""Monte-Carlo experiments: perturbation-radius sweep and convergence study.

Every trial is fully determined by two seeds derived from the sweep bases
and the trial's position in the grid, so adding or removing trials never
changes the outcome of the others, and reruns are bit-identical.
"""

from __future__ import annotations

import csv
import multiprocessing
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .dynamics import SimulationParams, simulate
from .errors import IntegrationDivergedError, InvalidInputError
from .graph import is_infinitesimally_rigid, links_along
from .interaction import InteractionFunction
from .lattice import LatticeSpec, generate_triangular, is_triangular, link_deviation, perturb
from .serialize import fmt

#: Terminal link-length error below which a trial counts as converged.
CONVERGENCE_E = 1e-3

#: The sweep's radii when the config gives none: 0, 0.05, ..., 0.7.
DEFAULT_DELTA_GRID = tuple(round(0.05 * k, 10) for k in range(0, 15))


def trial_seeds(base: int, delta_index: int, trial_index: int) -> tuple[int, int]:
    """Two stable 63-bit seeds for (lattice, perturbation) of one trial."""
    ss = np.random.SeedSequence(entropy=[int(base), int(delta_index), int(trial_index)])
    a, b = ss.generate_state(2, np.uint64)
    return int(a >> np.uint64(1)), int(b >> np.uint64(1))


@dataclass(frozen=True)
class SweepSpec:
    delta_values: tuple[float, ...]
    trials_per_delta: int
    n: int
    sim: SimulationParams
    lattice_seed_base: int = 0
    perturb_seed_base: int = 1
    growth: str = "compact"

    def __post_init__(self):
        deltas = tuple(float(d) for d in self.delta_values)
        if any(d < 0 for d in deltas):
            raise InvalidInputError("delta values must be non-negative")
        if list(deltas) != sorted(deltas):
            raise InvalidInputError("delta values must be sorted ascending")
        if self.trials_per_delta < 1:
            raise InvalidInputError("trials_per_delta must be >= 1")
        object.__setattr__(self, "delta_values", deltas)


@dataclass(frozen=True)
class TrialRecord:
    delta: float
    trial_index: int
    lattice_seed: int
    perturb_seed: int
    e_initial: float
    e_final: float
    rigid_final: bool
    triangular_final: bool
    converged: bool
    diverged: bool
    rigidity_preserved: bool | None = None  # only evaluated when tracked per step


@dataclass(frozen=True)
class DeltaSummary:
    delta: float
    rho: float  # fraction of trials ending infinitesimally rigid
    rho_triangular: float  # fraction rigid AND terminal e below threshold
    e_mean: float
    e_min: float
    e_max: float
    trials: int


@dataclass(frozen=True)
class SweepResult:
    spec: SweepSpec
    summaries: tuple[DeltaSummary, ...]
    trials: tuple[TrialRecord, ...]


def run_trial(
    n: int,
    delta: float,
    seeds: tuple[int, int],
    sim: SimulationParams,
    fn: InteractionFunction,
    track_rigidity: bool = False,
    growth: str = "compact",
) -> TrialRecord:
    """Generate a lattice, perturb it, simulate, and score the terminal state."""
    return _trial(n, delta, seeds, sim, fn, track_rigidity, growth)[0]


def _trial(n, delta, seeds, sim, fn, track_rigidity, growth, series=False):
    """Run one trial and score it from the trajectory `simulate` returns.

    A diverged trial is scored from the recorded prefix its error carries.
    One `links_along` pass over the recorded states gives e_initial (first
    state) and, when asked for, the link error of every state (`series`) and
    the rigidity test of every state but the last, whose rigidity is that of
    the final report.  A trial that asks for neither walks its first state
    only.  Returns the record, the recorded times and the link errors.
    """
    lattice_seed, perturb_seed = seeds
    lattice = generate_triangular(
        LatticeSpec(n=n, R=sim.R, seed=lattice_seed, growth=growth), sim.R_a
    )
    initial = perturb(lattice, delta, perturb_seed)
    diverged = False
    try:
        traj = simulate(initial, fn, sim)
    except IntegrationDivergedError as exc:
        diverged, traj = True, exc.trajectory
        series = False  # convergence_study raises instead
    last = len(traj.states) - 1
    states = traj.states if series or track_rigidity else traj.states[:1]
    errors, flags = [], []
    for k, links in enumerate(links_along(states, sim.R_a)):
        if k == 0 or series:
            errors.append(link_deviation(links, sim.R))
        if track_rigidity and k < last:
            flags.append(is_infinitesimally_rigid(traj.config(k), links))
    report = is_triangular(traj.final, sim.R, sim.R_a, tol_len=CONVERGENCE_E)
    e_final = report.max_length_deviation  # inf when no links remain
    rigid = report.rigid
    converged = (not diverged) and rigid and e_final <= CONVERGENCE_E
    record = TrialRecord(
        delta=float(delta),
        trial_index=-1,
        lattice_seed=lattice_seed,
        perturb_seed=perturb_seed,
        e_initial=errors[0],
        e_final=e_final,
        rigid_final=rigid,
        triangular_final=report.ok,
        converged=converged,
        diverged=diverged,
        rigidity_preserved=(all(flags) and rigid) if track_rigidity else None,
    )
    return record, traj.times, errors


def _run_one(task) -> TrialRecord:
    n, delta, seeds, sim, fn, trial_index, growth = task
    return replace(run_trial(n, delta, seeds, sim, fn, growth=growth), trial_index=trial_index)


def delta_sweep(spec: SweepSpec, fn: InteractionFunction, jobs: int = 1) -> SweepResult:
    """Independent trials for every perturbation radius, aggregated per radius."""
    tasks = []
    for di, delta in enumerate(spec.delta_values):
        for ti in range(spec.trials_per_delta):
            ls, _ = trial_seeds(spec.lattice_seed_base, di, ti)
            _, ps = trial_seeds(spec.perturb_seed_base, di, ti)
            tasks.append((spec.n, delta, (ls, ps), spec.sim, fn, ti, spec.growth))
    if jobs > 1:
        with multiprocessing.Pool(jobs) as pool:
            records = pool.map(_run_one, tasks)
    else:
        records = [_run_one(t) for t in tasks]
    # records arrive ordered by (delta index, trial index) by construction
    summaries = []
    per_delta = spec.trials_per_delta
    for di, delta in enumerate(spec.delta_values):
        block = records[di * per_delta : (di + 1) * per_delta]
        e = np.array([r.e_final for r in block])
        summaries.append(
            DeltaSummary(
                delta=float(delta),
                rho=sum(r.rigid_final for r in block) / per_delta,
                rho_triangular=sum(r.converged for r in block) / per_delta,
                e_mean=float(e.mean()),
                e_min=float(e.min()),
                e_max=float(e.max()),
                trials=per_delta,
            )
        )
    return SweepResult(spec=spec, summaries=tuple(summaries), trials=tuple(records))


@dataclass(frozen=True)
class ConvergenceStudy:
    times: np.ndarray  # (T,)
    series: np.ndarray  # (trials, T) link error per recorded step
    mean: np.ndarray
    min: np.ndarray
    max: np.ndarray
    records: tuple[TrialRecord, ...]


def convergence_study(
    n: int,
    delta: float,
    trials: int,
    sim: SimulationParams,
    fn: InteractionFunction,
    lattice_seed_base: int = 0,
    perturb_seed_base: int = 1,
    track_rigidity: bool = False,
    growth: str = "compact",
) -> ConvergenceStudy:
    """Error time series of repeated trials at one perturbation radius.

    Raises IntegrationDivergedError if a trial diverges.
    """
    if trials < 1:
        raise InvalidInputError("trials must be >= 1")
    all_series = []
    records = []
    for ti in range(trials):
        ls, _ = trial_seeds(lattice_seed_base, 0, ti)
        _, ps = trial_seeds(perturb_seed_base, 0, ti)
        record, times, errors = _trial(
            n, delta, (ls, ps), sim, fn, track_rigidity, growth, series=True
        )
        if record.diverged:
            raise IntegrationDivergedError(
                f"trial {ti} diverged (lattice seed {ls}, perturb seed {ps})"
            )
        records.append(replace(record, trial_index=ti))
        all_series.append(errors)
    series = np.asarray(all_series)
    return ConvergenceStudy(
        times=times,
        series=series,
        mean=series.mean(axis=0),
        min=series.min(axis=0),
        max=series.max(axis=0),
        records=tuple(records),
    )


def write_sweep_csv(result: SweepResult, outdir) -> None:
    """sweep_summary.csv and trials.csv in the output directory."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    with open(outdir / "sweep_summary.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["delta", "rho", "e_mean", "e_min", "e_max", "trials"])
        for s in result.summaries:
            writer.writerow([fmt(s.delta), fmt(s.rho), fmt(s.e_mean), fmt(s.e_min), fmt(s.e_max), s.trials])
    with open(outdir / "trials.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["delta", "trial", "lattice_seed", "perturb_seed", "e_final", "rigid", "converged"])
        for r in result.trials:
            writer.writerow(
                [fmt(r.delta), r.trial_index, r.lattice_seed, r.perturb_seed, fmt(r.e_final), int(r.rigid_final), int(r.converged)]
            )
