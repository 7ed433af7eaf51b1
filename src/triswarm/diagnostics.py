"""Lyapunov-style runtime diagnostics.

The energy of a configuration is the squared offset of its center from a
reference point plus the sum of link potentials; along the continuous-time
flow its decay rate equals minus the sum of squared agent speeds whenever
the link set is locally constant.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import SimulationParams, Trajectory, velocities
from .errors import InvalidInputError
from .graph import LinkSet, SwarmConfig, compute_links, links_along, swarm_center
from .interaction import InteractionFunction

#: Relative tolerance of `dissipation_check`: an unflagged step agrees when
#: |rate_numeric - rate_analytic| <= DISSIPATION_TOL (1 + |rate_analytic|).
DISSIPATION_TOL = 1e-3


def _energy(
    positions: np.ndarray, links: LinkSet, reference_center: np.ndarray, fn: InteractionFunction
) -> float:
    center_term = float(np.sum((np.asarray(reference_center, float) - positions.mean(axis=0)) ** 2))
    if links.m == 0:
        return center_term
    return center_term + float(np.sum(fn.potential(links.lengths)))


def _rate(u: np.ndarray) -> float:
    return -float(np.einsum("ik,ik->", u, u))


def lyapunov_value(config: SwarmConfig, reference_center: np.ndarray, fn: InteractionFunction) -> float:
    """Squared center offset plus sum of link potentials (links within fn.R_a, recomputed here)."""
    return _energy(config.positions, compute_links(config, fn.R_a), reference_center, fn)


def lyapunov_rate(config: SwarmConfig, fn: InteractionFunction, r_s: float) -> float:
    """Analytic decay rate: minus the sum of squared control inputs."""
    return _rate(velocities(config.positions, fn, r_s)[0])


def energy_series(traj: Trajectory, fn: InteractionFunction) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Energy, link count and link-set change of every recorded state, in one link pass.

    The energy is `lyapunov_value` with the initial center as reference;
    `changed[k]` says whether state k's link set differs from state k - 1's
    (False at k = 0).
    """
    ref = swarm_center(traj.initial)
    n_rec = len(traj.times)
    values = np.empty(n_rec)
    counts = np.empty(n_rec, dtype=int)
    changed = np.zeros(n_rec, dtype=bool)
    previous = None
    for k, links in enumerate(links_along(traj.states, fn.R_a)):
        values[k] = _energy(traj.states[k], links, ref, fn)
        counts[k] = links.m
        changed[k] = previous is not None and not np.array_equal(links.pairs, previous)
        previous = links.pairs
    return values, counts, changed


@dataclass(frozen=True)
class LyapunovSample:
    t: float
    value: float
    rate_analytic: float
    rate_numeric: float
    link_count: int
    flagged: bool  # links changed over [t, t+dt]: the comparison is invalid there
    mismatch: bool  # unflagged but outside DISSIPATION_TOL


@dataclass(frozen=True)
class DissipationReport:
    samples: tuple[LyapunovSample, ...]
    values: tuple[float, ...]  # energy at every recorded step, the last one included
    agreement_fraction: float  # over unflagged samples
    flagged_count: int


def dissipation_check(traj: Trajectory, fn: InteractionFunction, params: SimulationParams) -> DissipationReport:
    """Compare the finite difference of the energy against its analytic rate.

    Requires a trajectory recorded with stride 1 that carries its control
    inputs (`simulate` stores them); the analytic rate at each state is taken
    from its stored input, not recomputed.  A step where the link set
    changes is flagged and excluded from the agreement statistic (the energy
    is only differentiable while the link set is constant).
    """
    if params.record_every != 1:
        raise InvalidInputError("dissipation check requires record_every == 1")
    if traj.inputs is None:
        raise InvalidInputError("dissipation check requires a trajectory that carries its inputs")
    values, counts, changed = energy_series(traj, fn)
    samples = []
    agree = 0
    unflagged = 0
    for k in range(len(traj.times) - 1):
        dt = traj.times[k + 1] - traj.times[k]
        rate_num = (values[k + 1] - values[k]) / dt
        rate_an = _rate(traj.inputs[k])
        flagged = bool(changed[k + 1])
        mismatch = False
        if not flagged:
            unflagged += 1
            mismatch = abs(rate_num - rate_an) > DISSIPATION_TOL * (1.0 + abs(rate_an))
            agree += not mismatch
        samples.append(
            LyapunovSample(
                t=float(traj.times[k]),
                value=float(values[k]),
                rate_analytic=rate_an,
                rate_numeric=float(rate_num),
                link_count=int(counts[k]),
                flagged=flagged,
                mismatch=mismatch,
            )
        )
    fraction = agree / unflagged if unflagged else 1.0
    return DissipationReport(
        samples=tuple(samples),
        values=tuple(values.tolist()),
        agreement_fraction=fraction,
        flagged_count=sum(s.flagged for s in samples),
    )
