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
from .graph import LinkSet, SwarmConfig, compute_links, swarm_center
from .interaction import InteractionFunction


def _energy(
    config: SwarmConfig, links: LinkSet, reference_center: np.ndarray, fn: InteractionFunction
) -> float:
    center_term = float(np.sum((np.asarray(reference_center, float) - swarm_center(config)) ** 2))
    if links.m == 0:
        return center_term
    return center_term + float(np.sum(fn.potential(links.lengths)))


def lyapunov_value(
    config: SwarmConfig,
    reference_center: np.ndarray,
    fn: InteractionFunction,
    r_a: float,
) -> float:
    """Squared center offset plus sum of link potentials (links recomputed here)."""
    return _energy(config, compute_links(config, r_a), reference_center, fn)


def lyapunov_rate(config: SwarmConfig, fn: InteractionFunction, r_s: float) -> float:
    """Analytic decay rate: minus the sum of squared control inputs."""
    u, _ = velocities(config.positions, fn, r_s)
    return -float(np.einsum("ik,ik->", u, u))


@dataclass(frozen=True)
class LyapunovSample:
    t: float
    value: float
    rate_analytic: float
    rate_numeric: float
    link_count: int
    flagged: bool  # links changed over [t, t+dt]: the comparison is invalid there
    mismatch: bool  # unflagged but |rate_numeric - rate_analytic| > tol


@dataclass(frozen=True)
class DissipationReport:
    samples: tuple[LyapunovSample, ...]
    values: tuple[float, ...]  # energy at every recorded step, the last one included
    tol: float
    agreement_fraction: float  # over unflagged samples
    flagged_count: int


def dissipation_check(
    traj: Trajectory,
    fn: InteractionFunction,
    params: SimulationParams,
    tol: float = 1e-3,
) -> DissipationReport:
    """Compare the finite difference of the energy against its analytic rate.

    Requires a trajectory recorded with stride 1.  A step where the link set
    changes is flagged and excluded from the agreement statistic (the energy
    is only differentiable while the link set is constant).
    """
    if params.record_every != 1:
        raise ValueError("dissipation check requires record_every == 1")
    ref = swarm_center(traj.initial)
    n_rec = len(traj.times)
    values = np.empty(n_rec)
    link_keys = []
    link_counts = []
    for k in range(n_rec):
        cfg = traj.config(k)
        links = compute_links(cfg, params.R_a)
        values[k] = _energy(cfg, links, ref, fn)
        link_keys.append(links.pairs.tobytes())
        link_counts.append(links.m)
    samples = []
    agree = 0
    unflagged = 0
    for k in range(n_rec - 1):
        dt = traj.times[k + 1] - traj.times[k]
        rate_num = (values[k + 1] - values[k]) / dt
        rate_an = lyapunov_rate(traj.config(k), fn, params.R_s)
        flagged = link_keys[k + 1] != link_keys[k]
        mismatch = False
        if not flagged:
            unflagged += 1
            mismatch = abs(rate_num - rate_an) > tol * (1.0 + abs(rate_an))
            agree += not mismatch
        samples.append(
            LyapunovSample(
                t=float(traj.times[k]),
                value=float(values[k]),
                rate_analytic=rate_an,
                rate_numeric=float(rate_num),
                link_count=link_counts[k],
                flagged=flagged,
                mismatch=mismatch,
            )
        )
    fraction = agree / unflagged if unflagged else 1.0
    return DissipationReport(
        samples=tuple(samples),
        values=tuple(values.tolist()),
        tol=tol,
        agreement_fraction=fraction,
        flagged_count=sum(s.flagged for s in samples),
    )
