"""Single-integrator swarm dynamics under the virtual-force control law.

Forward Euler with synchronous updates: all control inputs are evaluated
on the pre-step configuration, which preserves the exact antisymmetry of
pairwise forces and hence the invariance of the swarm center.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, IntegrationDivergedError, InvalidInputError
from .graph import SwarmConfig
from .interaction import R_A_DEFAULT, InteractionFunction

COINCIDENCE_EPS = 1e-12


@dataclass(frozen=True)
class SimulationParams:
    """Geometry, integration and reproducibility parameters of one run."""

    R: float = 1.0
    R_a: float = R_A_DEFAULT
    R_s: float = 3.0
    dt: float = 0.01
    horizon: float = 20.0
    seed: int = 0
    record_every: int = 1

    def __post_init__(self):
        if not (self.R < self.R_a < self.R * math.sqrt(3.0)):
            raise InvalidInputError(
                f"R_a must lie strictly between R and R*sqrt(3): got R={self.R}, R_a={self.R_a}"
            )
        if self.R_s < self.R_a:
            raise InvalidInputError("sensing radius R_s must be >= R_a")
        if self.dt <= 0:
            raise InvalidInputError("dt must be positive")
        if self.horizon < self.dt:
            raise InvalidInputError("horizon must cover at least one step")
        if self.record_every < 1:
            raise InvalidInputError("record_every must be >= 1")

    @property
    def n_steps(self) -> int:
        return int(round(self.horizon / self.dt))


@dataclass
class Trajectory:
    """Recorded snapshots of one simulation."""

    times: np.ndarray  # (T,)
    states: np.ndarray  # (T, n, 2)
    params: SimulationParams
    coincident_warnings: int = 0

    def config(self, k: int) -> SwarmConfig:
        return SwarmConfig(self.states[k])

    @property
    def initial(self) -> SwarmConfig:
        return self.config(0)

    @property
    def final(self) -> SwarmConfig:
        return self.config(len(self.times) - 1)


def velocities(
    positions: np.ndarray,
    fn: InteractionFunction,
    r_s: float,
    coincident_policy: str = "zero",
) -> tuple[np.ndarray, int]:
    """Control inputs of all agents, plus the count of coincident pairs skipped.

    coincident_policy: "zero" drops the contribution of pairs closer than
    1e-12 (counted); "raise" aborts instead.
    """
    n = positions.shape[0]
    diff = positions[:, None, :] - positions[None, :, :]
    dist = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
    np.fill_diagonal(dist, np.inf)
    coincident = dist < COINCIDENCE_EPS
    warn = int(np.count_nonzero(coincident)) // 2
    if warn and coincident_policy == "raise":
        raise DomainError(f"{warn} coincident agent pair(s)")
    mask = (dist <= r_s) & ~coincident
    weights = np.zeros((n, n))
    z = dist[mask]
    weights[mask] = fn.force(z) / z
    u = np.einsum("ij,ijk->ik", weights, diff)
    return u, warn


def simulate(
    initial: SwarmConfig,
    fn: InteractionFunction,
    params: SimulationParams,
    observers=(),
    coincident_policy: str = "zero",
) -> Trajectory:
    """Integrate over the full horizon, recording every record_every steps.

    Observers are callables (step_index, time, positions) invoked at every
    recorded step, including step 0 and the final step.  Deterministic:
    identical inputs produce bit-identical trajectories.
    """
    n_steps = params.n_steps
    pos = initial.positions.copy()
    times = [0.0]
    states = [pos.copy()]
    warn_total = 0
    for obs in observers:
        obs(0, 0.0, pos)
    for k in range(1, n_steps + 1):
        u, warn = velocities(pos, fn, params.R_s, coincident_policy)
        warn_total += warn
        pos = pos + params.dt * u
        if not np.all(np.isfinite(pos)):
            raise IntegrationDivergedError(
                f"diverged at step {k}", snapshot=SwarmConfig(states[-1]), step=k
            )
        if k % params.record_every == 0 or k == n_steps:
            t = k * params.dt
            times.append(t)
            states.append(pos.copy())
            for obs in observers:
                obs(k, t, pos)
    return Trajectory(
        times=np.asarray(times),
        states=np.asarray(states),
        params=params,
        coincident_warnings=warn_total,
    )


def center_drift(traj: Trajectory) -> float:
    """Maximum displacement of the swarm center over the recorded trajectory."""
    if len(traj.times) == 0:
        raise InvalidInputError("empty trajectory")
    centers = traj.states.mean(axis=1)
    return float(np.linalg.norm(centers - centers[0], axis=1).max())
