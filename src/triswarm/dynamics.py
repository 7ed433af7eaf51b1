"""Single-integrator swarm dynamics under the virtual-force control law.

Forward Euler with synchronous updates: all control inputs are evaluated
on the pre-step configuration, which preserves the exact antisymmetry of
pairwise forces and hence the invariance of the swarm center.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import IntegrationDivergedError, InvalidInputError
from .graph import COINCIDENCE_EPS, SwarmConfig, pair_geometry
from .interaction import R_A_DEFAULT, InteractionFunction


@dataclass(frozen=True)
class SimulationParams:
    """Geometry and integration parameters of one run."""

    R: float = 1.0
    R_a: float = R_A_DEFAULT
    R_s: float = 3.0
    dt: float = 0.01
    horizon: float = 20.0
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
    inputs: np.ndarray | None = None  # (T, n, 2): the control input at each recorded state

    def config(self, k: int) -> SwarmConfig:
        return SwarmConfig(self.states[k])

    @property
    def initial(self) -> SwarmConfig:
        return self.config(0)

    @property
    def final(self) -> SwarmConfig:
        return self.config(len(self.times) - 1)


def velocities(positions: np.ndarray, fn: InteractionFunction, r_s: float) -> tuple[np.ndarray, int]:
    """Control inputs of all agents, plus the count of coincident pairs skipped.

    Pairs closer than COINCIDENCE_EPS have no direction; their contribution
    is dropped and they are counted.
    """
    n = positions.shape[0]
    diff, dist = pair_geometry(positions)
    np.fill_diagonal(dist, np.inf)
    coincident = dist < COINCIDENCE_EPS
    warn = int(np.count_nonzero(coincident)) // 2
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
) -> Trajectory:
    """Integrate over the full horizon, recording every record_every steps.

    Each recorded state is stored with the control input evaluated on it
    (`Trajectory.inputs`); the final state's input takes one evaluation
    beyond the n_steps that drive the integration and does not count its
    coincident pairs.  On a non-finite state, IntegrationDivergedError carries
    the states recorded so far, with their inputs.  Deterministic: identical
    inputs produce bit-identical trajectories.
    """
    n_steps, stride = params.n_steps, params.record_every
    n_rec = -(-n_steps // stride) + 1  # steps 0, stride, 2 * stride, ... and the last
    pos = initial.positions.copy()
    times = np.empty(n_rec)
    states = np.empty((n_rec,) + pos.shape)
    inputs = np.empty_like(states)
    warn_total = 0
    r = 0  # next record
    for k in range(n_steps + 1):
        if k % stride == 0 or k == n_steps:
            times[r] = k * params.dt
            states[r] = pos
            r += 1
        if k == n_steps:
            inputs[r - 1] = velocities(pos, fn, params.R_s)[0]
            break
        u, warn = velocities(pos, fn, params.R_s)
        warn_total += warn
        if k % stride == 0:
            inputs[r - 1] = u
        pos = pos + params.dt * u
        if not np.all(np.isfinite(pos)):
            recorded = Trajectory(times[:r], states[:r], params, warn_total, inputs[:r])
            raise IntegrationDivergedError(f"diverged at step {k + 1}", trajectory=recorded, step=k + 1)
    return Trajectory(
        times=times,
        states=states,
        params=params,
        coincident_warnings=warn_total,
        inputs=inputs,
    )


def center_drift(traj: Trajectory) -> float:
    """Maximum displacement of the swarm center over the recorded trajectory."""
    if len(traj.times) == 0:
        raise InvalidInputError("empty trajectory")
    centers = traj.states.mean(axis=1)
    return float(np.linalg.norm(centers - centers[0], axis=1).max())
