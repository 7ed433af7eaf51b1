"""Triangular lattice generation, disk perturbation, triangularity test.

Lattice sites live on the integer axial grid (q, r) and are mapped to the
plane only at output time: x = R*(q + r/2), y = R*r*sqrt(3)/2, so the
spacing is exact up to a single floating multiply.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateConfigurationError, GenerationError, InvalidInputError
from .graph import RANK_TOL, SwarmConfig, compute_links, numerical_rank, rigidity_matrix

AXIAL_NEIGHBORS = ((1, 0), (-1, 0), (0, 1), (0, -1), (1, -1), (-1, 1))

#: Site-selection policies for random accretion growth.  "accretion" picks
#: uniformly among frontier sites touching at least two occupied sites, giving
#: varied shapes (blobs, branches); "compact" weights those sites by the cube
#: of their occupied-neighbor count, giving rounder swarms that relax faster.
GROWTH_POLICIES = ("accretion", "compact")


@dataclass(frozen=True)
class LatticeSpec:
    n: int
    R: float = 1.0
    seed: int = 0
    growth: str = "accretion"

    def __post_init__(self):
        if self.n < 3:
            raise InvalidInputError("triangular lattice requires n >= 3")
        if self.R <= 0:
            raise InvalidInputError("R must be positive")
        if self.growth not in GROWTH_POLICIES:
            raise InvalidInputError(
                f"unknown growth policy {self.growth!r}; choose from {sorted(GROWTH_POLICIES)}"
            )


def _axial_to_plane(sites, r: float) -> np.ndarray:
    q = np.array([s[0] for s in sites], dtype=float)
    rr = np.array([s[1] for s in sites], dtype=float)
    return np.column_stack([r * (q + 0.5 * rr), r * (math.sqrt(3.0) / 2.0) * rr])


def _grow_sites(
    n: int, rng: np.random.Generator, growth: str = "accretion"
) -> list[tuple[int, int]]:
    """Random accretion on the triangular grid.

    New sites are drawn from the frontier sites adjacent to at least two
    occupied sites (one, while only one site exists), which keeps every
    intermediate configuration infinitesimally rigid: each addition is
    pinned by two independent unit-length constraints.  "accretion" draws
    uniformly; "compact" weights each candidate by neighbor_count**3.
    """
    occupied: set[tuple[int, int]] = {(0, 0)}
    order = [(0, 0)]
    neighbor_count: dict[tuple[int, int], int] = {}
    for d in AXIAL_NEIGHBORS:
        neighbor_count[d] = 1
    while len(occupied) < n:
        need = 2 if len(occupied) >= 2 else 1
        candidates = sorted(
            (s, c) for s, c in neighbor_count.items() if c >= need
        )
        if growth == "compact":
            weights = np.array([float(c) ** 3 for _, c in candidates])
            idx = rng.choice(len(candidates), p=weights / weights.sum())
        else:
            idx = rng.integers(len(candidates))
        site = candidates[idx][0]
        occupied.add(site)
        order.append(site)
        del neighbor_count[site]
        for dq, dr in AXIAL_NEIGHBORS:
            nb = (site[0] + dq, site[1] + dr)
            if nb not in occupied:
                neighbor_count[nb] = neighbor_count.get(nb, 0) + 1
    return order


def generate_triangular(spec: LatticeSpec, r_a: float) -> SwarmConfig:
    """Seeded random triangular configuration with all links of length R.

    Accretion pins every new site by two unit links, so each draw is rigid;
    the result is still verified (exact link lengths and infinitesimal
    rigidity) before returning.
    """
    if not (spec.R < r_a < spec.R * math.sqrt(3.0)):
        raise InvalidInputError("r_a must lie strictly between R and R*sqrt(3)")
    sites = _grow_sites(spec.n, np.random.default_rng(spec.seed), spec.growth)
    config = SwarmConfig(_axial_to_plane(sites, spec.R))
    if not is_triangular(config, spec.R, r_a).ok:
        raise GenerationError(f"generated lattice failed verification (n={spec.n}, seed={spec.seed})")
    return config


def perturb(config: SwarmConfig, delta: float, seed: int) -> SwarmConfig:
    """Displace every agent by an independent uniform-in-disk sample of radius delta."""
    if delta < 0:
        raise InvalidInputError("delta must be non-negative")
    rng = np.random.default_rng(seed)
    radius = delta * np.sqrt(rng.random(config.n))
    angle = 2.0 * np.pi * rng.random(config.n)
    disp = np.column_stack([radius * np.cos(angle), radius * np.sin(angle)])
    return SwarmConfig(config.positions + disp)


@dataclass(frozen=True)
class TriangularityReport:
    ok: bool
    rigid: bool
    rank: int
    max_length_deviation: float
    link_count: int
    tol_len: float
    tol_rank: float


def is_triangular(
    config: SwarmConfig,
    r: float,
    r_a: float,
    tol_len: float | None = None,
    tol_rank: float = RANK_TOL,
) -> TriangularityReport:
    """Rigidity plus unit-length links, with the measured deviations attached."""
    if tol_len is None:
        tol_len = 1e-6 * r
    links = compute_links(config, r_a)
    rank = numerical_rank(rigidity_matrix(config, links), tol_rank) if config.n >= 2 else 0
    rigid = rank == 2 * config.n - 3
    deviation = float(np.max(np.abs(links.lengths - r), initial=0.0)) if links.m else math.inf
    ok = rigid and links.m > 0 and deviation <= tol_len
    return TriangularityReport(
        ok=ok,
        rigid=rigid,
        rank=rank,
        max_length_deviation=deviation,
        link_count=links.m,
        tol_len=tol_len,
        tol_rank=tol_rank,
    )


def link_error(config: SwarmConfig, r: float, r_a: float) -> float:
    """Maximum deviation of link lengths from the desired length R."""
    links = compute_links(config, r_a)
    if links.m == 0:
        raise DegenerateConfigurationError("configuration has no links")
    return float(np.max(np.abs(links.lengths - r)))
