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
from .graph import LinkSet, SwarmConfig, compute_links, rigidity_rank

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
    occupied sites (one, while only one site exists).  Two neighbors pin a
    site unless they sit on opposite sides of it: then both links lie on one
    line, and the site stays flexible until a later site braces it, so a
    draw can end non-rigid (2 of 100 "accretion" seeds at n = 400).
    "accretion" draws uniformly; "compact" weights each candidate by
    neighbor_count**3.
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

    Every draw is verified (exact link lengths and infinitesimal rigidity)
    before returning.  Accretion does not guarantee rigidity: a site held by
    two collinear links flexes unless a later site braces it, and such a
    draw raises GenerationError naming n and the seed.
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


def is_triangular(
    config: SwarmConfig,
    r: float,
    r_a: float,
    tol_len: float | None = None,
) -> TriangularityReport:
    """Rigidity plus links of length r within tol_len (default 1e-6 r), with the measured deviation."""
    if tol_len is None:
        tol_len = 1e-6 * r
    links = compute_links(config, r_a)
    rank = rigidity_rank(config, links) if config.n >= 2 else 0
    rigid = rank == 2 * config.n - 3
    deviation = link_deviation(links, r) if links.m else math.inf
    ok = rigid and links.m > 0 and deviation <= tol_len
    return TriangularityReport(
        ok=ok,
        rigid=rigid,
        rank=rank,
        max_length_deviation=deviation,
        link_count=links.m,
    )


def link_error(config: SwarmConfig, r: float, r_a: float) -> float:
    """Maximum deviation of link lengths from the desired length R."""
    return link_deviation(compute_links(config, r_a), r)


def link_deviation(links: LinkSet, r: float) -> float:
    """The link error e: largest |length - r| over the links."""
    if links.m == 0:
        raise DegenerateConfigurationError("configuration has no links")
    return float(np.max(np.abs(links.lengths - r)))
