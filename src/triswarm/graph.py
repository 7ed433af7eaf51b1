"""Combinatorial and metric structure of a swarm configuration.

Links within the maximum link length, incidence and rigidity matrices,
rank-based infinitesimal rigidity test, congruence test.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError

#: Default relative tolerance for numerical rank decisions.  Comfortably
#: separates the O(1)-scale singular values of unit-spacing lattices from
#: rounding noise.
RANK_TOL = 1e-8


@dataclass(frozen=True)
class SwarmConfig:
    """Stacked planar positions of the n agents."""

    positions: np.ndarray  # (n, 2)

    def __post_init__(self):
        pos = np.asarray(self.positions, dtype=float)
        if pos.ndim != 2 or pos.shape[1] != 2:
            raise InvalidInputError(f"positions must be (n, 2), got {pos.shape}")
        if not np.all(np.isfinite(pos)):
            raise InvalidInputError("positions contain non-finite values")
        object.__setattr__(self, "positions", pos)

    @property
    def n(self) -> int:
        return self.positions.shape[0]

    def stacked(self) -> np.ndarray:
        """Configuration as a flat vector (x1, y1, x2, y2, ...)."""
        return self.positions.reshape(-1)


@dataclass(frozen=True)
class LinkSet:
    """Undirected links (i, j) with i < j, lexicographically ordered."""

    pairs: np.ndarray  # (m, 2) int
    lengths: np.ndarray  # (m,)

    def __post_init__(self):
        pairs = np.asarray(self.pairs, dtype=int).reshape(-1, 2)
        lengths = np.asarray(self.lengths, dtype=float).reshape(-1)
        if pairs.shape[0] != lengths.shape[0]:
            raise InvalidInputError("pairs/lengths size mismatch")
        if pairs.size and np.any(pairs[:, 0] >= pairs[:, 1]):
            raise InvalidInputError("links must satisfy i < j")
        object.__setattr__(self, "pairs", pairs)
        object.__setattr__(self, "lengths", lengths)

    @property
    def m(self) -> int:
        return self.pairs.shape[0]


def pairwise_distances(config: SwarmConfig) -> np.ndarray:
    """Full n x n Euclidean distance matrix."""
    diff = config.positions[:, None, :] - config.positions[None, :, :]
    return np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))


def compute_links(config: SwarmConfig, r_a: float) -> LinkSet:
    """All agent pairs within the maximum link length r_a (boundary inclusive)."""
    if r_a <= 0:
        raise InvalidInputError("r_a must be positive")
    dist = pairwise_distances(config)
    iu, ju = np.triu_indices(config.n, k=1)
    within = dist[iu, ju] <= r_a
    pairs = np.column_stack([iu[within], ju[within]])
    # triu_indices is already lexicographic in (i, j)
    return LinkSet(pairs=pairs, lengths=dist[iu[within], ju[within]])


def incidence_matrix(links: LinkSet, n: int) -> np.ndarray:
    """Signed n x m vertex-edge matrix; each link oriented low index -> high index."""
    if links.m and links.pairs.max() >= n:
        raise InvalidInputError("link index out of range")
    if links.m and links.pairs.min() < 0:
        raise InvalidInputError("negative agent index")
    b = np.zeros((n, links.m))
    cols = np.arange(links.m)
    b[links.pairs[:, 0], cols] = 1.0
    b[links.pairs[:, 1], cols] = -1.0
    return b


def rigidity_matrix(config: SwarmConfig, links: LinkSet) -> np.ndarray:
    """m x 2n matrix with edge-direction rows.

    Row for link (i, j) carries (x_i - x_j) in the agent-i block and
    (x_j - x_i) in the agent-j block.
    """
    if config.n < 2:
        raise InvalidInputError("rigidity matrix requires n >= 2")
    i, j = links.pairs.T
    d = config.positions[i] - config.positions[j]
    rows = np.arange(links.m)
    m = np.zeros((links.m, config.n, 2))
    m[rows, i] = d
    m[rows, j] = -d
    return m.reshape(links.m, 2 * config.n)


def numerical_rank(matrix: np.ndarray, tol: float = RANK_TOL) -> int:
    """Singular values above tol relative to the largest one."""
    matrix = np.asarray(matrix, dtype=float)
    if tol <= 0:
        raise InvalidInputError("tol must be positive")
    if not np.all(np.isfinite(matrix)):
        raise InvalidInputError("matrix has non-finite entries")
    if matrix.size == 0:
        return 0
    sv = np.linalg.svd(matrix, compute_uv=False)
    return int(np.count_nonzero(sv > tol * sv[0]))


def is_infinitesimally_rigid(config: SwarmConfig, links: LinkSet, tol: float = RANK_TOL) -> bool:
    """Rank test: a planar framework is infinitesimally rigid iff rank(M) = 2n - 3."""
    if config.n < 2:
        raise InvalidInputError("rigidity test requires n >= 2")
    return numerical_rank(rigidity_matrix(config, links), tol) == 2 * config.n - 3


def are_congruent(a: SwarmConfig, b: SwarmConfig, tol: float = 1e-9) -> bool:
    """True iff all pairwise inter-agent distances agree within tol."""
    if a.n != b.n:
        raise InvalidInputError(f"size mismatch: {a.n} vs {b.n}")
    da = pairwise_distances(a)
    db = pairwise_distances(b)
    return bool(np.max(np.abs(da - db), initial=0.0) <= tol)


def swarm_center(config: SwarmConfig) -> np.ndarray:
    """Arithmetic mean of the agent positions."""
    if config.n < 1:
        raise InvalidInputError("empty swarm has no center")
    return config.positions.mean(axis=0)
