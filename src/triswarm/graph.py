"""Combinatorial and metric structure of a swarm configuration.

Links within the maximum link length, incidence and rigidity matrices,
rigid-motion basis, rank-based infinitesimal rigidity test.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np
from scipy.linalg import lapack

from .errors import DegenerateConfigurationError, InvalidInputError

#: Relative tolerance of every numerical rank decision.  Comfortably
#: separates the O(1)-scale singular values of unit-spacing lattices from
#: rounding noise.
RANK_TOL = 1e-8

#: Pairs closer than this have no direction: `dynamics.velocities` drops
#: them, and `linearization.jacobian` refuses them.
COINCIDENCE_EPS = 1e-12

#: Largest entry of |B^T B - I| for the columns of B to count as orthonormal.
ORTHONORMAL_TOL = 1e-12


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


def pair_geometry(positions: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Dense pair pass: (n, n, 2) differences x_i - x_j and the n x n distance matrix."""
    diff = positions[:, None, :] - positions[None, :, :]
    return diff, np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))


#: Verlet skin of `links_along` (Verlet 1967, neighbour lists): candidates are
#: the pairs within r_a + SKIN, kept until some agent has moved more than
#: SKIN / 2 since they were found.  At 0.5 a 2000-step, 100-agent run
#: rebuilds 1 to 7 times for perturbations of 0.05 to 0.5, with about 1.9
#: candidates per link.
SKIN = 0.5


def _pairs_within(config: SwarmConfig, cutoff: float) -> tuple[np.ndarray, np.ndarray]:
    """Pairs i < j at distance <= cutoff, lexicographic, and their distances."""
    _, dist = pair_geometry(config.positions)
    iu, ju = np.triu_indices(config.n, k=1)
    within = dist[iu, ju] <= cutoff
    # triu_indices is already lexicographic in (i, j)
    return np.column_stack([iu[within], ju[within]]), dist[iu[within], ju[within]]


def _lengths(positions: np.ndarray, pairs: np.ndarray) -> np.ndarray:
    """Distances of the given pairs, rounded as pair_geometry rounds them."""
    diff = positions[pairs[:, 0]] - positions[pairs[:, 1]]
    return np.sqrt(np.einsum("ij,ij->i", diff, diff))


def compute_links(config: SwarmConfig, r_a: float) -> LinkSet:
    """All agent pairs within the maximum link length r_a (boundary inclusive)."""
    if r_a <= 0:
        raise InvalidInputError("r_a must be positive")
    pairs, lengths = _pairs_within(config, r_a)
    return LinkSet(pairs=pairs, lengths=lengths)


def links_along(states: np.ndarray, r_a: float) -> Iterator[LinkSet]:
    """`compute_links(SwarmConfig(s), r_a)` for each state s of a (T, n, 2) sequence.

    One dense pass finds the candidate pairs within r_a + SKIN; each state
    re-measures only those.  By the triangle inequality no pair outside the
    candidates can come within r_a before some agent has moved SKIN / 2, so
    the candidates are found again once one has.  Pairs, order and lengths
    are those of `compute_links`, bit for bit.
    """
    if r_a <= 0:
        raise InvalidInputError("r_a must be positive")
    anchor = candidates = None
    for positions in states:
        if anchor is not None:
            moved = positions - anchor
            if np.einsum("ij,ij->i", moved, moved).max(initial=0.0) > (SKIN / 2) ** 2:
                anchor = None
        if anchor is None:
            anchor = positions
            candidates, _ = _pairs_within(SwarmConfig(positions), r_a + SKIN)
        lengths = _lengths(positions, candidates)
        within = lengths <= r_a
        yield LinkSet(pairs=candidates[within], lengths=lengths[within])


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


def _orthonormal(columns: np.ndarray) -> bool:
    gram_error = columns.T @ columns - np.eye(columns.shape[1])
    return bool(np.max(np.abs(gram_error), initial=0.0) <= ORTHONORMAL_TOL)  # False on NaN


def rigid_motion_basis(config: SwarmConfig) -> np.ndarray:
    """Orthonormal (2n, 3) basis: x-translation, y-translation, rotation about the center.

    Every column is annihilated by the configuration's rigidity matrix.
    The positions are centered relative to the first agent, so a swarm far
    from the origin keeps the digits of its spread.  Raises
    DegenerateConfigurationError when the rotation is not resolved: every
    agent at one point, or a spread so small that the rounding of the center
    leaves the rotation column short of orthogonal to the translations.
    """
    if config.n < 2:
        raise InvalidInputError("basis requires n >= 2")
    n = config.n
    tx = np.tile([1.0, 0.0], n)
    ty = np.tile([0.0, 1.0], n)
    shifted = config.positions - config.positions[0]
    centered = shifted - shifted.mean(axis=0)
    rot = np.column_stack([-centered[:, 1], centered[:, 0]]).reshape(-1)
    rot_norm = np.linalg.norm(rot)
    if rot_norm == 0.0:
        raise DegenerateConfigurationError("all agents at one point: no rotation about the center")
    basis = np.column_stack([tx / np.linalg.norm(tx), ty / np.linalg.norm(ty), rot / rot_norm])
    if not _orthonormal(basis):
        raise DegenerateConfigurationError("rotation about the center not resolved at this spread")
    return basis


@dataclass(frozen=True)
class RigidityMatrix:
    """The m x 2n rigidity matrix of `config` and `links`, held as its inputs.

    `numerical_rank` certifies its rank from the links (`_certifies_rigidity`);
    `np.asarray` builds the dense matrix (`rigidity_matrix`), which only the
    SVD fallback needs.
    """

    config: SwarmConfig
    links: LinkSet

    @property
    def shape(self) -> tuple[int, int]:
        return (self.links.m, 2 * self.config.n)

    def __array__(self, dtype=None, copy=None):
        return np.asarray(rigidity_matrix(self.config, self.links), dtype=dtype)


#: Band entries each link adds to M^T M, over its agents' coordinates
#: (l_x, l_y, h_x, h_y), l the agent placed first: row, column, which of
#: (d_x^2, d_x d_y, d_y^2) and sign.  Diagonal blocks +d d^T (upper half),
#: the off-diagonal block -d d^T.
_BAND_ROW = np.array([0, 0, 1, 2, 2, 3, 0, 0, 1, 1])
_BAND_COL = np.array([0, 1, 1, 2, 3, 3, 2, 3, 2, 3])
_BAND_TERM = np.array([0, 1, 2, 0, 1, 2, 0, 1, 1, 2])
_BAND_SIGN = np.array([1.0, 1, 1, 1, 1, 1, -1, -1, -1, -1])


def _certifies_rigidity(config: SwarmConfig, links: LinkSet) -> bool:
    """True when the SVD count of `numerical_rank` on M is proven to be q - 3; False when undecided.

    M is the m x q rigidity matrix (q = 2n), K = `rigid_motion_basis` its
    q x 3 kernel, s = |M|_F^2 >= sigma_1^2, tol = RANK_TOL and u = eps / 2
    the unit roundoff.  Every quantity below is O(m) to form from the links.

    Upper side: sigma_{q-2} <= |M K|_2 (min-max over the span of K), so
    r^2 = |M K|_F^2 <= tol^2 max_i |M e_i|^2 / 4 <= (tol sigma_1 / 2)^2 keeps
    the three last singular values at half the threshold or below.  Row e of
    M K is d_e^T (K_i - K_j) for link e = (i, j), d_e = x_i - x_j.

    Lower side: order the agents along their widest axis and pin three
    coordinates D: both of the first agent's and the last agent's across
    that axis.  K_D, the 3 x 3 rows of K at D, is then invertible (its
    determinant is proportional to their separation along the axis).  Any
    v orthogonal to K splits as v = K a + w with a = K_D^{-1} v_D and
    w_D = 0, and |w|^2 = |v|^2 + |K a|^2 >= |v|^2.  So with C the other
    q - 3 coordinates, M v = M K a + M_C w_C gives
    |M v| >= (sigma_min(M_C) - r kappa) |v|, kappa = |K_D^{-1}|_F, and by
    min-max over the complement of K, sigma_{q-3}(M) >= sigma_min(M_C) - r kappa.
    G = M_C^T M_C is banded in this order, with bandwidth b.  It is summed
    in band storage from the per-link blocks d_e d_e^T, and the banded
    Cholesky factorization of the computed G - c I is attempted.  Its
    errors, as spectral norms:
      - forming G: an entry sums at most delta products (delta the largest
        agent degree), so |dG| <= gamma_{delta+1} |M_C|^T |M_C| and
        |dG|_2 <= gamma_{delta+1} s;
      - the diagonal shift: u max_i |g_ii - c| <= u s;
      - Cholesky itself (Higham, Accuracy and Stability of Numerical
        Algorithms, Thm 10.3, whose inner products have at most b + 1 terms
        in a band): if it runs to completion, R^T R = A + dA with
        |dA| <= gamma_{b+1} |R^T| |R|, hence
        |dA|_2 <= gamma_{b+1} trace(A) / (1 - gamma_{b+1}) <= 2 gamma_{b+1} s.
    With gamma_k <= k eps their sum stays below (delta + 2 b + 6) eps s = E,
    with room for the rounding of s.  A completed factorization makes R^T R
    positive definite, so sigma_min(M_C)^2 = lambda_min(G) > c - E.  The
    shift c = (2 tol sqrt(s) + r kappa)^2 + E then gives
    sigma_{q-3}(M) > 2 tol sqrt(s) >= 2 tol sigma_1: the threshold is
    cleared by a factor of two, far more than the SVD's own rounding.  A
    framework with more flex than K (collinear, coincident, too few links)
    has lambda_min(G) ~ 0 and is left to the SVD.
    """
    n = config.n
    if links.m == 0:
        return False
    try:
        kernel = rigid_motion_basis(config)
    except DegenerateConfigurationError:
        return False
    pos = config.positions
    i, j = links.pairs.T
    d = pos[i] - pos[j]  # the rows of rigidity_matrix, bit for bit
    terms = np.column_stack([d[:, 0] * d[:, 0], d[:, 0] * d[:, 1], d[:, 1] * d[:, 1]])

    # |M e_c|^2 for each coordinate c = 2 agent + axis: d_x^2 and d_y^2 at both ends
    ends = np.concatenate([i, j])
    diag = np.bincount((2 * ends[:, None] + [0, 1]).ravel(), np.tile(terms[:, ::2], (2, 1)).ravel(), 2 * n)
    s = float(diag.sum())
    k3 = kernel.reshape(n, 2, 3)
    residual = np.einsum("ea,eac->ec", d, k3[i] - k3[j])
    r2 = float(np.einsum("ec,ec->", residual, residual))
    if not np.isfinite(s) or r2 > RANK_TOL**2 * float(diag.max()) / 4:
        return False

    axis = int(np.ptp(pos[:, 1]) > np.ptp(pos[:, 0]))
    order = np.argsort(pos[:, axis], kind="stable")
    try:
        k_d = kernel[[2 * order[0], 2 * order[0] + 1, 2 * order[-1] + 1 - axis]]
        kappa = float(np.linalg.norm(np.linalg.inv(k_d)))
    except np.linalg.LinAlgError:
        return False

    # band index of each agent's coordinates in this order, -1 where pinned
    place = np.empty(n, dtype=int)
    place[order] = np.arange(n)
    free = np.ones(2 * n, dtype=bool)
    free[[0, 1, 2 * n - 1 - axis]] = False
    index = np.where(free, np.cumsum(free) - 1, -1)[2 * place[:, None] + [0, 1]]
    first = np.where(place[i] < place[j], i, j)
    coords = np.column_stack([index[first], index[i + j - first]])
    rows, cols = coords[:, _BAND_ROW].ravel(), coords[:, _BAND_COL].ravel()
    kept = (rows >= 0) & (cols >= 0)
    rows, cols = rows[kept], cols[kept]
    b = int((cols - rows).max(initial=0))
    size = 2 * n - 3
    band = np.bincount(
        cols * (b + 1) + (b + rows - cols), (terms[:, _BAND_TERM] * _BAND_SIGN).ravel()[kept], size * (b + 1)
    ).reshape(size, b + 1).T  # LAPACK upper band storage, Fortran-ordered

    degree = int(np.bincount(links.pairs.ravel()).max())
    error = (degree + 2 * b + 6) * np.finfo(float).eps * s
    band[b] -= (2 * RANK_TOL * np.sqrt(s) + np.sqrt(r2) * kappa) ** 2 + error
    _, info = lapack.dpbtrf(band, overwrite_ab=1)
    return info == 0


def numerical_rank(matrix: np.ndarray | RigidityMatrix) -> int:
    """Singular values above RANK_TOL relative to the largest one.

    A `RigidityMatrix` is first offered to `_certifies_rigidity`, which tries
    to prove the rank 2n - 3 from its links without building it; the dense
    SVD runs only when it cannot, and the answer is the SVD's either way.
    """
    if isinstance(matrix, RigidityMatrix) and _certifies_rigidity(matrix.config, matrix.links):
        return matrix.shape[1] - 3
    matrix = np.asarray(matrix, dtype=float)
    if not np.all(np.isfinite(matrix)):
        raise InvalidInputError("matrix has non-finite entries")
    if matrix.size == 0:
        return 0
    sv = np.linalg.svd(matrix, compute_uv=False)
    return int(np.count_nonzero(sv > RANK_TOL * sv[0]))


def rigidity_rank(config: SwarmConfig, links: LinkSet) -> int:
    """Numerical rank of the rigidity matrix; certified from the links where possible."""
    if config.n < 2:
        raise InvalidInputError("rigidity test requires n >= 2")
    return numerical_rank(RigidityMatrix(config, links))


def is_infinitesimally_rigid(config: SwarmConfig, links: LinkSet) -> bool:
    """Rank test: a planar framework is infinitesimally rigid iff rank(M) = 2n - 3."""
    return rigidity_rank(config, links) == 2 * config.n - 3


def swarm_center(config: SwarmConfig) -> np.ndarray:
    """Arithmetic mean of the agent positions."""
    if config.n < 1:
        raise InvalidInputError("empty swarm has no center")
    return config.positions.mean(axis=0)
