"""Combinatorial and metric structure of a swarm configuration.

Links within the maximum link length, incidence and rigidity matrices,
rigid-motion basis, rank-based infinitesimal rigidity test.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np
from scipy.linalg import blas, lapack

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
    Raises DegenerateConfigurationError when the rotation is not resolved:
    every agent at one point, or a spread so small that the rounding of the
    center leaves the rotation column short of orthogonal to the translations.
    """
    if config.n < 2:
        raise InvalidInputError("basis requires n >= 2")
    n = config.n
    tx = np.tile([1.0, 0.0], n)
    ty = np.tile([0.0, 1.0], n)
    centered = config.positions - swarm_center(config)
    rot = np.column_stack([-centered[:, 1], centered[:, 0]]).reshape(-1)
    rot_norm = np.linalg.norm(rot)
    if rot_norm == 0.0:
        raise DegenerateConfigurationError("all agents at one point: no rotation about the center")
    basis = np.column_stack([tx / np.linalg.norm(tx), ty / np.linalg.norm(ty), rot / rot_norm])
    if not _orthonormal(basis):
        raise DegenerateConfigurationError("rotation about the center not resolved at this spread")
    return basis


def _motion_kernel(config: SwarmConfig) -> np.ndarray | None:
    """`rigid_motion_basis`, or None where it is undefined (the rank then comes from the SVD)."""
    try:
        return rigid_motion_basis(config)
    except DegenerateConfigurationError:
        return None


def _certifies_corank(matrix: np.ndarray, kernel: np.ndarray, tol: float) -> bool:
    """True when the SVD count of `numerical_rank` is proven to be q - k; False when undecided.

    M is the m x q matrix, K the q x k orthonormal kernel, s = |M|_F^2 >= sigma_1^2,
    and u = eps / 2 the unit roundoff.

    Upper side: sigma_{q-k+1} <= |M K|_2 (min-max over the span of K), so
    |M K|_F^2 <= tol^2 max_i |M e_i|^2 / 4 <= (tol sigma_1 / 2)^2 keeps every
    singular value past the (q - k)-th at half the threshold or below.

    Lower side: G = M^T M + s K K^T is a positive semidefinite rank-k update
    of M^T M, so by interlacing lambda_min(G) <= sigma_{q-k}^2.  The Cholesky
    factorization of the computed G - c I is attempted.  Its errors, as
    spectral norms:
      - forming M^T M (m-term dot products): gamma_m |M|_F^2 <= m eps s;
      - forming s K K^T: gamma_{k+1} s |K|_F^2 <= (k + 1) k eps s < q (q + 1) eps s;
      - the diagonal shift: u max_i |g_ii| <= q eps s;
      - Cholesky itself (Higham, Accuracy and Stability of Numerical
        Algorithms, Thms 10.3 and 10.5): if it runs to completion,
        R^T R = A + dA with |dA| <= gamma_{q+1} |R^T| |R|, hence
        |dA|_2 <= gamma_{q+1} trace(A) / (1 - gamma_{q+1}) <= (q + 1) eps (k + 1) s
        <= q (q + 1) eps s, as trace(A) <= (k + 1) s and k < q.
    Their sum stays below (4 q (q + 1) + m) eps s, with room for the rounding
    of s and c.  A completed factorization makes R^T R positive definite, so
    sigma_{q-k}^2 >= lambda_min(G) > c - (4 q (q + 1) + m) eps s = tol^2 s
    >= (tol sigma_1)^2.  As c >= (tol^2 + 24 eps) s, sigma_{q-k} then clears
    the threshold by far more than the SVD's own rounding.  A framework with
    more flex than K (collinear, coincident, too few links) has
    lambda_min(G) ~ 0 and is left to the SVD.
    """
    q, k = kernel.shape
    # matrix.T of a C-ordered matrix is a Fortran view: dsyrk reads it in place
    gram = blas.dsyrk(1.0, matrix.T)  # upper triangle of M^T M
    diag = gram.diagonal()
    s = float(diag.sum())
    residual = matrix @ kernel
    if float(np.einsum("ij,ij->", residual, residual)) > tol**2 * float(diag.max()) / 4:
        return False
    gram = blas.dsyrk(s, kernel, beta=1.0, c=gram, overwrite_c=1)
    shift = (tol**2 + (4 * q * (q + 1) + matrix.shape[0]) * np.finfo(float).eps) * s
    np.fill_diagonal(gram, gram.diagonal() - shift)
    _, info = lapack.dpotrf(gram, clean=0, overwrite_a=1)
    return info == 0


def numerical_rank(matrix: np.ndarray, kernel: np.ndarray | None = None) -> int:
    """Singular values above RANK_TOL relative to the largest one.

    `kernel` holds q x k orthonormal columns (k < q, q the column count) that
    the matrix maps to zero, such as the rigid motions of a rigidity matrix.
    Given it, a certificate (`_certifies_corank`: one Cholesky factorization
    of M^T M) first tries to prove the rank q - k, and the SVD runs only when
    it cannot; the answer is the SVD's either way.
    """
    matrix = np.asarray(matrix, dtype=float)
    if not np.all(np.isfinite(matrix)):
        raise InvalidInputError("matrix has non-finite entries")
    if kernel is not None:
        kernel = np.asarray(kernel, dtype=float)
        q = matrix.shape[-1]
        if kernel.ndim != 2 or kernel.shape[0] != q or kernel.shape[1] >= q:
            raise InvalidInputError(f"kernel must be ({q}, k) with k < {q}, got {kernel.shape}")
        if not _orthonormal(kernel):
            raise InvalidInputError("kernel columns must be orthonormal")
    if matrix.size == 0:
        return 0
    if kernel is not None and _certifies_corank(matrix, kernel, RANK_TOL):
        return matrix.shape[1] - kernel.shape[1]
    sv = np.linalg.svd(matrix, compute_uv=False)
    return int(np.count_nonzero(sv > RANK_TOL * sv[0]))


def rigidity_rank(config: SwarmConfig, links: LinkSet) -> int:
    """Numerical rank of the rigidity matrix, with the rigid motions as its known kernel."""
    if config.n < 2:
        raise InvalidInputError("rigidity test requires n >= 2")
    return numerical_rank(rigidity_matrix(config, links), kernel=_motion_kernel(config))


def is_infinitesimally_rigid(config: SwarmConfig, links: LinkSet) -> bool:
    """Rank test: a planar framework is infinitesimally rigid iff rank(M) = 2n - 3."""
    return rigidity_rank(config, links) == 2 * config.n - 3


def swarm_center(config: SwarmConfig) -> np.ndarray:
    """Arithmetic mean of the agent positions."""
    if config.n < 1:
        raise InvalidInputError("empty swarm has no center")
    return config.positions.mean(axis=0)
