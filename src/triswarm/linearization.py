"""Closed-loop Jacobian at a configuration and its spectral classification.

At a configuration with pairwise force coefficient h(z) = f(z)/z, the
2x2 block coupling agents i and j (relative position r, distance z) is

    A_ij = h(z) I + (f'(z) z - f(z)) / z^3 * r r^T,

with dJ/dx_i = sum_j A_ij on the diagonal block and -A_ij off-diagonal.
The h(z) I part vanishes on any configuration whose links all sit at the
force root, leaving only the rank-one edge-direction terms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import InvalidInputError, SingularityError
from .graph import COINCIDENCE_EPS, LinkSet, SwarmConfig, compute_links, rigid_motion_basis, rigidity_matrix
from .interaction import InteractionFunction

#: Relative tolerance of the spectral split: a zero mode has |lambda| <= ZERO_TOL
#: times the spectral radius and lies in the rigidity kernel when |M v| / |M|_2 <= ZERO_TOL.
ZERO_TOL = 1e-8


def _links(config: SwarmConfig, radius: float) -> LinkSet:
    links = compute_links(config, radius)
    if links.m and links.lengths.min() < COINCIDENCE_EPS:
        raise SingularityError("coincident agents: a link has no direction")
    return links


def _assemble(n: int, links: LinkSet, blocks: np.ndarray) -> np.ndarray:
    """2n x 2n matrix with +A_ij on the diagonal blocks (i, i), (j, j) and -A_ij off it.

    Listing each link's second agent before its first makes the sequential
    add.at sum every diagonal block in ascending partner order, the order
    in which a loop over the lexicographic link list adds them; the result
    is then bit-equal to such a loop.
    """
    j = np.zeros((n, 2, n, 2))
    a, b = links.pairs.T
    ends = np.concatenate([b, a])
    np.add.at(j, (ends, slice(None), ends, slice(None)), np.concatenate([blocks, blocks]))
    j[a, :, b, :] -= blocks
    j[b, :, a, :] -= blocks
    return j.reshape(2 * n, 2 * n)


def _jacobian(config: SwarmConfig, links: LinkSet, fn: InteractionFunction) -> np.ndarray:
    z = links.lengths
    f = np.asarray(fn.force(z), dtype=float)
    fp = np.asarray(fn.derivative(z), dtype=float)
    r = config.positions[links.pairs[:, 0]] - config.positions[links.pairs[:, 1]]
    # float_power rounds like a scalar z**3; the array z**3 differs in the last bit for some z
    c = (fp * z - f) / np.float_power(z, 3)
    blocks = (f / z)[:, None, None] * np.eye(2) + c[:, None, None] * (r[:, :, None] * r[:, None, :])
    return _assemble(config.n, links, blocks)


def jacobian(config: SwarmConfig, fn: InteractionFunction, radius: float) -> np.ndarray:
    """2n x 2n Jacobian of the stacked force field with interaction cutoff `radius`.

    Exactly symmetric: every block A_ij is, and _assemble places it symmetrically.
    """
    return _jacobian(config, _links(config, radius), fn)


def _eigensplit(j: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Eigenvalues (descending), orthonormal eigenvectors and zero mask of a symmetric j.

    An eigenvalue counts as zero when |lambda| <= ZERO_TOL * max |lambda|.
    """
    j = np.asarray(j, dtype=float)
    if j.ndim != 2 or j.shape[0] != j.shape[1] or j.shape[0] % 2:
        raise InvalidInputError("Jacobian must be square with even dimension")
    if not np.array_equal(j, j.T):
        raise InvalidInputError("Jacobian must be exactly symmetric")
    eigvals, eigvecs = scipy.linalg.eigh(j)
    eigvals, eigvecs = eigvals[::-1], eigvecs[:, ::-1]
    is_zero = np.abs(eigvals) <= ZERO_TOL * np.max(np.abs(eigvals), initial=0.0)
    return eigvals, eigvecs, is_zero


@dataclass(frozen=True)
class SpectrumReport:
    """Real eigenvalues sorted descending, with kernel classification."""

    eigenvalues: np.ndarray  # real, descending: positive, then zero, then negative modes
    zero_count: int
    negative_count: int
    kernel_aligned: bool
    max_kernel_residual: float

    @property
    def unclassified_count(self) -> int:
        """Positive (unstable) modes: neither zero nor negative."""
        return len(self.eigenvalues) - self.zero_count - self.negative_count

    @property
    def max_real_nonzero_eig(self) -> float:
        """Largest eigenvalue not classified as zero; NaN when every one is."""
        k = 0 if self.unclassified_count else self.zero_count
        return float(self.eigenvalues[k]) if k < len(self.eigenvalues) else math.nan


def spectral_analysis(j: np.ndarray, rigidity: np.ndarray) -> SpectrumReport:
    """Classify the spectrum of the symmetric j against the rigidity matrix.

    Eigenvalues with modulus at most ZERO_TOL times the spectral radius count
    as zero; the others below zero count as negative.  kernel_aligned holds
    iff every zero-eigenvector is (residual |M v| / |M|_2 <= ZERO_TOL) in the
    rigidity kernel while no negative-eigenvector is.
    """
    # The norm (an SVD) before the eigensolve, and |M v| over blocks of 64
    # eigenvectors: either the other order or the whole (m, 2n) product at
    # once raised the process's peak memory by 6-13 MB at n = 400.
    m_norm = float(np.linalg.norm(rigidity, 2)) if rigidity.size else 0.0
    eigvals, eigvecs, is_zero = _eigensplit(j)
    is_negative = ~is_zero & (eigvals < 0)
    blocks = [np.linalg.norm(rigidity @ eigvecs[:, k : k + 64], axis=0) for k in range(0, eigvecs.shape[1], 64)]
    residuals = np.concatenate(blocks) / (m_norm or 1.0)
    zero_res, negative_res = residuals[is_zero], residuals[is_negative]
    return SpectrumReport(
        eigenvalues=eigvals,
        zero_count=zero_res.size,
        negative_count=negative_res.size,
        kernel_aligned=bool(np.all(zero_res <= ZERO_TOL) and np.all(negative_res > ZERO_TOL)),
        max_kernel_residual=float(np.max(zero_res, initial=0.0)),
    )


def analyze_configuration(config: SwarmConfig, fn: InteractionFunction) -> SpectrumReport:
    """Jacobian, rigidity matrix and spectrum report for one configuration, from its links within fn.R_a."""
    links = _links(config, fn.R_a)
    return spectral_analysis(_jacobian(config, links, fn), rigidity_matrix(config, links))


def kernel_principal_angles(config: SwarmConfig, j: np.ndarray) -> np.ndarray:
    """Principal angles between the numerical zero-eigenspace of j and the rigid-motion basis."""
    _, eigvecs, is_zero = _eigensplit(j)
    return scipy.linalg.subspace_angles(eigvecs[:, is_zero], rigid_motion_basis(config))
