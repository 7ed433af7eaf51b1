"""Closed-loop Jacobian at a configuration and its spectral classification.

At a configuration with pairwise force coefficient h(z) = f(z)/z, the
2x2 block coupling agents i and j (relative position r, distance z) is

    A_ij = h(z) I + (f'(z) z - f(z)) / z^3 * r r^T,

with dJ/dx_i = sum_j A_ij on the diagonal block and -A_ij off-diagonal.
The h(z) I part vanishes on any configuration whose links all sit at the
force root, leaving only the rank-one edge-direction terms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import InvalidInputError, SingularityError
from .graph import LinkSet, SwarmConfig, compute_links, rigidity_matrix, swarm_center
from .interaction import InteractionFunction

ZERO_TOL = 1e-8


def _links(config: SwarmConfig, radius: float) -> LinkSet:
    links = compute_links(config, radius)
    if links.m and links.lengths.min() < 1e-14:
        raise SingularityError("zero-length link")
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


def jacobian(config: SwarmConfig, fn: InteractionFunction, radius: float) -> np.ndarray:
    """2n x 2n Jacobian of the stacked force field with interaction cutoff `radius`."""
    links = _links(config, radius)
    z = links.lengths
    f = np.asarray(fn.force(z), dtype=float)
    fp = np.asarray(fn.derivative(z), dtype=float)
    r = config.positions[links.pairs[:, 0]] - config.positions[links.pairs[:, 1]]
    # float_power rounds like a scalar z**3; the array z**3 differs in the last bit for some z
    c = (fp * z - f) / np.float_power(z, 3)
    blocks = (f / z)[:, None, None] * np.eye(2) + c[:, None, None] * (r[:, :, None] * r[:, None, :])
    return _assemble(config.n, links, blocks)


def laplacian_term(config: SwarmConfig, fn: InteractionFunction, radius: float) -> np.ndarray:
    """The h(z) I part of the Jacobian alone: a weighted graph Laplacian.

    Exactly the zero matrix on any configuration whose links all sit at the
    force root, since the weights are f(z)/z.
    """
    links = _links(config, radius)
    h = np.asarray(fn.force(links.lengths), dtype=float) / links.lengths
    return _assemble(config.n, links, h[:, None, None] * np.eye(2))


def rigid_motion_basis(config: SwarmConfig) -> np.ndarray:
    """Orthonormal (2n, 3) basis: x-translation, y-translation, rotation about the center.

    Every column is annihilated exactly by the configuration's rigidity matrix.
    """
    if config.n < 2:
        raise InvalidInputError("basis requires n >= 2")
    n = config.n
    tx = np.tile([1.0, 0.0], n)
    ty = np.tile([0.0, 1.0], n)
    centered = config.positions - swarm_center(config)
    rot = np.column_stack([-centered[:, 1], centered[:, 0]]).reshape(-1)
    basis = np.column_stack([tx / np.linalg.norm(tx), ty / np.linalg.norm(ty), rot / np.linalg.norm(rot)])
    return basis


@dataclass(frozen=True)
class SpectrumReport:
    """Eigenvalues sorted by real part (descending) with kernel classification."""

    eigenvalues: np.ndarray  # complex, sorted by real part descending
    zero_count: int
    negative_count: int
    kernel_aligned: bool
    max_kernel_residual: float
    tol_zero: float

    @property
    def unclassified_count(self) -> int:
        return len(self.eigenvalues) - self.zero_count - self.negative_count


def spectral_analysis(
    j: np.ndarray,
    rigidity: np.ndarray,
    tol_zero: float = ZERO_TOL,
) -> SpectrumReport:
    """Classify the spectrum of j against the rigidity matrix.

    Eigenvalues with modulus below tol_zero times the spectral radius count
    as zero; eigenvalues with real part below minus that threshold count as
    negative.  kernel_aligned holds iff every zero-eigenvector is (relative
    residual <= tol_zero) in the rigidity kernel while no negative-eigenvector is.
    """
    j = np.asarray(j, dtype=float)
    if j.ndim != 2 or j.shape[0] != j.shape[1] or j.shape[0] % 2:
        raise InvalidInputError("Jacobian must be square with even dimension")
    eigvals, eigvecs = scipy.linalg.eig(j)
    order = np.argsort(-eigvals.real, kind="stable")
    eigvals = eigvals[order]
    eigvecs = eigvecs[:, order]
    radius = float(np.max(np.abs(eigvals), initial=0.0))
    thresh = tol_zero * radius
    is_zero = np.abs(eigvals) <= thresh
    is_negative = eigvals.real < -thresh
    m_norm = float(np.linalg.norm(rigidity, 2)) if rigidity.size else 1.0
    m_scale = m_norm if m_norm > 0 else 1.0

    def residual(vec: np.ndarray) -> float:
        if rigidity.size == 0:
            return 0.0
        return float(np.linalg.norm(rigidity @ vec) / (m_scale * np.linalg.norm(vec)))

    max_res = 0.0
    aligned = True
    for k in range(len(eigvals)):
        vec = eigvecs[:, k]
        if is_zero[k]:
            res = residual(vec)
            max_res = max(max_res, res)
            if res > tol_zero:
                aligned = False
        elif is_negative[k]:
            if residual(vec) <= tol_zero:
                aligned = False
    return SpectrumReport(
        eigenvalues=eigvals,
        zero_count=int(np.count_nonzero(is_zero)),
        negative_count=int(np.count_nonzero(is_negative)),
        kernel_aligned=aligned,
        max_kernel_residual=max_res,
        tol_zero=tol_zero,
    )


def analyze_configuration(
    config: SwarmConfig,
    fn: InteractionFunction,
    r_a: float,
    tol_zero: float = ZERO_TOL,
) -> SpectrumReport:
    """Jacobian, rigidity matrix and spectrum report for one configuration."""
    links = compute_links(config, r_a)
    return spectral_analysis(jacobian(config, fn, r_a), rigidity_matrix(config, links), tol_zero)


def kernel_principal_angles(config: SwarmConfig, j: np.ndarray, tol_zero: float = ZERO_TOL) -> np.ndarray:
    """Principal angles between the numerical zero-eigenspace of j and the rigid-motion basis."""
    eigvals, eigvecs = scipy.linalg.eig(np.asarray(j, dtype=float))
    radius = float(np.max(np.abs(eigvals), initial=0.0))
    sel = np.abs(eigvals) <= tol_zero * radius
    zero_space = eigvecs[:, sel].real
    basis = rigid_motion_basis(config)
    return scipy.linalg.subspace_angles(zero_space, basis)
