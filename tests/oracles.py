"""Independent oracles used by the test suite.

These deliberately avoid the library's own code paths: quadrature instead
of the closed-form potential, central differences instead of the assembled
Jacobian, and numpy's rank instead of the thresholded SVD counter.  The
loop, general-eigensolve and recomputing references reproduce earlier
implementations that the library's faster paths must agree with.
`linear_spring` is a second force profile, one that never vanishes.
"""

import csv
from functools import partial

import numpy as np
import scipy.linalg

from triswarm.diagnostics import DISSIPATION_TOL, DissipationReport, LyapunovSample
from triswarm.dynamics import velocities
from triswarm.graph import compute_links
from triswarm.interaction import R_A_DEFAULT, InteractionFunction


def adaptive_simpson(f, a, b, tol=1e-12, max_depth=50):
    """Adaptive Simpson quadrature of f over [a, b]."""

    def simpson(x0, x2, f0, f1, f2):
        return (x2 - x0) / 6.0 * (f0 + 4.0 * f1 + f2)

    def recurse(x0, x2, f0, f1, f2, whole, eps, depth):
        x1 = 0.5 * (x0 + x2)
        lm = 0.5 * (x0 + x1)
        rm = 0.5 * (x1 + x2)
        flm = f(lm)
        frm = f(rm)
        left = simpson(x0, x1, f0, flm, f1)
        right = simpson(x1, x2, f1, frm, f2)
        if depth >= max_depth or abs(left + right - whole) <= 15.0 * eps:
            return left + right + (left + right - whole) / 15.0
        return recurse(x0, x1, f0, flm, f1, left, eps / 2.0, depth + 1) + recurse(
            x1, x2, f1, frm, f2, right, eps / 2.0, depth + 1
        )

    if a == b:
        return 0.0
    fa, fm, fb = f(a), f(0.5 * (a + b)), f(b)
    whole = simpson(a, b, fa, fm, fb)
    return recurse(a, b, fa, fm, fb, whole, tol, 0)


def finite_difference_jacobian(force_field, x0, h=1e-6):
    """Central-difference Jacobian of a stacked force field at x0 (flat vector)."""
    x0 = np.asarray(x0, dtype=float).reshape(-1)
    dim = x0.size
    jac = np.empty((dim, dim))
    for k in range(dim):
        xp = x0.copy()
        xm = x0.copy()
        xp[k] += h
        xm[k] -= h
        jac[:, k] = (force_field(xp) - force_field(xm)) / (2.0 * h)
    return jac


def svd_rank(matrix, tol=1e-8):
    """Brute-force rank from the singular values, independent thresholding."""
    matrix = np.asarray(matrix, dtype=float)
    if matrix.size == 0:
        return 0
    sv = np.linalg.svd(matrix, compute_uv=False)
    if sv[0] == 0.0:
        return 0
    return int(np.sum(sv / sv[0] > tol))


def loop_rigidity_matrix(positions, pairs):
    """Rigidity matrix built one link at a time."""
    n = len(positions)
    m = np.zeros((len(pairs), 2 * n))
    for e, (i, j) in enumerate(pairs):
        d = positions[i] - positions[j]
        m[e, 2 * i : 2 * i + 2] = d
        m[e, 2 * j : 2 * j + 2] = -d
    return m


def _loop_assemble(n, pairs, block_of):
    j = np.zeros((2 * n, 2 * n))
    for e, (a, b) in enumerate(pairs):
        block = block_of(e, a, b)
        sa, sb = 2 * a, 2 * b
        j[sa : sa + 2, sa : sa + 2] += block
        j[sb : sb + 2, sb : sb + 2] += block
        j[sa : sa + 2, sb : sb + 2] -= block
        j[sb : sb + 2, sa : sa + 2] -= block
    return j


def loop_jacobian(positions, pairs, lengths, fn):
    """Closed-loop Jacobian built one link at a time from the 2x2 blocks
    A = h(z) I + (f'(z) z - f(z)) / z^3 r r^T."""
    f = np.asarray(fn.force(lengths), dtype=float)
    fp = np.asarray(fn.derivative(lengths), dtype=float)

    def block(e, a, b):
        z = lengths[e]
        r = positions[a] - positions[b]
        return (f[e] / z) * np.eye(2) + ((fp[e] * z - f[e]) / z**3) * np.outer(r, r)

    return _loop_assemble(len(positions), pairs, block)


def eig_spectral_analysis(j, rigidity, tol_zero=1e-8):
    """Spectrum classification from the general (complex) eigensolve, one eigenvector at a time.

    Returns a dict with the eigenvalues sorted by real part (descending), the
    zero/negative/unclassified counts, kernel_aligned, max_kernel_residual and
    max_real_nonzero_eig.
    """
    eigvals, eigvecs = scipy.linalg.eig(np.asarray(j, dtype=float))
    order = np.argsort(-eigvals.real, kind="stable")
    eigvals = eigvals[order]
    eigvecs = eigvecs[:, order]
    thresh = tol_zero * float(np.max(np.abs(eigvals), initial=0.0))
    is_zero = np.abs(eigvals) <= thresh
    is_negative = eigvals.real < -thresh
    m_norm = float(np.linalg.norm(rigidity, 2)) if rigidity.size else 1.0
    m_scale = m_norm if m_norm > 0 else 1.0

    def residual(vec):
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
    nonzero = [ev.real for ev, z in zip(eigvals, is_zero) if not z]
    zero_count = int(np.count_nonzero(is_zero))
    negative_count = int(np.count_nonzero(is_negative))
    return {
        "eigenvalues": eigvals,
        "zero_count": zero_count,
        "negative_count": negative_count,
        "unclassified_count": len(eigvals) - zero_count - negative_count,
        "kernel_aligned": aligned,
        "max_kernel_residual": max_res,
        "max_real_nonzero_eig": max(nonzero) if nonzero else float("nan"),
    }


def csv_write_trajectory(traj, path):
    """trajectory.csv written one csv.writer row at a time."""

    def fmt(x):
        return format(float(x), ".17g")

    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "agent", "x", "y"])
        for t, state in zip(traj.times, traj.states):
            for i, (x, y) in enumerate(state):
                writer.writerow([fmt(t), i, fmt(x), fmt(y)])


def _spring_force(z, r: float):
    out = r - np.asarray(z, dtype=float)
    return out if out.ndim else float(out)


def _spring_derivative(z):
    out = np.full_like(np.asarray(z, dtype=float), -1.0)
    return out if out.ndim else float(out)


def _spring_potential(z, r: float):
    out = 0.5 * (np.asarray(z, dtype=float) - r) ** 2
    return out if out.ndim else float(out)


def linear_spring(r: float = 1.0, r_a: float = R_A_DEFAULT) -> InteractionFunction:
    """Unsaturated linear profile f(z) = r - z: crosses zero at r but never vanishes."""
    return InteractionFunction(
        force=partial(_spring_force, r=r),
        derivative=_spring_derivative,
        potential=partial(_spring_potential, r=r),
        R=r,
        R_a=r_a,
    )


def recompute_dissipation_check(traj, fn, params):
    """dissipation_check that runs compute_links and velocities on every recorded state."""
    ref = traj.states[0].mean(axis=0)
    n_rec = len(traj.times)
    values = np.empty(n_rec)
    link_keys, link_counts = [], []
    for k in range(n_rec):
        links = compute_links(traj.config(k), fn.R_a)
        center_term = float(np.sum((ref - traj.states[k].mean(axis=0)) ** 2))
        values[k] = center_term + (float(np.sum(fn.potential(links.lengths))) if links.m else 0.0)
        link_keys.append(links.pairs.tobytes())
        link_counts.append(links.m)
    samples = []
    agree = unflagged = 0
    for k in range(n_rec - 1):
        dt = traj.times[k + 1] - traj.times[k]
        rate_num = (values[k + 1] - values[k]) / dt
        u, _ = velocities(traj.states[k], fn, params.R_s)
        rate_an = -float(np.einsum("ik,ik->", u, u))
        flagged = link_keys[k + 1] != link_keys[k]
        mismatch = False
        if not flagged:
            unflagged += 1
            mismatch = abs(rate_num - rate_an) > DISSIPATION_TOL * (1.0 + abs(rate_an))
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
    return DissipationReport(
        samples=tuple(samples),
        values=tuple(values.tolist()),
        agreement_fraction=agree / unflagged if unflagged else 1.0,
        flagged_count=sum(s.flagged for s in samples),
    )
