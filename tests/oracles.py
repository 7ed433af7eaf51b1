"""Independent oracles used by the test suite.

These deliberately avoid the library's own code paths: quadrature instead
of the closed-form potential, central differences instead of the assembled
Jacobian, and numpy's rank instead of the thresholded SVD counter.
"""

import numpy as np


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


def loop_laplacian_term(positions, pairs, lengths, fn):
    """The h(z) I part of loop_jacobian."""
    f = np.asarray(fn.force(lengths), dtype=float)
    return _loop_assemble(len(positions), pairs, lambda e, a, b: (f[e] / lengths[e]) * np.eye(2))
