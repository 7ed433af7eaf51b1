"""Interaction force profiles, their potentials and derivatives.

The default profile is the saturated Lennard-Jones force
f(z) = min(a/z^2c - b/z^c, saturation), with short-range repulsion,
a root at the desired link length R = (a/b)^(1/c), and long-range
attraction that decays quickly beyond the maximum link length.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from .errors import DomainError, InvalidInputError

R_A_DEFAULT = (1.0 + math.sqrt(3.0)) / 2.0


@dataclass(frozen=True)
class LennardJonesParams:
    a: float = 0.5
    b: float = 0.5
    c: int = 12
    saturation: float = 1.0

    def __post_init__(self):
        if self.a <= 0 or self.b <= 0:
            raise InvalidInputError("a and b must be positive")
        if self.c < 1:
            raise InvalidInputError("c must be >= 1")
        if self.saturation <= 0:
            raise InvalidInputError("saturation must be positive")

    @property
    def root(self) -> float:
        """Zero of the unsaturated profile; the desired link length."""
        return (self.a / self.b) ** (1.0 / self.c)


def _require_positive(z):
    z = np.asarray(z, dtype=float)
    if np.any(z <= 0.0):
        raise DomainError("force profile is undefined for z <= 0")
    return z


def lj_force(z, params: LennardJonesParams, r_a: float = math.inf):
    """Saturated Lennard-Jones force, exactly zero beyond r_a. Accepts scalars or arrays."""
    z = _require_positive(z)
    w = z ** (-params.c)
    out = np.minimum(params.a * w * w - params.b * w, params.saturation)
    if r_a < math.inf:
        out = np.where(z > r_a, 0.0, out)
    return out if out.ndim else float(out)


def lj_derivative(
    z, params: LennardJonesParams, knot: float | None = None, r_a: float = math.inf
):
    """df/dz of the saturated profile: 0 on the saturated branch and beyond r_a.

    At exactly the saturation knot the derivative is undefined; the
    unsaturated branch value is returned there.
    """
    z = _require_positive(z)
    if knot is None:
        knot = saturation_knot(params)
    c = params.c
    unsat = -2 * c * params.a * z ** (-2 * c - 1) + c * params.b * z ** (-c - 1)
    out = np.where(z < knot, 0.0, unsat)
    if r_a < math.inf:
        out = np.where(z > r_a, 0.0, out)
    return out if out.ndim else float(out)


def _lj_antiderivative(z, params: LennardJonesParams):
    """Antiderivative of the unsaturated branch a*z^(-2c) - b*z^(-c)."""
    a, b, c = params.a, params.b, params.c
    return a * z ** (1 - 2 * c) / (1 - 2 * c) - b * z ** (1 - c) / (1 - c)


def lj_potential(
    z, params: LennardJonesParams, knot: float | None = None, r_a: float = math.inf
):
    """Closed-form potential: minus the integral of the force from R, constant beyond r_a."""
    z = _require_positive(z)
    if knot is None:
        knot = saturation_knot(params)
    g_at_r = _lj_antiderivative(params.root, params)
    p_at_knot = -(_lj_antiderivative(knot, params) - g_at_r)
    unsat = -(_lj_antiderivative(np.maximum(z, knot), params) - g_at_r)
    out = np.where(z < knot, p_at_knot + params.saturation * (knot - z), unsat)
    if r_a < math.inf:
        out = np.where(z > r_a, -(_lj_antiderivative(r_a, params) - g_at_r), out)
    return out if out.ndim else float(out)


def saturation_knot(params: LennardJonesParams, tol: float = 1e-14) -> float:
    """z where the unsaturated profile crosses the saturation cap.

    Solved by bisection on the monotone decreasing branch left of the root.
    """

    def raw(z):
        w = z ** (-params.c)
        return params.a * w * w - params.b * w

    hi = params.root  # raw(root) = 0 < saturation
    lo = hi
    while raw(lo) < params.saturation:
        lo *= 0.5
        if lo < 1e-300:
            raise InvalidInputError("saturation cap unreachable")
    while hi - lo > tol * hi:
        mid = 0.5 * (lo + hi)
        if raw(mid) > params.saturation:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@dataclass(frozen=True)
class InteractionFunction:
    """Force profile with its derivative and potential, plus geometry.

    Invariants: force(R) = 0; potential(R) = 0 and potential > 0 elsewhere
    on (0, R_a]; d(potential)/dz = -force where the force is continuous.
    The callables are module functions bound with functools.partial, so a
    profile pickles and can be sent to worker processes.
    """

    force: Callable
    derivative: Callable
    potential: Callable
    R: float
    R_a: float
    params: LennardJonesParams | None = None
    truncated: bool = False


def saturated_lennard_jones(
    params: LennardJonesParams | None = None,
    r_a: float = R_A_DEFAULT,
    truncate: bool = False,
) -> InteractionFunction:
    """Build the saturated Lennard-Jones interaction.

    With truncate=True the force is exactly zero beyond r_a (strict
    long-range vanishing); by default the untruncated tail is kept so the
    profile only approximately vanishes beyond r_a, which preserves
    long-range attraction between distant agents.
    """
    if params is None:
        params = LennardJonesParams()
    r = params.root
    if not (r < r_a):
        raise InvalidInputError("r_a must exceed the force root R")
    knot = saturation_knot(params)
    cutoff = r_a if truncate else math.inf
    return InteractionFunction(
        force=partial(lj_force, params=params, r_a=cutoff),
        derivative=partial(lj_derivative, params=params, knot=knot, r_a=cutoff),
        potential=partial(lj_potential, params=params, knot=knot, r_a=cutoff),
        R=r,
        R_a=r_a,
        params=params,
        truncated=truncate,
    )


def _spring_force(z, r: float):
    z = _require_positive(z)
    out = r - z
    return out if out.ndim else float(out)


def _spring_derivative(z):
    z = _require_positive(z)
    out = np.full_like(z, -1.0)
    return out if out.ndim else float(out)


def _spring_potential(z, r: float):
    z = _require_positive(z)
    out = 0.5 * (z - r) ** 2
    return out if out.ndim else float(out)


def linear_spring(r: float = 1.0, r_a: float = R_A_DEFAULT) -> InteractionFunction:
    """Unsaturated linear profile f(z) = r - z; crosses zero at r but never vanishes."""
    return InteractionFunction(
        force=partial(_spring_force, r=r),
        derivative=_spring_derivative,
        potential=partial(_spring_potential, r=r),
        R=r,
        R_a=r_a,
    )


@dataclass(frozen=True)
class ValidationReport:
    """Numerical audit of the short-range-repulsion/long-range-attraction assumptions."""

    root_zero: bool  # |f(R)| <= 1e-12
    sign_pattern: bool  # f > 0 below R, f < 0 above R on the sampled grid
    continuous: bool  # no Lipschitz-inconsistent jump on [grid_step, R_a]
    vanishing_exact: bool  # f identically zero on the sampled (R_a, 2 R_a]
    vanishing_residual: float  # max |f| on (R_a, 2 R_a]
    max_jump: float
    grid_step: float

    @property
    def core_passed(self) -> bool:
        """Root, sign and continuity checks (the vanishing check is informational)."""
        return self.root_zero and self.sign_pattern and self.continuous


def validate_assumption1(fn: InteractionFunction, grid_step: float = 1e-3) -> ValidationReport:
    """Sample the force on (0, 2 R_a] and audit its qualitative shape."""
    if grid_step <= 0:
        raise InvalidInputError("grid_step must be positive")
    grid = np.arange(grid_step, 2 * fn.R_a + grid_step / 2, grid_step)
    f = np.asarray(fn.force(grid), dtype=float)

    root_zero = abs(float(fn.force(fn.R))) <= 1e-12

    below = grid < fn.R
    above = (grid > fn.R) & (grid <= fn.R_a)  # beyond R_a the vanishing check owns f
    sign_pattern = bool(np.all(f[below] > 0.0) and np.all(f[above] < 0.0))

    core = (grid >= grid_step) & (grid <= fn.R_a)
    fc = f[core]
    jumps = np.abs(np.diff(fc))
    max_jump = float(jumps.max()) if jumps.size else 0.0
    slopes = np.abs(np.asarray(fn.derivative(grid[core]), dtype=float))
    if slopes.size > 1:
        lipschitz = np.maximum(slopes[:-1], slopes[1:])
        # factor 2 absorbs curvature between samples; tiny floor for flat profiles
        continuous = bool(np.all(jumps <= 2.0 * lipschitz * grid_step + 1e-12))
    else:
        continuous = True
    tail = f[grid > fn.R_a]
    residual = float(np.max(np.abs(tail))) if tail.size else 0.0
    return ValidationReport(
        root_zero=root_zero,
        sign_pattern=sign_pattern,
        continuous=continuous,
        vanishing_exact=residual == 0.0,
        vanishing_residual=residual,
        max_jump=max_jump,
        grid_step=grid_step,
    )
