"""Release criteria for the package, one test per criterion.

Each test prints a single PASS/FAIL line (visible with -v as the test
outcome, and with -s as an explicit summary line).  Tolerances are fixed
here, not tuned at runtime.  Criterion 4's large-perturbation clause is
known not to hold for this generation protocol; see the project notes.
"""

import math

import numpy as np
import pytest

from triswarm import (
    LatticeSpec,
    SimulationParams,
    SwarmConfig,
    SweepSpec,
    analyze_configuration,
    center_drift,
    compute_links,
    delta_sweep,
    dissipation_check,
    generate_triangular,
    incidence_matrix,
    is_infinitesimally_rigid,
    jacobian,
    kernel_principal_angles,
    perturb,
    rigidity_matrix,
    run_trial,
    simulate,
    trial_seeds,
    velocities,
)
from triswarm.experiments import write_sweep_csv
from triswarm.interaction import saturation_knot

from .oracles import adaptive_simpson, finite_difference_jacobian, svd_rank

R_A = (1.0 + math.sqrt(3.0)) / 2.0
FULL_RUN = SimulationParams(record_every=10)  # dt=0.01, horizon 20 s


def report(name, ok, detail):
    print(f"criterion {name}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {name}: {detail}"


@pytest.fixture(scope="module")
def basin_sweep(paper_fn, tmp_path_factory):
    """Full perturbation-radius sweep shared by criteria 4 and 10."""
    spec = SweepSpec(
        delta_values=(0.05, 0.15, 0.25, 0.5, 0.6),
        trials_per_delta=20,
        n=100,
        sim=FULL_RUN,
    )
    result = delta_sweep(spec, paper_fn)
    outdir = tmp_path_factory.mktemp("sweep-a")
    write_sweep_csv(result, outdir)
    return spec, result, (outdir / "sweep_summary.csv").read_bytes()


def test_criterion_01_lattices_are_exact_equilibria(truncated_fn):
    """Generated lattices are equilibria of the strictly-vanishing force."""
    worst = 0.0
    for growth in ("accretion", "compact"):
        for n in (3, 25, 100):
            for seed in range(5):
                lattice = generate_triangular(LatticeSpec(n=n, seed=seed, growth=growth), R_A)
                u, _ = velocities(lattice.positions, truncated_fn, 3.0)
                worst = max(worst, float(np.max(np.linalg.norm(u, axis=1))))
    report("1 (equilibrium exactness)", worst <= 1e-12, f"max speed {worst:.3g} (tol 1e-12)")


def test_criterion_02_center_invariance(paper_fn):
    lattice = generate_triangular(LatticeSpec(n=100, seed=0, growth="compact"), R_A)
    traj = simulate(perturb(lattice, 0.2, 12345), paper_fn, FULL_RUN)
    drift = center_drift(traj)
    report("2 (center invariance)", drift <= 1e-9, f"drift {drift:.3g} (tol 1e-9)")


def test_criterion_03_convergence_at_delta_02(paper_fn):
    """Ten seeded trials at delta 0.2 all settle below 1e-3 and stay rigid."""
    failures = []
    for ti in range(10):
        ls, _ = trial_seeds(0, 0, ti)
        _, ps = trial_seeds(1, 0, ti)
        rec = run_trial(100, 0.2, (ls, ps), FULL_RUN, paper_fn, track_rigidity=True)
        if rec.e_final > 1e-3 or not rec.rigidity_preserved:
            failures.append((ti, rec.e_final, rec.rigidity_preserved))
    report(
        "3 (convergence at delta=0.2)",
        not failures,
        f"{10 - len(failures)}/10 trials converged with rigidity preserved"
        + (f"; failures {failures}" if failures else ""),
    )


def test_criterion_04_basin_endpoints(basin_sweep):
    """Sweep endpoints: full convergence up to 0.25, none from 0.5 on."""
    _, result, _ = basin_sweep
    problems = []
    for s in result.summaries:
        if s.delta <= 0.25:
            if s.rho != 1.0 or s.e_max > 1e-3:
                problems.append(f"delta={s.delta}: rho={s.rho} e_max={s.e_max:.3g}")
        else:
            if s.rho_triangular != 0.0:
                problems.append(
                    f"delta={s.delta}: {round(s.rho_triangular * s.trials)}/{s.trials} "
                    "trials still reach a triangular configuration"
                )
    table = "; ".join(
        f"delta={s.delta} rho={s.rho} rho_tri={s.rho_triangular} e_max={s.e_max:.3g}"
        for s in result.summaries
    )
    report("4 (basin endpoints)", not problems, table)


def test_criterion_05_spectral_split(paper_fn):
    """30 random lattices: 3 zero modes, 2n-3 stable modes, kernel aligned."""
    problems = []
    for n in (25, 50, 100):
        for seed in range(10):
            lattice = generate_triangular(LatticeSpec(n=n, seed=seed, growth="compact"), R_A)
            rep = analyze_configuration(lattice, paper_fn)
            j = jacobian(lattice, paper_fn, R_A)
            angles = kernel_principal_angles(lattice, j)
            # Laplacian part of the Jacobian at the design link length: the
            # force is exactly zero at its root, so the term vanishes exactly
            links = compute_links(lattice, R_A)
            b = incidence_matrix(links, n)
            weights = np.asarray(paper_fn.force(np.full(links.m, paper_fn.R))) / paper_fn.R
            lap = np.kron(b @ np.diag(weights) @ b.T, np.eye(2))
            ok = (
                rep.zero_count == 3
                and rep.negative_count == 2 * n - 3
                and rep.kernel_aligned
                and angles.max() <= 1e-6
                and not lap.any()
            )
            if not ok:
                problems.append(
                    f"n={n} seed={seed}: zeros={rep.zero_count} neg={rep.negative_count} "
                    f"aligned={rep.kernel_aligned} angle={angles.max():.3g} "
                    f"lap_max={np.abs(lap).max():.3g}"
                )
    report("5 (spectral split)", not problems, problems or "30/30 lattices split 3 + (2n-3)")


def test_criterion_06_jacobian_matches_finite_differences(paper_fn):
    knot = saturation_knot(paper_fn.params)
    rng = np.random.default_rng(2024)
    checked = 0
    worst = 0.0
    while checked < 20:
        lattice = generate_triangular(LatticeSpec(n=8, seed=int(rng.integers(2**31))), R_A)
        cfg = perturb(lattice, 0.08, int(rng.integers(2**31)))
        d = np.linalg.norm(cfg.positions[:, None] - cfg.positions[None, :], axis=2)
        pd = d[np.triu_indices(cfg.n, k=1)]
        if np.any(np.abs(pd - R_A) <= 1e-2) or np.any(np.abs(pd - knot) <= 1e-2):
            continue
        j = jacobian(cfg, paper_fn, R_A)

        def field(flat):
            u, _ = velocities(flat.reshape(-1, 2), paper_fn, R_A)
            return u.reshape(-1)

        fd = finite_difference_jacobian(field, cfg.stacked(), h=1e-6)
        worst = max(worst, float(np.linalg.norm(j - fd) / np.linalg.norm(fd)))
        checked += 1
    report("6 (Jacobian correctness)", worst <= 1e-5, f"worst relative error {worst:.3g}")


def test_criterion_07_dissipation_identity(truncated_fn):
    """Energy decay rate matches the speed identity; energy never grows."""
    params = SimulationParams(record_every=1)
    agree = 0
    unflagged = 0
    max_growth = 0.0
    for seed in (0, 1, 2):
        lattice = generate_triangular(LatticeSpec(n=10, seed=seed, growth="compact"), R_A)
        traj = simulate(perturb(lattice, 0.05, 100 + seed), truncated_fn, params)
        rep = dissipation_check(traj, truncated_fn, params)
        for s in rep.samples:
            if s.flagged:
                continue
            unflagged += 1
            agree += not s.mismatch
            max_growth = max(max_growth, s.rate_numeric * params.dt)
    fraction = agree / unflagged
    # energy increments above 1e-14 would exceed rounding noise of the
    # float evaluation of the energy itself
    monotone = max_growth <= 1e-14
    report(
        "7 (dissipation identity)",
        fraction >= 0.99 and monotone,
        f"agreement {fraction:.4f} (need 0.99), worst energy increment {max_growth:.3g}",
    )


def test_criterion_08_potential_matches_quadrature(paper_fn):
    grid = np.linspace(0.3, R_A, 100)
    worst = 0.0
    for z in grid:
        oracle = -adaptive_simpson(lambda y: float(paper_fn.force(y)), paper_fn.R, float(z))
        worst = max(worst, abs(float(paper_fn.potential(z)) - oracle))
    report("8 (potential oracle)", worst <= 1e-10, f"worst |analytic - quadrature| {worst:.3g}")


def test_criterion_09_rigidity_fixture_oracle():
    triangle = SwarmConfig(np.array([[0.0, 0.0], [1.0, 0.0], [0.5, math.sqrt(3.0) / 2.0]]))
    collinear = SwarmConfig(np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]]))
    square = SwarmConfig(np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]))
    lattice = generate_triangular(LatticeSpec(n=25, seed=1), R_A)
    fixtures = [
        ("triangle", triangle, R_A, True),
        ("collinear-3", collinear, 1.2, False),
        ("square-4", square, 1.2, False),
        ("lattice-25", lattice, R_A, True),
    ]
    problems = []
    for name, cfg, radius, expected in fixtures:
        links = compute_links(cfg, radius)
        got = is_infinitesimally_rigid(cfg, links)
        oracle = svd_rank(rigidity_matrix(cfg, links)) == 2 * cfg.n - 3
        if got != expected or got != oracle:
            problems.append(f"{name}: got {got}, expected {expected}, oracle {oracle}")
    report("9 (rigidity oracle)", not problems, problems or "4/4 fixtures agree with SVD oracle")


def test_criterion_10_sweep_determinism(basin_sweep, paper_fn, tmp_path):
    spec, _, first_bytes = basin_sweep
    result = delta_sweep(spec, paper_fn)
    write_sweep_csv(result, tmp_path)
    second_bytes = (tmp_path / "sweep_summary.csv").read_bytes()
    report(
        "10 (sweep determinism)",
        first_bytes == second_bytes,
        f"summary CSV byte-identical across reruns ({len(first_bytes)} bytes)",
    )
