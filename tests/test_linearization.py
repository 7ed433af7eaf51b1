import math
import sys

import numpy as np
import pytest

from triswarm import (
    LatticeSpec,
    SwarmConfig,
    analyze_configuration,
    compute_links,
    generate_triangular,
    jacobian,
    kernel_principal_angles,
    perturb,
    rigid_motion_basis,
    rigidity_matrix,
    spectral_analysis,
    velocities,
)
from triswarm.errors import InvalidInputError, SingularityError
from triswarm.interaction import saturation_knot

from .oracles import (
    eig_spectral_analysis,
    finite_difference_jacobian,
    loop_jacobian,
)

R_A = (1.0 + math.sqrt(3.0)) / 2.0


def safe_random_config(fn, rng, n=8, radius=R_A):
    """Perturbed lattice with no pair distance near the kinks of the force."""
    knot = saturation_knot(fn.params)
    while True:
        lattice = generate_triangular(LatticeSpec(n=n, seed=int(rng.integers(2**31))), R_A)
        cfg = perturb(lattice, 0.08, int(rng.integers(2**31)))
        d = np.linalg.norm(
            cfg.positions[:, None, :] - cfg.positions[None, :, :], axis=2
        )
        iu = np.triu_indices(n, k=1)
        pd = d[iu]
        if np.all(np.abs(pd - radius) > 1e-2) and np.all(np.abs(pd - knot) > 1e-2):
            return cfg


class TestJacobianAssembly:
    def test_matches_finite_differences(self, paper_fn):
        rng = np.random.default_rng(77)
        for _ in range(5):
            cfg = safe_random_config(paper_fn, rng)
            j = jacobian(cfg, paper_fn, R_A)

            def field(flat):
                u, _ = velocities(flat.reshape(-1, 2), paper_fn, R_A)
                return u.reshape(-1)

            fd = finite_difference_jacobian(field, cfg.stacked())
            assert np.linalg.norm(j - fd) <= 1e-5 * np.linalg.norm(fd)

    def test_symmetric(self, paper_fn, lattice25):
        j = jacobian(perturb(lattice25, 0.05, 3), paper_fn, R_A)
        np.testing.assert_allclose(j, j.T, atol=1e-14)

    def test_translation_in_kernel_at_lattice(self, paper_fn, lattice25):
        j = jacobian(lattice25, paper_fn, R_A)
        for vec in rigid_motion_basis(lattice25).T:
            assert np.linalg.norm(j @ vec) <= 1e-10

    def test_zero_length_link_rejected(self, paper_fn):
        cfg = SwarmConfig(np.zeros((2, 2)))
        with pytest.raises(SingularityError):
            jacobian(cfg, paper_fn, R_A)

    def test_link_velocities_drops_as_coincident_rejected(self, paper_fn):
        # one rule for a pair without a direction: velocities drops it, jacobian refuses it
        cfg = SwarmConfig(np.array([[0.0, 0.0], [1e-13, 0.0], [1.0, 0.0]]))
        assert velocities(cfg.positions, paper_fn, 3.0)[1] == 1
        with pytest.raises(SingularityError):
            jacobian(cfg, paper_fn, R_A)

    @pytest.mark.parametrize("profile", ["paper_fn", "truncated_fn"])
    @pytest.mark.parametrize("n", [3, 25, 100])
    @pytest.mark.parametrize("delta", [0.0, 0.2, 0.5])
    def test_equals_per_link_loop(self, request, profile, n, delta):
        fn = request.getfixturevalue(profile)
        cfg = perturb(generate_triangular(LatticeSpec(n=n, seed=n), R_A), delta, 5)
        links = compute_links(cfg, R_A)
        args = (cfg.positions, links.pairs, links.lengths, fn)
        assert np.array_equal(jacobian(cfg, fn, R_A), loop_jacobian(*args))

    @pytest.mark.parametrize("profile", ["paper_fn", "truncated_fn"])
    def test_no_links_gives_zero_matrix(self, request, profile):
        fn = request.getfixturevalue(profile)
        cfg = SwarmConfig(np.array([[0.0, 0.0], [5.0, 0.0], [0.0, 5.0]]))
        links = compute_links(cfg, R_A)
        args = (cfg.positions, links.pairs, links.lengths, fn)
        j = jacobian(cfg, fn, R_A)
        assert np.array_equal(j, np.zeros((6, 6)))
        assert np.array_equal(j, loop_jacobian(*args))

    def test_laplacian_term_tiny_at_lattices(self, paper_fn, truncated_fn, lattice25):
        # with every link at the force root the h(z) I term vanishes and the
        # Jacobian is f'(R) / R^2 M^T M; measured link lengths sit within one
        # ulp of the root, so the remainder is rounding-level, not zero
        m = rigidity_matrix(lattice25, compute_links(lattice25, R_A))
        for fn in (paper_fn, truncated_fn):
            j = jacobian(lattice25, fn, R_A)
            gram = fn.derivative(fn.R) / fn.R**2 * (m.T @ m)
            assert np.abs(j - gram).max() <= 1e-12 * np.abs(j).max()

    def test_laplacian_term_vanishes_at_exact_root_length(self, paper_fn, lattice25):
        links = compute_links(lattice25, R_A)
        weights = np.asarray(paper_fn.force(np.full(links.m, paper_fn.R))) / paper_fn.R
        assert np.all(weights == 0.0)


class TestRigidMotionBasis:
    def test_orthonormal(self, lattice25):
        basis = rigid_motion_basis(lattice25)
        np.testing.assert_allclose(basis.T @ basis, np.eye(3), atol=1e-12)

    def test_annihilated_by_rigidity_matrix(self, lattice25):
        m = rigidity_matrix(lattice25, compute_links(lattice25, R_A))
        basis = rigid_motion_basis(lattice25)
        assert np.abs(m @ basis).max() <= 1e-12

    def test_rotation_orthogonal_to_translations(self, triangle):
        basis = rigid_motion_basis(triangle)
        assert abs(basis[:, 0] @ basis[:, 2]) <= 1e-12
        assert abs(basis[:, 1] @ basis[:, 2]) <= 1e-12


class TestSpectralAnalysis:
    def test_triangle_split(self, paper_fn, triangle):
        report = analyze_configuration(triangle, paper_fn, R_A)
        assert report.zero_count == 3
        assert report.negative_count == 3
        assert report.kernel_aligned
        assert report.unclassified_count == 0

    def test_lattice_split_and_kernel(self, paper_fn, lattice25):
        report = analyze_configuration(lattice25, paper_fn, R_A)
        assert report.zero_count == 3
        assert report.negative_count == 2 * 25 - 3
        assert report.kernel_aligned

    def test_zero_matrix_degenerate(self, lattice25):
        links = compute_links(lattice25, R_A)
        report = spectral_analysis(np.zeros((50, 50)), rigidity_matrix(lattice25, links))
        assert report.zero_count == 50

    def test_principal_angles_at_lattice(self, paper_fn, lattice25):
        angles = kernel_principal_angles(lattice25, jacobian(lattice25, paper_fn, R_A))
        assert angles.max() <= 1e-6

    def test_spectrum_invariant_under_rigid_motion(self, paper_fn, lattice25):
        th = 0.4
        rot = np.array([[math.cos(th), -math.sin(th)], [math.sin(th), math.cos(th)]])
        moved = SwarmConfig(lattice25.positions @ rot.T + np.array([2.0, -1.0]))
        ev_a = np.sort(analyze_configuration(lattice25, paper_fn, R_A).eigenvalues.real)
        ev_b = np.sort(analyze_configuration(moved, paper_fn, R_A).eigenvalues.real)
        np.testing.assert_allclose(ev_a, ev_b, atol=1e-9)

    def test_spectrum_invariant_under_relabeling(self, paper_fn, lattice25):
        perm = np.random.default_rng(2).permutation(lattice25.n)
        relabeled = SwarmConfig(lattice25.positions[perm])
        ev_a = np.sort(analyze_configuration(lattice25, paper_fn, R_A).eigenvalues.real)
        ev_b = np.sort(analyze_configuration(relabeled, paper_fn, R_A).eigenvalues.real)
        np.testing.assert_allclose(ev_a, ev_b, atol=1e-9)

    def test_rejects_odd_dimension(self, lattice25):
        links = compute_links(lattice25, R_A)
        with pytest.raises(InvalidInputError):
            spectral_analysis(np.zeros((5, 5)), rigidity_matrix(lattice25, links))

    @pytest.mark.parametrize("profile", ["paper_fn", "truncated_fn"])
    @pytest.mark.parametrize("n", [3, 25, 100])
    @pytest.mark.parametrize("delta", [0.0, 0.2])
    def test_matches_general_eigensolve(self, request, profile, n, delta):
        fn = request.getfixturevalue(profile)
        cfg = perturb(generate_triangular(LatticeSpec(n=n, seed=n), R_A), delta, 5)
        links = compute_links(cfg, R_A)
        j, m = jacobian(cfg, fn, R_A), rigidity_matrix(cfg, links)
        report = spectral_analysis(j, m)
        ref = eig_spectral_analysis(j, m)
        assert report.eigenvalues.dtype == np.float64
        for key in ("zero_count", "negative_count", "unclassified_count", "kernel_aligned"):
            assert getattr(report, key) == ref[key], key
        rho = np.abs(ref["eigenvalues"]).max()
        assert np.abs(report.eigenvalues - ref["eigenvalues"].real).max() <= 1e-12 * rho
        assert np.abs(ref["eigenvalues"].imag).max() <= 1e-12 * rho
        assert abs(report.max_real_nonzero_eig - ref["max_real_nonzero_eig"]) <= 1e-12 * rho

    def test_max_real_nonzero_eig_nan_when_all_zero(self, lattice25):
        m = rigidity_matrix(lattice25, compute_links(lattice25, R_A))
        assert math.isnan(spectral_analysis(np.zeros((50, 50)), m).max_real_nonzero_eig)

    def test_max_real_nonzero_eig_takes_positive_mode(self, lattice25):
        m = rigidity_matrix(lattice25, compute_links(lattice25, R_A))
        j = np.diag(np.r_[2.0, 0.5, np.zeros(45), -1.0, -1.0, -3.0])
        report = spectral_analysis(j, m)
        assert report.unclassified_count == 2 and report.negative_count == 3
        assert report.max_real_nonzero_eig == 2.0
        assert report.max_real_nonzero_eig == eig_spectral_analysis(j, m)["max_real_nonzero_eig"]

    def test_asymmetric_rejected(self, paper_fn, lattice25):
        j = jacobian(lattice25, paper_fn, R_A)
        j[0, 1] += 1e-12
        m = rigidity_matrix(lattice25, compute_links(lattice25, R_A))
        with pytest.raises(InvalidInputError):
            spectral_analysis(j, m)
        with pytest.raises(InvalidInputError):
            kernel_principal_angles(lattice25, j)

    def test_one_link_pass(self, monkeypatch, paper_fn, lattice25):
        original = compute_links
        calls = []

        def counted(*args, **kwargs):
            calls.append(None)
            return original(*args, **kwargs)

        for name, module in list(sys.modules.items()):
            if name.startswith("triswarm") and getattr(module, "compute_links", None) is original:
                monkeypatch.setattr(module, "compute_links", counted)
        report = analyze_configuration(lattice25, paper_fn, R_A)
        assert report.zero_count == 3
        assert len(calls) == 1
