import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from triswarm import (
    LatticeSpec,
    SwarmConfig,
    compute_links,
    generate_triangular,
    is_triangular,
    link_error,
    perturb,
)
from triswarm.errors import DegenerateConfigurationError, GenerationError, InvalidInputError

R_A = (1.0 + math.sqrt(3.0)) / 2.0


class TestGenerate:
    def test_failed_verification_raises_after_one_draw(self, monkeypatch):
        import triswarm.lattice as lattice_module

        calls = []

        def failing(config, r, r_a, **kwargs):
            calls.append(config)
            return lattice_module.TriangularityReport(
                ok=False, rigid=False, rank=0, max_length_deviation=math.inf, link_count=0
            )

        monkeypatch.setattr(lattice_module, "is_triangular", failing)
        with pytest.raises(GenerationError, match=r"n=12, seed=5"):
            generate_triangular(LatticeSpec(n=12, seed=5), R_A)
        assert len(calls) == 1

    def test_flexible_accretion_draw_raises(self):
        # a site pinned by two collinear links, never braced: rank 196, not 197
        with pytest.raises(GenerationError, match=r"n=100, seed=844696160"):
            generate_triangular(LatticeSpec(n=100, seed=844696160, growth="accretion"), R_A)

    def test_three_agents_is_equilateral(self):
        cfg = generate_triangular(LatticeSpec(n=3, seed=4), R_A)
        d = sorted(
            np.linalg.norm(cfg.positions[i] - cfg.positions[j])
            for i in range(3)
            for j in range(i + 1, 3)
        )
        np.testing.assert_allclose(d, 1.0, atol=1e-12)

    @pytest.mark.parametrize("growth", ["accretion", "compact"])
    def test_hundred_agents_unit_links_and_rigid(self, growth):
        cfg = generate_triangular(LatticeSpec(n=100, seed=2, growth=growth), R_A)
        report = is_triangular(cfg, 1.0, R_A)
        assert report.ok
        assert report.rank == 2 * 100 - 3
        assert report.max_length_deviation <= 1e-12

    def test_different_seeds_differ(self):
        a = generate_triangular(LatticeSpec(n=30, seed=0), R_A)
        b = generate_triangular(LatticeSpec(n=30, seed=1), R_A)
        assert not np.array_equal(a.positions, b.positions)
        assert is_triangular(a, 1.0, R_A).ok and is_triangular(b, 1.0, R_A).ok

    def test_deterministic_per_seed(self):
        a = generate_triangular(LatticeSpec(n=40, seed=7, growth="compact"), R_A)
        b = generate_triangular(LatticeSpec(n=40, seed=7, growth="compact"), R_A)
        assert np.array_equal(a.positions, b.positions)

    def test_scaled_spacing(self):
        cfg = generate_triangular(LatticeSpec(n=20, R=2.0, seed=5), 2.0 * R_A)
        links = compute_links(cfg, 2.0 * R_A)
        np.testing.assert_allclose(links.lengths, 2.0, atol=1e-12)

    def test_spec_validation(self):
        with pytest.raises(InvalidInputError):
            LatticeSpec(n=2)
        with pytest.raises(InvalidInputError):
            LatticeSpec(n=5, R=-1.0)
        with pytest.raises(InvalidInputError):
            LatticeSpec(n=5, growth="spiral")
        with pytest.raises(InvalidInputError):
            generate_triangular(LatticeSpec(n=5), r_a=2.0)  # beyond R*sqrt(3)


class TestPerturb:
    def test_zero_delta_identity(self, lattice25):
        out = perturb(lattice25, 0.0, 123)
        np.testing.assert_array_equal(out.positions, lattice25.positions)

    def test_initial_error_bounded(self, lattice25):
        out = perturb(lattice25, 0.2, 5)
        assert link_error(out, 1.0, R_A) <= 2 * 0.2

    @settings(max_examples=200, deadline=None)
    @given(delta=st.floats(0.0, 0.45), seed=st.integers(0, 2**31))
    def test_error_bound_property(self, lattice25, delta, seed):
        out = perturb(lattice25, delta, seed)
        assert link_error(out, 1.0, R_A) <= 2 * delta + 1e-12

    def test_mean_displacement_two_thirds_delta(self):
        big = SwarmConfig(np.zeros((100_000, 2)))
        delta = 0.3
        out = perturb(big, delta, 99)
        mean = np.linalg.norm(out.positions, axis=1).mean()
        assert mean == pytest.approx(2.0 / 3.0 * delta, rel=0.01)

    def test_shared_seed_scales_monotonically(self, lattice25):
        a = perturb(lattice25, 0.1, 17)
        b = perturb(lattice25, 0.3, 17)
        da = np.linalg.norm(a.positions - lattice25.positions, axis=1)
        db = np.linalg.norm(b.positions - lattice25.positions, axis=1)
        np.testing.assert_allclose(db, 3.0 * da, rtol=1e-12)

    def test_negative_delta_rejected(self, lattice25):
        with pytest.raises(InvalidInputError):
            perturb(lattice25, -0.1, 0)


class TestIsTriangular:
    def test_generated_lattice_true(self, lattice25):
        report = is_triangular(lattice25, 1.0, R_A)
        assert report.ok and report.rigid
        assert report.max_length_deviation <= 1e-12

    def test_large_perturbation_breaks_lengths(self, lattice25):
        out = perturb(lattice25, 0.5, 2)
        assert not is_triangular(out, 1.0, R_A).ok

    def test_square_fails_rigidity(self, square4):
        report = is_triangular(square4, 1.0, 1.2)
        assert not report.ok
        assert not report.rigid

    def test_report_carries_link_count(self, triangle):
        report = is_triangular(triangle, 1.0, R_A)
        assert report.link_count == 3


class TestLinkError:
    def test_perfect_lattice_zero(self, lattice25):
        assert link_error(lattice25, 1.0, R_A) <= 1e-12

    def test_single_stretched_link(self):
        cfg = SwarmConfig(np.array([[0.0, 0.0], [1.1, 0.0]]))
        assert link_error(cfg, 1.0, R_A) == pytest.approx(0.1)

    def test_rigid_motion_invariance(self, lattice25):
        th = 1.1
        rot = np.array([[math.cos(th), -math.sin(th)], [math.sin(th), math.cos(th)]])
        moved = SwarmConfig(perturb(lattice25, 0.1, 0).positions @ rot.T + np.array([4.0, 5.0]))
        base = perturb(lattice25, 0.1, 0)
        assert link_error(moved, 1.0, R_A) == pytest.approx(link_error(base, 1.0, R_A), abs=1e-12)

    def test_no_links_degenerate(self):
        cfg = SwarmConfig(np.array([[0.0, 0.0], [10.0, 0.0]]))
        with pytest.raises(DegenerateConfigurationError):
            link_error(cfg, 1.0, R_A)
