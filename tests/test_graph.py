import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from triswarm import (
    LatticeSpec,
    LinkSet,
    SwarmConfig,
    are_congruent,
    compute_links,
    generate_triangular,
    incidence_matrix,
    is_infinitesimally_rigid,
    numerical_rank,
    perturb,
    rigidity_matrix,
    swarm_center,
)
from triswarm.errors import InvalidInputError

from .oracles import loop_rigidity_matrix, svd_rank

R_A = (1.0 + math.sqrt(3.0)) / 2.0


def positions_strategy(min_n=2, max_n=8):
    return arrays(
        dtype=float,
        shape=st.integers(min_n, max_n).map(lambda n: (n, 2)),
        elements=st.floats(-5.0, 5.0, allow_nan=False, allow_infinity=False),
    )


class TestComputeLinks:
    def test_boundary_distance_included(self):
        cfg = SwarmConfig(np.array([[0.0, 0.0], [R_A, 0.0]]))
        links = compute_links(cfg, R_A)
        assert links.m == 1
        assert tuple(links.pairs[0]) == (0, 1)

    def test_beyond_threshold_empty(self):
        cfg = SwarmConfig(np.array([[0.0, 0.0], [2.0 * R_A, 0.0]]))
        assert compute_links(cfg, R_A).m == 0

    def test_lattice_links_all_unit(self, lattice100):
        links = compute_links(lattice100, R_A)
        assert links.m > 0
        np.testing.assert_allclose(links.lengths, 1.0, atol=1e-12)

    def test_pairs_lexicographic_and_within_range(self):
        rng = np.random.default_rng(5)
        cfg = SwarmConfig(rng.uniform(-2, 2, (12, 2)))
        links = compute_links(cfg, 1.5)
        pairs = [tuple(p) for p in links.pairs]
        assert pairs == sorted(pairs)
        d = np.linalg.norm(cfg.positions[links.pairs[:, 0]] - cfg.positions[links.pairs[:, 1]], axis=1)
        assert np.all(d <= 1.5)

    def test_nonpositive_radius_rejected(self, triangle):
        with pytest.raises(InvalidInputError):
            compute_links(triangle, 0.0)


class TestIncidenceMatrix:
    def test_single_link(self):
        links = LinkSet(pairs=np.array([[0, 1]]), lengths=np.array([1.0]))
        b = incidence_matrix(links, 2)
        np.testing.assert_array_equal(b, [[1.0], [-1.0]])

    def test_triangle_column_sums(self, triangle):
        b = incidence_matrix(compute_links(triangle, R_A), 3)
        assert b.shape == (3, 3)
        np.testing.assert_array_equal(b.sum(axis=0), 0.0)

    def test_path_rank_two(self):
        links = LinkSet(pairs=np.array([[0, 1], [1, 2]]), lengths=np.ones(2))
        assert svd_rank(incidence_matrix(links, 3)) == 2

    def test_out_of_range_index_rejected(self):
        links = LinkSet(pairs=np.array([[0, 3]]), lengths=np.array([1.0]))
        with pytest.raises(InvalidInputError):
            incidence_matrix(links, 2)

    @settings(max_examples=100, deadline=None)
    @given(positions_strategy())
    def test_column_sums_zero_random_configs(self, pos):
        cfg = SwarmConfig(pos)
        links = compute_links(cfg, 2.0)
        b = incidence_matrix(links, cfg.n)
        assert np.all(b.sum(axis=0) == 0.0)


class TestRigidityMatrix:
    def test_two_agent_row(self):
        cfg = SwarmConfig(np.array([[0.0, 0.0], [1.0, 0.0]]))
        m = rigidity_matrix(cfg, compute_links(cfg, 1.5))
        np.testing.assert_array_equal(m, [[-1.0, 0.0, 1.0, 0.0]])

    def test_triangle_rank_three(self, triangle):
        m = rigidity_matrix(triangle, compute_links(triangle, R_A))
        assert svd_rank(m) == 3

    def test_collinear_rank_two(self, collinear3):
        m = rigidity_matrix(collinear3, compute_links(collinear3, 1.2))
        assert m.shape[0] == 2
        assert svd_rank(m) == 2

    @settings(max_examples=50, deadline=None)
    @given(positions_strategy())
    def test_row_blocks_antisymmetric(self, pos):
        cfg = SwarmConfig(pos)
        links = compute_links(cfg, 3.0)
        m = rigidity_matrix(cfg, links)
        for e, (i, j) in enumerate(links.pairs):
            np.testing.assert_array_equal(m[e, 2 * i : 2 * i + 2], -m[e, 2 * j : 2 * j + 2])

    def test_roto_translations_in_kernel(self, lattice25):
        links = compute_links(lattice25, R_A)
        m = rigidity_matrix(lattice25, links)
        scale = np.linalg.norm(m, 2)
        n = lattice25.n
        tx = np.tile([1.0, 0.0], n)
        ty = np.tile([0.0, 1.0], n)
        centered = lattice25.positions - swarm_center(lattice25)
        rot = np.column_stack([-centered[:, 1], centered[:, 0]]).reshape(-1)
        for u in (tx, ty, rot):
            assert np.linalg.norm(m @ u) <= 1e-10 * scale * np.linalg.norm(u)


    @pytest.mark.parametrize("n", [3, 25, 100])
    @pytest.mark.parametrize("delta", [0.0, 0.2, 0.5])
    def test_equals_per_link_loop(self, n, delta):
        cfg = perturb(generate_triangular(LatticeSpec(n=n, seed=n), R_A), delta, 5)
        for radius in (R_A, 3.0):
            links = compute_links(cfg, radius)
            m = rigidity_matrix(cfg, links)
            assert np.array_equal(m, loop_rigidity_matrix(cfg.positions, links.pairs))

    def test_no_links(self):
        cfg = SwarmConfig(np.array([[0.0, 0.0], [5.0, 0.0], [0.0, 5.0]]))
        m = rigidity_matrix(cfg, compute_links(cfg, R_A))
        assert m.shape == (0, 6)
        assert np.array_equal(m, loop_rigidity_matrix(cfg.positions, np.empty((0, 2), int)))


class TestNumericalRank:
    def test_identity(self):
        assert numerical_rank(np.eye(3)) == 3

    def test_zero_matrix(self):
        assert numerical_rank(np.zeros((4, 6))) == 0

    def test_rank_one_outer_product(self):
        rng = np.random.default_rng(0)
        u, v = rng.normal(size=5), rng.normal(size=7)
        assert numerical_rank(np.outer(u, v)) == 1

    def test_invariant_under_permutation_and_scaling(self):
        rng = np.random.default_rng(3)
        m = rng.normal(size=(6, 4)) @ rng.normal(size=(4, 8))
        r = numerical_rank(m)
        perm = rng.permutation(6)
        assert numerical_rank(m[perm]) == r
        assert numerical_rank(-37.5 * m) == r

    def test_nonfinite_rejected(self):
        with pytest.raises(InvalidInputError):
            numerical_rank(np.array([[1.0, np.inf]]))

    def test_nonpositive_tol_rejected(self):
        with pytest.raises(InvalidInputError):
            numerical_rank(np.eye(2), tol=0.0)


class TestInfinitesimalRigidity:
    def test_triangle_rigid(self, triangle):
        assert is_infinitesimally_rigid(triangle, compute_links(triangle, R_A))

    def test_square_with_side_links_flexes(self, square4):
        links = compute_links(square4, 1.2)  # diagonals at sqrt(2) excluded
        assert links.m == 4
        assert not is_infinitesimally_rigid(square4, links)

    def test_collinear_not_rigid(self, collinear3):
        assert not is_infinitesimally_rigid(collinear3, compute_links(collinear3, 1.2))

    def test_agrees_with_svd_oracle(self, triangle, collinear3, square4, lattice25):
        cases = [(triangle, R_A), (collinear3, 1.2), (square4, 1.2), (lattice25, R_A)]
        for cfg, radius in cases:
            links = compute_links(cfg, radius)
            expected = svd_rank(rigidity_matrix(cfg, links)) == 2 * cfg.n - 3
            assert is_infinitesimally_rigid(cfg, links) == expected


class TestCongruence:
    def test_translation(self, lattice25):
        moved = SwarmConfig(lattice25.positions + np.array([5.0, -3.0]))
        assert are_congruent(lattice25, moved)

    def test_rotation_about_center(self, triangle):
        th = math.radians(30.0)
        rot = np.array([[math.cos(th), -math.sin(th)], [math.sin(th), math.cos(th)]])
        c = swarm_center(triangle)
        rotated = SwarmConfig((triangle.positions - c) @ rot.T + c)
        assert are_congruent(triangle, rotated)

    def test_scaling_breaks_congruence(self, triangle):
        assert not are_congruent(triangle, SwarmConfig(1.5 * triangle.positions))

    def test_reflexive_symmetric(self, square4, triangle):
        assert are_congruent(square4, square4)
        moved = SwarmConfig(triangle.positions + 1.0)
        assert are_congruent(triangle, moved) == are_congruent(moved, triangle)

    def test_size_mismatch(self, triangle, square4):
        with pytest.raises(InvalidInputError):
            are_congruent(triangle, square4)


class TestSwarmCenter:
    def test_two_agents(self):
        cfg = SwarmConfig(np.array([[0.0, 0.0], [2.0, 0.0]]))
        np.testing.assert_array_equal(swarm_center(cfg), [1.0, 0.0])

    def test_single_agent(self):
        p = np.array([[3.0, -7.0]])
        np.testing.assert_array_equal(swarm_center(SwarmConfig(p)), p[0])

    def test_triangle_centroid_equidistant(self, triangle):
        c = swarm_center(triangle)
        d = np.linalg.norm(triangle.positions - c, axis=1)
        np.testing.assert_allclose(d, d[0], rtol=1e-12)


class TestSwarmConfigValidation:
    def test_bad_shape(self):
        with pytest.raises(InvalidInputError):
            SwarmConfig(np.zeros((3, 3)))

    def test_nan_rejected(self):
        with pytest.raises(InvalidInputError):
            SwarmConfig(np.array([[0.0, np.nan]]))

    def test_linkset_ordering_enforced(self):
        with pytest.raises(InvalidInputError):
            LinkSet(pairs=np.array([[1, 0]]), lengths=np.array([1.0]))
