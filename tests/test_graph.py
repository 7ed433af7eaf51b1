import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from triswarm import (
    LatticeSpec,
    LinkSet,
    SimulationParams,
    SwarmConfig,
    compute_links,
    generate_triangular,
    incidence_matrix,
    is_infinitesimally_rigid,
    links_along,
    numerical_rank,
    perturb,
    rigid_motion_basis,
    rigidity_matrix,
    saturated_lennard_jones,
    simulate,
    swarm_center,
)
from triswarm import graph, lattice
from triswarm.errors import DegenerateConfigurationError, InvalidInputError

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


def assert_links_along_match(states, r_a):
    found = list(links_along(states, r_a))
    assert len(found) == len(states)
    for positions, links in zip(states, found):
        reference = compute_links(SwarmConfig(positions), r_a)
        assert np.array_equal(links.pairs, reference.pairs)
        assert np.array_equal(links.lengths, reference.lengths)
    return found


@pytest.fixture
def counted_builds(monkeypatch):
    """Candidate builds of links_along (compute_links runs the same pass at r_a)."""
    builds = []
    original = graph._pairs_within

    def counted(config, cutoff):
        if cutoff == R_A + graph.SKIN:
            builds.append(cutoff)
        return original(config, cutoff)

    monkeypatch.setattr(graph, "_pairs_within", counted)
    return builds


class TestLinksAlong:
    @pytest.mark.parametrize("truncate", [False, True])
    @pytest.mark.parametrize("delta", [0.0, 0.2, 0.5])
    @pytest.mark.parametrize("n", [3, 25, 100])
    def test_equals_compute_links_on_simulated_runs(self, n, delta, truncate):
        fn = saturated_lennard_jones(truncate=truncate)
        lattice = generate_triangular(LatticeSpec(n=n, seed=n, growth="compact"), R_A)
        traj = simulate(perturb(lattice, delta, 5), fn, SimulationParams(horizon=3.0))
        assert_links_along_match(traj.states, R_A)

    def test_jump_beyond_half_skin_rebuilds(self, counted_builds):
        base = np.array([[0.0, 0.0], [1.0, 0.0], [3.0, 0.0]])
        step = np.array([[0.0, 0.0], [0.0, 0.0], [graph.SKIN / 2 + 1e-9, 0.0]])
        creep = np.array([[0.0, 0.0], [0.0, 0.0], [graph.SKIN / 2, 0.0]])
        # agent 2 creeps to the half-skin mark (no rebuild), then jumps past it
        states = np.stack([base, base - creep, base - creep - 2 * step])
        found = assert_links_along_match(states, R_A)
        assert len(counted_builds) == 2
        assert [links.m for links in found] == [1, 1, 2]

    def test_every_far_jump_rebuilds(self, counted_builds):
        rng = np.random.default_rng(3)
        states = rng.uniform(-3.0, 3.0, (6, 20, 2))  # jumps of several skins
        assert_links_along_match(states, R_A)
        assert len(counted_builds) == len(states)

    def test_pair_at_exactly_r_a_included(self):
        states = np.array([[[0.0, 0.0], [R_A, 0.0]], [[0.0, 0.0], [0.5, 0.0]], [[0.0, 0.0], [R_A, 0.0]]])
        found = assert_links_along_match(states, R_A)
        assert found[0].pairs.tolist() == [[0, 1]] and found[0].lengths[0] == R_A
        assert found[2].pairs.tolist() == [[0, 1]]

    def test_state_without_links(self):
        states = np.array([[[0.0, 0.0], [5.0, 0.0], [0.0, 5.0]], [[0.0, 0.0], [1.0, 0.0], [0.0, 5.0]]])
        found = assert_links_along_match(states, R_A)
        assert found[0].m == 0 and found[0].pairs.shape == (0, 2)
        assert found[1].m == 1

    def test_nonpositive_radius_rejected(self):
        with pytest.raises(InvalidInputError):
            list(links_along(np.zeros((1, 2, 2)), 0.0))


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


def accretion_draw(n, seed):
    """The sites accretion growth draws, before generate_triangular verifies them."""
    sites = lattice._grow_sites(n, np.random.default_rng(seed), "accretion")
    return SwarmConfig(lattice._axial_to_plane(sites, 1.0))


def drop_links(links, frac, seed):
    keep = np.random.default_rng(seed).random(links.m) >= frac
    return LinkSet(pairs=links.pairs[keep], lengths=links.lengths[keep])


class TestCertifiedRank:
    @pytest.mark.parametrize("drop", [0.0, 0.1])
    @pytest.mark.parametrize("delta", [0.0, 0.2, 0.35])
    @pytest.mark.parametrize("growth", ["accretion", "compact"])
    @pytest.mark.parametrize("n", [3, 25, 100, 400])
    def test_agrees_with_svd_oracle_on_lattices(self, n, growth, delta, drop):
        cfg = perturb(generate_triangular(LatticeSpec(n=n, seed=n + 7, growth=growth), R_A), delta, n)
        links = drop_links(compute_links(cfg, R_A), drop, n)
        m = rigidity_matrix(cfg, links)
        expected = svd_rank(m)
        assert numerical_rank(m, kernel=rigid_motion_basis(cfg)) == expected
        assert is_infinitesimally_rigid(cfg, links) == (expected == 2 * n - 3)

    def test_generated_lattices_are_certified(self, count_svd_calls):
        calls = count_svd_calls()
        for n in (3, 25, 100, 400):
            cfg = generate_triangular(LatticeSpec(n=n, seed=n, growth="compact"), R_A)
            assert is_infinitesimally_rigid(cfg, compute_links(cfg, R_A))
        assert calls == []

    @settings(max_examples=100, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        q=st.integers(2, 30),
        k=st.integers(0, 4),
        extra=st.integers(0, 2),
        scale=st.floats(-4.0, 4.0),
    )
    def test_planted_kernel(self, seed, q, k, extra, scale):
        assume(k + extra < q)
        rng = np.random.default_rng(seed)
        kernel, _ = np.linalg.qr(rng.normal(size=(q, k)))
        r = q - k - extra  # rank of the row space before the kernel is projected out
        a = rng.normal(size=(q + 3, r)) @ rng.normal(size=(r, q)) * 10.0**scale
        m = a - (a @ kernel) @ kernel.T
        expected = svd_rank(m)
        assert numerical_rank(m, kernel=kernel) == numerical_rank(m) == expected
        wrong, _ = np.linalg.qr(rng.normal(size=(q, max(k, 1))))
        for bad in (wrong, kernel[:, : k - 1] if k else wrong):
            assert not graph._certifies_corank(m, bad, graph.RANK_TOL)
            assert numerical_rank(m, kernel=bad) == expected

    @pytest.mark.parametrize("case", ["square4", "collinear3"])
    def test_flexible_frameworks_reach_the_svd(self, request, count_svd_calls, case):
        cfg = request.getfixturevalue(case)
        links = compute_links(cfg, 1.2)
        calls = count_svd_calls()
        assert not is_infinitesimally_rigid(cfg, links)
        assert len(calls) == 1

    def test_flexible_accretion_draw_reaches_the_svd(self, count_svd_calls):
        cfg = accretion_draw(100, 844696160)
        links = compute_links(cfg, R_A)
        assert svd_rank(rigidity_matrix(cfg, links)) == 196
        calls = count_svd_calls()
        assert not is_infinitesimally_rigid(cfg, links)
        assert len(calls) == 1

    @pytest.mark.parametrize("value", [0.0, 0.1])
    def test_coincident_agents_reach_the_svd(self, count_svd_calls, value):
        # 0.1: the center rounds off the common point, so the rotation column is noise
        cfg = SwarmConfig(np.full((4, 2), value))
        with pytest.raises(DegenerateConfigurationError):
            rigid_motion_basis(cfg)
        calls = count_svd_calls()
        assert not is_infinitesimally_rigid(cfg, compute_links(cfg, R_A))
        assert len(calls) == 1

    def test_kernel_shape_validated(self, triangle):
        m = rigidity_matrix(triangle, compute_links(triangle, R_A))
        basis = rigid_motion_basis(triangle)
        for bad in (basis[:-1], basis.reshape(-1), np.eye(6)):
            with pytest.raises(InvalidInputError):
                numerical_rank(m, kernel=bad)

    def test_kernel_orthonormality_validated(self, triangle):
        m = rigidity_matrix(triangle, compute_links(triangle, R_A))
        basis = rigid_motion_basis(triangle)
        for bad in (2.0 * basis, basis + 1e-11, np.where(basis == basis[0, 0], np.nan, basis)):
            with pytest.raises(InvalidInputError):
                numerical_rank(m, kernel=bad)
        assert numerical_rank(m, kernel=basis + 1e-14) == 3


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
