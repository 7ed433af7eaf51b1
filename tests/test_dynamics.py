import math
import warnings

import numpy as np
import pytest

from triswarm import (
    LatticeSpec,
    SimulationParams,
    SwarmConfig,
    center_drift,
    compute_links,
    generate_triangular,
    perturb,
    saturated_lennard_jones,
    simulate,
    velocities,
)
from triswarm.errors import IntegrationDivergedError, InvalidInputError

R_A = (1.0 + math.sqrt(3.0)) / 2.0


def pair(distance):
    return SwarmConfig(np.array([[0.0, 0.0], [distance, 0.0]]))


class TestParams:
    def test_defaults_valid(self):
        p = SimulationParams()
        assert p.n_steps == 2000

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(dt=-0.01),
            dict(horizon=0.0),
            dict(record_every=-1),
            dict(dt=0.0),
            dict(horizon=0.005),
            dict(record_every=0),
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(InvalidInputError):
            SimulationParams(**kwargs)

    @pytest.mark.parametrize("r_s, r_a", [(1.0, R_A), (1.6, 1.7)], ids=["default-profile", "wide-profile"])
    def test_sensing_radius_below_the_profiles_link_length_rejected(self, r_s, r_a):
        fn = saturated_lennard_jones(r_a=r_a)
        with pytest.raises(InvalidInputError, match="sensing radius"):
            simulate(pair(1.0), fn, SimulationParams(R_s=r_s, horizon=0.1))


def one_step(config, fn):
    """One synchronous forward-Euler step: the final state of a one-step run."""
    return simulate(config, fn, SimulationParams(horizon=SimulationParams().dt)).final


class TestInteractionSet:
    def test_within_sensing_radius(self, paper_fn):
        np.testing.assert_array_equal(compute_links(pair(2.5), 3.0).pairs, [[0, 1]])
        u, _ = velocities(pair(2.5).positions, paper_fn, 3.0)
        assert u[0, 0] > 0.0 and u[1, 0] < 0.0  # the weak tail pulls them together

    def test_beyond_sensing_radius(self, paper_fn):
        assert compute_links(pair(4.0), 3.0).m == 0
        u, _ = velocities(pair(4.0).positions, paper_fn, 3.0)
        np.testing.assert_array_equal(u, 0.0)

    def test_lattice_sensing_exceeds_adjacency(self, lattice100, paper_fn):
        def partners_of_0(links):
            return set(links.pairs[links.pairs[:, 0] == 0][:, 1]) | set(
                links.pairs[links.pairs[:, 1] == 0][:, 0]
            )

        adj0 = partners_of_0(compute_links(lattice100, R_A))
        sensed0 = partners_of_0(compute_links(lattice100, 3.0))
        assert adj0 < sensed0  # second/third shells at sqrt(3) and 2 are sensed
        u_adjacent, _ = velocities(lattice100.positions, paper_fn, R_A)
        u_sensed, _ = velocities(lattice100.positions, paper_fn, 3.0)
        assert not np.array_equal(u_adjacent[0], u_sensed[0])


class TestControlInput:
    def test_zero_at_desired_distance(self, paper_fn):
        u, _ = velocities(pair(1.0).positions, paper_fn, 3.0)
        np.testing.assert_array_equal(u, 0.0)

    def test_repulsion_below_root(self, paper_fn):
        u, _ = velocities(pair(0.8).positions, paper_fn, 3.0)
        assert u[0][0] < 0.0 and u[1][0] > 0.0  # pushed apart along the joining line

    def test_hexagon_center_cancels(self, paper_fn):
        angles = np.arange(6) * math.pi / 3.0
        ring = np.column_stack([np.cos(angles), np.sin(angles)])
        u, _ = velocities(np.vstack([[0.0, 0.0], ring]), paper_fn, 3.0)
        assert np.linalg.norm(u[0]) <= 1e-15

    def test_coincident_policy(self, paper_fn):
        # a coincident pair has no direction: its contribution is dropped and counted
        cfg = SwarmConfig(np.zeros((2, 2)))
        u, warn = velocities(cfg.positions, paper_fn, 3.0)
        assert warn == 1
        np.testing.assert_array_equal(u, 0.0)

    def test_action_reaction_exact(self, paper_fn):
        rng = np.random.default_rng(11)
        pos = rng.uniform(-1.5, 1.5, (6, 2))
        for i in range(6):
            for j in range(i + 1, 6):
                r = pos[i] - pos[j]
                z = np.linalg.norm(r)
                if z > 3.0 or z < 1e-12:
                    continue
                f = paper_fn.force(z)
                np.testing.assert_array_equal((f / z) * r + (f / z) * (-r), [0.0, 0.0])


class TestStepEuler:
    def test_lattice_is_fixed_point(self, lattice100, truncated_fn):
        after = one_step(lattice100, truncated_fn)
        np.testing.assert_array_equal(after.positions, lattice100.positions)

    def test_saturated_pair_separates(self, paper_fn):
        after = one_step(pair(0.5), paper_fn)
        # f(0.5) saturates at 1, so each agent moves dt along the joining line
        np.testing.assert_allclose(after.positions[0], [-0.01, 0.0], atol=1e-15)
        np.testing.assert_allclose(after.positions[1], [0.51, 0.0], atol=1e-15)

    def test_single_agent_unchanged(self, paper_fn):
        cfg = SwarmConfig(np.array([[2.0, 3.0]]))
        after = one_step(cfg, paper_fn)
        np.testing.assert_array_equal(after.positions, cfg.positions)


class TestSimulate:
    def test_equilibrium_start_stays_exactly(self, lattice100, truncated_fn):
        params = SimulationParams(horizon=0.5, record_every=10)
        traj = simulate(lattice100, truncated_fn, params)
        np.testing.assert_array_equal(traj.final.positions, lattice100.positions)

    def test_recorded_times_spacing(self, paper_fn):
        params = SimulationParams(horizon=0.2, record_every=5)
        traj = simulate(pair(1.1), paper_fn, params)
        np.testing.assert_allclose(np.diff(traj.times), 0.05, atol=1e-12)
        assert traj.times[0] == 0.0 and traj.times[-1] == pytest.approx(0.2)

    def test_determinism_bit_identical(self, paper_fn, lattice25):
        from triswarm import perturb

        init = perturb(lattice25, 0.1, 42)
        params = SimulationParams(horizon=1.0, record_every=10)
        a = simulate(init, paper_fn, params)
        b = simulate(init, paper_fn, params)
        assert np.array_equal(a.states, b.states)

    def test_relabeling_equivariance(self, paper_fn, lattice25):
        from triswarm import perturb

        init = perturb(lattice25, 0.1, 9)
        params = SimulationParams(horizon=0.5, record_every=50)
        perm = np.random.default_rng(1).permutation(init.n)
        direct = simulate(SwarmConfig(init.positions[perm]), paper_fn, params)
        permuted = simulate(init, paper_fn, params)
        np.testing.assert_allclose(
            direct.final.positions, permuted.final.positions[perm], atol=1e-12
        )

    def test_rigid_motion_equivariance(self, paper_fn, lattice25):
        from triswarm import perturb

        init = perturb(lattice25, 0.1, 9)
        th = 0.7
        rot = np.array([[math.cos(th), -math.sin(th)], [math.sin(th), math.cos(th)]])
        shift = np.array([3.0, -1.0])
        moved = SwarmConfig(init.positions @ rot.T + shift)
        params = SimulationParams(horizon=0.5, record_every=50)
        a = simulate(moved, paper_fn, params)
        b = simulate(init, paper_fn, params)
        np.testing.assert_allclose(
            a.final.positions, b.final.positions @ rot.T + shift, atol=1e-9
        )

    def test_divergence_reports_snapshot(self):
        with pytest.raises(IntegrationDivergedError) as err:
            simulate(pair(1.2), exploding_profile(), SimulationParams(horizon=0.1))
        assert err.value.step is not None
        assert err.value.snapshot is not None

    def test_divergence_stops_before_evaluating_the_bad_state(self):
        # velocities on a non-finite state would warn (inf - inf in its differences)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(IntegrationDivergedError) as err:
                simulate(pair(1.2), exploding_profile(), SimulationParams(horizon=0.1))
        assert err.value.step == 1
        assert np.array_equal(err.value.snapshot.positions, pair(1.2).positions)

    @pytest.mark.parametrize("stride", [1, 2])
    def test_divergence_carries_the_recorded_prefix(self, stride):
        # separation 1.2, 3.2, ..., 11.2 at steps 0..5; step 6 is infinite
        params = SimulationParams(R_s=50.0, horizon=1.0, record_every=stride)
        with pytest.raises(IntegrationDivergedError) as err:
            simulate(pair(1.2), runaway_profile(), params)
        assert err.value.step == 6
        prefix = err.value.trajectory
        steps = list(range(0, 6, stride))
        assert len(prefix.times) == len(prefix.states) == len(prefix.inputs) == len(steps)
        assert prefix.times.tolist() == [k * params.dt for k in steps]
        assert [s[1, 0] - s[0, 0] for s in prefix.states] == [1.2 + 2 * k for k in steps]
        for state, u in zip(prefix.states, prefix.inputs):
            # the input that drove the divergence is non-finite
            assert np.array_equal(u, velocities(state, runaway_profile(), params.R_s)[0], equal_nan=True)
        assert np.array_equal(err.value.snapshot.positions, prefix.states[-1])


def exploding_profile():
    from triswarm.interaction import InteractionFunction

    return InteractionFunction(
        force=lambda z: np.full_like(np.asarray(z, float), np.inf),
        derivative=lambda z: np.zeros_like(np.asarray(z, float)),
        potential=lambda z: np.zeros_like(np.asarray(z, float)),
        R=1.0,
        R_a=R_A,
    )


def runaway_profile():
    """Repulsion 100 out to distance 10 and infinite beyond: a pair at 1.2 separates
    by 2 per 0.01 step and diverges on the first step taken from beyond 10."""
    from triswarm.interaction import InteractionFunction

    return InteractionFunction(
        force=lambda z: np.where(np.asarray(z, float) < 10.0, 100.0, np.inf),
        derivative=lambda z: np.zeros_like(np.asarray(z, float)),
        potential=lambda z: np.zeros_like(np.asarray(z, float)),
        R=1.0,
        R_a=R_A,
    )


class TestCarriedInputs:
    @pytest.mark.parametrize("truncate", [False, True])
    @pytest.mark.parametrize("stride", [1, 7])
    def test_each_recorded_state_carries_its_input(self, stride, truncate):
        from triswarm import saturated_lennard_jones

        fn = saturated_lennard_jones(truncate=truncate)
        lattice = generate_triangular(LatticeSpec(n=25, seed=2, growth="compact"), R_A)
        params = SimulationParams(horizon=1.0, record_every=stride)
        traj = simulate(perturb(lattice, 0.3, 4), fn, params)
        assert traj.inputs.shape == traj.states.shape
        assert traj.times[-1] == params.n_steps * params.dt  # the final state is recorded
        for k in range(len(traj.times)):
            assert np.array_equal(traj.inputs[k], velocities(traj.states[k], fn, params.R_s)[0])

    @pytest.mark.parametrize("stride", [1, 3, 7, 100, 1000])
    def test_records_match_the_stride(self, paper_fn, stride):
        params = SimulationParams(horizon=1.0, record_every=stride)
        traj = simulate(pair(1.2), paper_fn, params)
        expected = sorted(set(range(0, params.n_steps + 1, stride)) | {params.n_steps})
        assert traj.times.tolist() == [k * params.dt for k in expected]

    def test_states_follow_their_inputs(self, paper_fn, lattice25):
        params = SimulationParams(horizon=0.2)
        traj = simulate(perturb(lattice25, 0.2, 1), paper_fn, params)
        assert np.array_equal(traj.states[1:], traj.states[:-1] + params.dt * traj.inputs[:-1])

    def test_final_input_not_counted_as_coincident(self, paper_fn):
        # a coincident pair stays put: one warning per step, none for the final input
        cfg = SwarmConfig(np.array([[0.0, 0.0], [0.0, 0.0], [5.0, 0.0]]))
        params = SimulationParams(horizon=0.1)
        traj = simulate(cfg, paper_fn, params)
        assert traj.coincident_warnings == params.n_steps
        assert np.all(traj.inputs[:, :2] == 0.0)


class TestCenterDrift:
    def test_symmetric_pair_exactly_zero(self, paper_fn):
        # symmetric about the origin, so the velocities negate each other
        # exactly and the mean stays 0.0 in floating point
        cfg = SwarmConfig(np.array([[-0.6, 0.0], [0.6, 0.0]]))
        traj = simulate(cfg, paper_fn, SimulationParams(horizon=1.0, record_every=10))
        assert center_drift(traj) == 0.0

    def test_perturbed_lattice_below_bound(self, paper_fn, lattice25):
        from triswarm import perturb

        init = perturb(lattice25, 0.2, 3)
        traj = simulate(init, paper_fn, SimulationParams(horizon=2.0, record_every=10))
        assert center_drift(traj) <= 1e-9

    def test_detects_injected_disturbance(self, paper_fn):
        traj = simulate(pair(1.2), paper_fn, SimulationParams(horizon=0.1))
        traj.states[-1] += np.array([0.5, 0.0])  # external push, breaks invariance
        assert center_drift(traj) > 0.0
