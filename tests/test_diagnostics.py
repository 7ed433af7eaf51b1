import math

import numpy as np
import pytest

from triswarm import (
    SimulationParams,
    SwarmConfig,
    dissipation_check,
    lyapunov_rate,
    lyapunov_value,
    perturb,
    simulate,
    swarm_center,
)

from .oracles import adaptive_simpson

R_A = (1.0 + math.sqrt(3.0)) / 2.0


class TestLyapunovValue:
    def test_lattice_at_own_center_is_zero(self, lattice25, paper_fn):
        c = swarm_center(lattice25)
        assert lyapunov_value(lattice25, c, paper_fn, R_A) == pytest.approx(0.0, abs=1e-12)

    def test_translation_contributes_center_term_only(self, lattice25, paper_fn):
        c = swarm_center(lattice25)
        moved = SwarmConfig(lattice25.positions + np.array([1.0, 0.0]))
        assert lyapunov_value(moved, c, paper_fn, R_A) == pytest.approx(1.0, abs=1e-10)

    def test_stretched_link_adds_its_potential(self, paper_fn):
        cfg = SwarmConfig(np.array([[0.0, 0.0], [1.1, 0.0]]))
        v = lyapunov_value(cfg, swarm_center(cfg), paper_fn, R_A)
        oracle = -adaptive_simpson(lambda y: float(paper_fn.force(y)), 1.0, 1.1)
        assert v == pytest.approx(oracle, abs=1e-10)
        assert v > 0.0

    def test_nonnegative_on_random_configs(self, paper_fn):
        rng = np.random.default_rng(8)
        for _ in range(25):
            cfg = SwarmConfig(rng.uniform(-2, 2, (8, 2)))
            assert lyapunov_value(cfg, swarm_center(cfg), paper_fn, R_A) >= 0.0


class TestLyapunovRate:
    def test_zero_at_equilibrium(self, truncated_fn):
        cfg = SwarmConfig(np.array([[0.0, 0.0], [1.0, 0.0]]))
        assert lyapunov_rate(cfg, truncated_fn, 3.0) == 0.0

    def test_rounding_floor_at_generated_lattice(self, lattice25, truncated_fn):
        # lattice link lengths land within 1 ulp of 1.0, so the rate is a
        # tiny negative number rather than exactly zero
        rate = lyapunov_rate(lattice25, truncated_fn, 3.0)
        assert -1e-28 <= rate <= 0.0

    def test_negative_when_perturbed(self, lattice25, paper_fn):
        assert lyapunov_rate(perturb(lattice25, 0.1, 1), paper_fn, 3.0) < 0.0

    def test_saturated_pair_rate(self, paper_fn):
        cfg = SwarmConfig(np.array([[0.0, 0.0], [0.5, 0.0]]))
        # each agent moves at speed 1 (saturated force), so the rate is -2
        assert lyapunov_rate(cfg, paper_fn, 3.0) == pytest.approx(-2.0, abs=1e-14)

    def test_never_positive(self, paper_fn):
        rng = np.random.default_rng(13)
        for _ in range(25):
            cfg = SwarmConfig(rng.uniform(-2, 2, (7, 2)))
            assert lyapunov_rate(cfg, paper_fn, 3.0) <= 0.0


class TestDissipationCheck:
    def test_requires_stride_one(self, lattice25, paper_fn):
        traj = simulate(lattice25, paper_fn, SimulationParams(horizon=0.1, record_every=2))
        with pytest.raises(ValueError):
            dissipation_check(traj, paper_fn, SimulationParams(horizon=0.1, record_every=2))

    def test_small_perturbation_high_agreement(self, truncated_fn):
        from triswarm import LatticeSpec, generate_triangular

        lattice = generate_triangular(LatticeSpec(n=10, seed=0, growth="compact"), R_A)
        params = SimulationParams(record_every=1)
        traj = simulate(perturb(lattice, 0.05, 100), truncated_fn, params)
        report = dissipation_check(traj, truncated_fn, params)
        assert report.agreement_fraction >= 0.99

    def test_equilibrium_rates_exactly_zero(self, truncated_fn):
        cfg = SwarmConfig(np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]]))
        params = SimulationParams(horizon=0.2, record_every=1)
        traj = simulate(cfg, truncated_fn, params)
        report = dissipation_check(traj, truncated_fn, params)
        assert all(s.rate_analytic == 0.0 for s in report.samples)
        assert all(s.rate_numeric == 0.0 for s in report.samples)

    def test_link_change_flagged_and_excluded(self, paper_fn):
        # two agents drifting together from just outside the link radius
        cfg = SwarmConfig(np.array([[0.0, 0.0], [R_A + 0.004, 0.0]]))
        params = SimulationParams(horizon=1.0, record_every=1)
        traj = simulate(cfg, paper_fn, params)
        report = dissipation_check(traj, paper_fn, params)
        assert report.flagged_count >= 1
        flagged = [s for s in report.samples if s.flagged]
        assert all(not s.mismatch for s in flagged)

    def test_samples_expose_link_counts(self, lattice25, truncated_fn):
        params = SimulationParams(horizon=0.05, record_every=1)
        traj = simulate(lattice25, truncated_fn, params)
        report = dissipation_check(traj, truncated_fn, params)
        assert all(s.link_count > 0 for s in report.samples)

    def test_values_are_the_energy_of_every_recorded_state(self, lattice25, paper_fn):
        params = SimulationParams(horizon=0.3, record_every=1)
        traj = simulate(perturb(lattice25, 0.2, 4), paper_fn, params)
        report = dissipation_check(traj, paper_fn, params)
        ref = swarm_center(traj.initial)
        assert len(report.values) == len(traj.times)
        for k, value in enumerate(report.values):
            assert value == lyapunov_value(traj.config(k), ref, paper_fn, R_A)
        assert list(report.values[:-1]) == [s.value for s in report.samples]
