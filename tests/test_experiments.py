import dataclasses

import numpy as np
import pytest

from triswarm import (
    LatticeSpec,
    SimulationParams,
    SwarmConfig,
    SweepSpec,
    Trajectory,
    compute_links,
    convergence_study,
    delta_sweep,
    experiments,
    generate_triangular,
    graph,
    is_infinitesimally_rigid,
    is_triangular,
    link_error,
    perturb,
    run_trial,
    simulate,
    trial_seeds,
)
from triswarm.errors import IntegrationDivergedError, InvalidInputError
from triswarm.experiments import CONVERGENCE_E, write_sweep_csv

from .test_dynamics import exploding_profile, runaway_profile

FAST_SIM = SimulationParams(horizon=2.0, record_every=20)


@pytest.fixture
def dense_passes(monkeypatch):
    """Cutoffs of the dense pair passes (`graph._pairs_within`) made from here on."""
    passes = []
    original = graph._pairs_within

    def counted(config, cutoff):
        passes.append(cutoff)
        return original(config, cutoff)

    monkeypatch.setattr(graph, "_pairs_within", counted)
    return passes


@pytest.fixture
def rank_tests(monkeypatch):
    """Shapes of the matrices passed to `numerical_rank` from here on."""
    calls = []
    original = graph.numerical_rank

    def counted(matrix, *args, **kwargs):
        calls.append(np.shape(matrix))
        return original(matrix, *args, **kwargs)

    monkeypatch.setattr(graph, "numerical_rank", counted)
    return calls


class TestTrialSeeds:
    def test_deterministic(self):
        assert trial_seeds(0, 1, 2) == trial_seeds(0, 1, 2)

    def test_distinct_across_grid(self):
        seen = {trial_seeds(0, di, ti) for di in range(4) for ti in range(10)}
        assert len(seen) == 40

    def test_base_changes_everything(self):
        assert trial_seeds(0, 0, 0) != trial_seeds(1, 0, 0)


class TestRunTrial:
    def test_zero_delta_converged_truncated(self, truncated_fn):
        # with the strictly-vanishing force the lattice is an exact equilibrium
        rec = run_trial(25, 0.0, (3, 4), FAST_SIM, truncated_fn)
        assert rec.converged and rec.rigid_final and not rec.diverged
        assert rec.e_initial <= 1e-12 and rec.e_final <= 1e-12

    def test_zero_delta_near_equilibrium_untruncated(self, paper_fn):
        # the untruncated tail pulls distant agents slightly, so the lattice
        # drifts a little but stays well inside the convergence threshold
        rec = run_trial(25, 0.0, (3, 4), FAST_SIM, paper_fn)
        assert rec.converged and rec.rigid_final
        assert rec.e_initial <= 1e-12
        assert rec.e_final <= 1e-3

    def test_small_delta_typical_convergence(self, paper_fn):
        sim = SimulationParams(horizon=20.0, record_every=100)
        rec = run_trial(25, 0.2, trial_seeds(0, 0, 0), sim, paper_fn)
        assert rec.converged
        assert rec.e_final <= CONVERGENCE_E
        assert rec.e_initial <= 2 * 0.2

    def test_large_delta_typically_fails(self, paper_fn):
        sim = SimulationParams(horizon=20.0, record_every=100)
        rec = run_trial(100, 0.6, trial_seeds(0, 0, 0), sim, paper_fn)
        assert not rec.triangular_final

    def test_rigidity_tracking_optional(self, paper_fn):
        rec = run_trial(10, 0.05, (1, 2), FAST_SIM, paper_fn)
        assert rec.rigidity_preserved is None
        rec = run_trial(10, 0.05, (1, 2), FAST_SIM, paper_fn, track_rigidity=True)
        assert rec.rigidity_preserved is True

    def test_final_state_without_links_scores_infinite(self, paper_fn, monkeypatch):
        def scattered(initial, fn, sim):
            states = np.stack([initial.positions, 10.0 * initial.positions])
            return Trajectory(times=np.array([0.0, sim.dt]), states=states, params=sim)

        monkeypatch.setattr(experiments, "simulate", scattered)
        rec = run_trial(10, 0.05, (1, 2), FAST_SIM, paper_fn)
        assert rec.e_final == float("inf")
        assert not rec.rigid_final and not rec.converged

    def test_final_state_scored_by_one_link_pass(self, paper_fn, dense_passes, rank_tests):
        rec = run_trial(10, 0.05, (1, 2), FAST_SIM, paper_fn)
        # the lattice check, e_initial from the first recorded state, the final report
        assert len(dense_passes) == 3
        assert len(rank_tests) == 2  # the lattice check and the final report
        spec = LatticeSpec(n=10, R=FAST_SIM.R, seed=1, growth="compact")
        start = perturb(generate_triangular(spec, FAST_SIM.R_a), 0.05, 2)
        final = simulate(start, paper_fn, FAST_SIM).final
        assert rec.e_final == link_error(final, FAST_SIM.R, FAST_SIM.R_a)
        assert rec.e_initial == link_error(start, FAST_SIM.R, FAST_SIM.R_a)

    def test_diverged_trial_scores_the_recorded_prefix(self):
        # the exploding profile diverges on the first step: the prefix is the start
        sim = SimulationParams(horizon=0.1, record_every=1)
        rec = run_trial(10, 0.05, (1, 2), sim, exploding_profile(), track_rigidity=True)
        assert rec.diverged and not rec.converged
        assert rec.e_final == rec.e_initial
        assert rec.rigid_final and rec.rigidity_preserved is True


@pytest.fixture(scope="module")
def small_sweep(paper_fn):
    spec = SweepSpec(delta_values=(0.0, 0.1), trials_per_delta=3, n=10, sim=FAST_SIM)
    return spec, delta_sweep(spec, paper_fn)


class TestDeltaSweep:
    def test_summary_shape(self, small_sweep):
        spec, result = small_sweep
        assert len(result.summaries) == 2
        assert len(result.trials) == 6
        for s in result.summaries:
            assert 0.0 <= s.rho <= 1.0
            assert s.e_min <= s.e_mean <= s.e_max

    def test_zero_delta_row(self, small_sweep):
        _, result = small_sweep
        s = result.summaries[0]
        assert s.rho == 1.0 and s.rho_triangular == 1.0
        # the untruncated tail keeps the lattice only a near-equilibrium
        assert s.e_max <= 1e-3

    def test_bit_identical_rerun(self, small_sweep, paper_fn):
        spec, result = small_sweep
        again = delta_sweep(spec, paper_fn)
        assert again == result

    def test_trial_outcomes_independent_of_batch_size(self, small_sweep, paper_fn):
        spec, result = small_sweep
        solo = SweepSpec(delta_values=(0.1,), trials_per_delta=1, n=10, sim=FAST_SIM)
        # delta 0.1 sits at index 1 in the full grid; rebuild its first trial
        seeds = (
            trial_seeds(spec.lattice_seed_base, 1, 0)[0],
            trial_seeds(spec.perturb_seed_base, 1, 0)[1],
        )
        rec = run_trial(10, 0.1, seeds, FAST_SIM, paper_fn, growth=spec.growth)
        batch_rec = result.trials[3]
        assert rec.e_final == batch_rec.e_final
        assert rec.lattice_seed == batch_rec.lattice_seed

    def test_converged_implies_triangular(self, small_sweep):
        _, result = small_sweep
        for rec in result.trials:
            if rec.converged:
                assert rec.rigid_final and rec.e_final <= CONVERGENCE_E

    def test_parallel_jobs_match_serial(self, small_sweep, paper_fn):
        spec, result = small_sweep
        parallel = delta_sweep(spec, paper_fn, jobs=2)
        assert parallel.trials == result.trials

    def test_spec_validation(self):
        with pytest.raises(InvalidInputError):
            SweepSpec(delta_values=(0.2, 0.1), trials_per_delta=1, n=10, sim=FAST_SIM)
        with pytest.raises(InvalidInputError):
            SweepSpec(delta_values=(-0.1,), trials_per_delta=1, n=10, sim=FAST_SIM)
        with pytest.raises(InvalidInputError):
            SweepSpec(delta_values=(0.1,), trials_per_delta=0, n=10, sim=FAST_SIM)

    def test_csv_outputs(self, small_sweep, tmp_path):
        _, result = small_sweep
        write_sweep_csv(result, tmp_path)
        summary = (tmp_path / "sweep_summary.csv").read_text().splitlines()
        assert summary[0] == "delta,rho,e_mean,e_min,e_max,trials"
        assert len(summary) == 3
        trials = (tmp_path / "trials.csv").read_text().splitlines()
        assert trials[0] == "delta,trial,lattice_seed,perturb_seed,e_final,rigid,converged"
        assert len(trials) == 7


class TestConvergenceStudy:
    def test_zero_delta_flat_series(self, truncated_fn):
        study = convergence_study(10, 0.0, 2, FAST_SIM, truncated_fn)
        assert np.all(study.series <= 1e-12)

    def test_envelope_ordering_and_initial_bound(self, paper_fn):
        study = convergence_study(10, 0.15, 3, FAST_SIM, paper_fn)
        assert np.all(study.min <= study.mean + 1e-15)
        assert np.all(study.mean <= study.max + 1e-15)
        assert np.all(study.series[:, 0] <= 2 * 0.15)

    def test_trials_are_run_trial_records(self, paper_fn):
        delta = 0.2
        study = convergence_study(10, delta, 3, FAST_SIM, paper_fn, track_rigidity=True)
        assert study.series.shape == (3, len(study.times))
        for k, record in enumerate(study.records):
            seeds = (trial_seeds(0, 0, k)[0], trial_seeds(1, 0, k)[1])
            alone = run_trial(10, delta, seeds, FAST_SIM, paper_fn, track_rigidity=True)
            assert record == dataclasses.replace(alone, trial_index=k)
            assert study.series[k][0] == alone.e_initial
            assert study.series[k][-1] == alone.e_final

    def test_series_and_rigidity_equal_per_state_link_passes(self, paper_fn):
        sim = SimulationParams(horizon=3.0, record_every=10)
        study = convergence_study(100, 0.35, 3, sim, paper_fn, track_rigidity=True)
        assert [r.rigidity_preserved for r in study.records] == [True, False, False]
        for series, record in zip(study.series, study.records):
            spec = LatticeSpec(n=100, R=sim.R, seed=record.lattice_seed, growth="compact")
            start = perturb(generate_triangular(spec, sim.R_a), 0.35, record.perturb_seed)
            states = [SwarmConfig(s) for s in simulate(start, paper_fn, sim).states]
            assert series.tolist() == [link_error(s, sim.R, sim.R_a) for s in states]
            flags = [is_infinitesimally_rigid(s, compute_links(s, sim.R_a)) for s in states]
            assert record.rigidity_preserved == all(flags)

    def test_tracked_trial_link_passes(self, paper_fn, dense_passes, rank_tests):
        # the benchmark's tracked trial: 6 recorded states at n = 400
        sim = SimulationParams(dt=0.01, horizon=0.5, record_every=10)
        study = convergence_study(400, 0.2, 1, sim, paper_fn, track_rigidity=True)
        assert study.records[0].rigidity_preserved and study.series.shape == (1, 6)
        # the lattice check, one links_along pass over the recorded states, the final report
        assert len(dense_passes) == 3
        # the lattice check, the 5 states before the last, the final report
        assert len(rank_tests) == 7

    def test_tracked_trial_makes_no_svd_call(self, paper_fn, count_svd_calls):
        calls = count_svd_calls()
        record = run_trial(100, 0.1, (3, 4), FAST_SIM, paper_fn, track_rigidity=True)
        assert record.rigidity_preserved and record.rigid_final
        assert calls == []

    def test_divergence_is_raised(self, paper_fn, monkeypatch):
        def diverge(initial, fn, params):
            start = Trajectory(times=np.zeros(1), states=initial.positions[None], params=params)
            raise IntegrationDivergedError("diverged at step 1", trajectory=start, step=1)

        monkeypatch.setattr(experiments, "simulate", diverge)
        with pytest.raises(IntegrationDivergedError):
            convergence_study(10, 0.1, 2, FAST_SIM, paper_fn)

    def test_divergence_after_links_break_is_raised(self):
        # the recorded state after the first step has no links, so it has no link error
        sim = SimulationParams(R_s=50.0, horizon=1.0, record_every=1)
        with pytest.raises(IntegrationDivergedError):
            convergence_study(10, 0.0, 1, sim, runaway_profile())
