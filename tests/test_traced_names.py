"""The benchmark's traced names and probe calls exist in the library.

perfbench/tracing.py looks its functions up by name and perfbench/probes.py
calls a few entry points with fixed arguments; a rename or a signature
change would otherwise surface only in a traced benchmark run.
"""

import importlib
import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest

from triswarm import (
    LatticeSpec,
    SimulationParams,
    analyze_configuration,
    compute_links,
    generate_triangular,
    is_infinitesimally_rigid,
    jacobian,
    perturb,
    rigidity_matrix,
    saturated_lennard_jones,
)
from triswarm.diagnostics import dissipation_check
from triswarm.dynamics import simulate, velocities
from triswarm.linearization import spectral_analysis

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
R_A = (1.0 + math.sqrt(3.0)) / 2.0


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACED = load_tracing().TRACED


@pytest.mark.parametrize("module, name", [(m, f) for m, names in TRACED.items() for f in names])
def test_traced_name_exists(module, name):
    assert callable(getattr(importlib.import_module(f"triswarm.{module}"), name))


@pytest.fixture(scope="module")
def probe_inputs():
    fn = saturated_lennard_jones()
    lattice = generate_triangular(LatticeSpec(n=25, seed=0, growth="compact"), fn.R_a)
    return fn, lattice


def test_generate_triangular_probe_call(probe_inputs):
    _, lattice = probe_inputs
    assert lattice.n == 25


def test_rigidity_probe_calls(probe_inputs):
    # compute_links(config, r_a) and is_infinitesimally_rigid(config, links), as the
    # probes and the tracked workload's gate call them
    fn, lattice = probe_inputs
    links = compute_links(lattice, fn.R_a)
    assert links.m > 0 and np.all(np.abs(links.lengths - 1.0) <= 1e-12)
    assert is_infinitesimally_rigid(lattice, links) is True


def test_jacobian_probe_call(probe_inputs):
    fn, lattice = probe_inputs
    j = jacobian(lattice, fn, fn.R_a)
    assert j.shape == (2 * lattice.n, 2 * lattice.n)
    assert np.array_equal(j, j.T)


def test_analyze_configuration_call(probe_inputs):
    # `triswarm spectrum` in the cli_analysis workload calls it once per lattice
    fn, lattice = probe_inputs
    report = analyze_configuration(lattice, fn, fn.R_a)
    assert (report.zero_count, report.negative_count) == (3, 2 * lattice.n - 3)
    assert report.kernel_aligned


def test_velocities_probe_call(probe_inputs):
    fn, lattice = probe_inputs
    positions = perturb(lattice, 0.2, 0).positions
    u, warn = velocities(positions, fn, SimulationParams().R_s)
    assert u.shape == positions.shape and warn == 0


def test_dissipation_check_probe_call(probe_inputs):
    fn, lattice = probe_inputs
    params = SimulationParams(horizon=0.05, dt=0.01, record_every=1)
    traj = simulate(perturb(lattice, 0.2, 0), fn, params)
    report = dissipation_check(traj, fn, params)
    assert len(report.values) == len(traj.times)


def test_spectral_analysis_probe_call(probe_inputs):
    fn, lattice = probe_inputs
    j = jacobian(lattice, fn, R_A)
    m = rigidity_matrix(lattice, compute_links(lattice, R_A))
    report = spectral_analysis(j, m)
    assert report.zero_count == 3
    assert np.isfinite(report.max_kernel_residual)
