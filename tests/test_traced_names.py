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
    compute_links,
    generate_triangular,
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
