import math

import numpy as np
import pytest

from triswarm import (
    LatticeSpec,
    SimulationParams,
    SwarmConfig,
    generate_triangular,
    saturated_lennard_jones,
)

R_A = (1.0 + math.sqrt(3.0)) / 2.0


@pytest.fixture(scope="session")
def paper_fn():
    """Default saturated Lennard-Jones profile with the long-range tail kept."""
    return saturated_lennard_jones()


@pytest.fixture(scope="session")
def truncated_fn():
    """Variant with the force exactly zero beyond the maximum link length."""
    return saturated_lennard_jones(truncate=True)


@pytest.fixture(scope="session")
def default_params():
    return SimulationParams()


@pytest.fixture
def triangle():
    return SwarmConfig(np.array([[0.0, 0.0], [1.0, 0.0], [0.5, math.sqrt(3.0) / 2.0]]))


@pytest.fixture
def collinear3():
    return SwarmConfig(np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]]))


@pytest.fixture
def square4():
    return SwarmConfig(np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]))


@pytest.fixture(scope="session")
def lattice25():
    return generate_triangular(LatticeSpec(n=25, seed=1), R_A)


@pytest.fixture(scope="session")
def lattice100():
    return generate_triangular(LatticeSpec(n=100, seed=0, growth="compact"), R_A)


@pytest.fixture
def count_svd_calls(monkeypatch):
    """Call it to start counting np.linalg.svd calls; it returns the list that records them."""

    def start():
        calls = []
        original = np.linalg.svd

        def counted(*args, **kwargs):
            calls.append(np.shape(args[0]))
            return original(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counted)
        return calls

    return start
