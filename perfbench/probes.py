"""Layer probes: single library calls timed at fixed sizes, outside any workload.

They are made in the traced run only, after the tracing wrappers are
removed, and are named `probe.<function>.n<N>_s`.
"""

from __future__ import annotations

import statistics
import time
import tracemalloc

from triswarm import diagnostics, dynamics, graph, interaction, lattice, linearization

PROBE_N = (100, 400, 1000)
#: The dense eigensolve at n = 1000 takes over 10 s on 2 CPUs, more than a run can spend.
SPECTRUM_MAX_N = 400
DISSIPATION_N = 100
DISSIPATION_STEPS = 500
DELTA = 0.2
BUDGET_S = 0.3  # repeat a call until this much time is spent, then take the median
MAX_REPEATS = 25


def timed_median(call, budget: float = BUDGET_S, max_repeats: int = MAX_REPEATS) -> float:
    """Median duration of `call()` over repeats filling `budget` seconds (at least one)."""
    times = []
    while not times or (sum(times) < budget and len(times) < max_repeats):
        start = time.perf_counter()
        call()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def run_probes(seed: int) -> dict[str, float]:
    """Seconds per call of each probed function at each probed n."""
    fn = interaction.saturated_lennard_jones()
    r_a, r_s = fn.R_a, dynamics.SimulationParams().R_s
    out = {}
    configs = {}
    for n in PROBE_N:
        spec = lattice.LatticeSpec(n=n, seed=seed, growth="compact")
        start = time.perf_counter()
        config = lattice.generate_triangular(spec, r_a)
        out[f"probe.generate_triangular.n{n}_s"] = time.perf_counter() - start
        configs[n] = config
        positions = lattice.perturb(config, DELTA, seed).positions
        links = graph.compute_links(config, r_a)
        out[f"probe.velocities.n{n}_s"] = timed_median(
            lambda: dynamics.velocities(positions, fn, r_s)
        )
        out[f"probe.compute_links.n{n}_s"] = timed_median(lambda: graph.compute_links(config, r_a))
        out[f"probe.is_infinitesimally_rigid.n{n}_s"] = timed_median(
            lambda: graph.is_infinitesimally_rigid(config, links)
        )
        out[f"probe.jacobian.n{n}_s"] = timed_median(
            lambda: linearization.jacobian(config, fn, r_a)
        )
        if n <= SPECTRUM_MAX_N:
            j = linearization.jacobian(config, fn, r_a)
            m = graph.rigidity_matrix(config, links)
            out[f"probe.spectral_analysis.n{n}_s"] = timed_median(
                lambda: linearization.spectral_analysis(j, m)
            )
    params = dynamics.SimulationParams(
        horizon=DISSIPATION_STEPS * 0.01, dt=0.01, record_every=1
    )
    start_config = lattice.perturb(configs[DISSIPATION_N], DELTA, seed)
    traj = dynamics.simulate(start_config, fn, params)
    out[f"probe.dissipation_check.n{DISSIPATION_N}_s"] = timed_median(
        lambda: diagnostics.dissipation_check(traj, fn, params)
    )
    return out


PROBE_NAMES = tuple(
    [f"probe.generate_triangular.n{n}_s" for n in PROBE_N]
    + [
        f"probe.{f}.n{n}_s"
        for f in ("velocities", "compute_links", "is_infinitesimally_rigid", "jacobian")
        for n in PROBE_N
    ]
    + [f"probe.spectral_analysis.n{n}_s" for n in PROBE_N if n <= SPECTRUM_MAX_N]
    + [f"probe.dissipation_check.n{DISSIPATION_N}_s"]
)


def velocities_peak_bytes(n: int, seed: int) -> int:
    """Peak bytes NumPy allocates inside one `velocities` call at size n."""
    fn = interaction.saturated_lennard_jones()
    config = lattice.generate_triangular(lattice.LatticeSpec(n=n, seed=seed, growth="compact"), fn.R_a)
    positions = lattice.perturb(config, DELTA, seed).positions
    r_s = dynamics.SimulationParams().R_s
    dynamics.velocities(positions, fn, r_s)  # warm: first-call allocations are not the kernel's
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        dynamics.velocities(positions, fn, r_s)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
