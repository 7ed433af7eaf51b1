"""Self-tests of the benchmark's helpers: python3 -m pytest perfbench -q"""

from __future__ import annotations

import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
from stats import iqr_frac, tail  # noqa: E402
from tracing import Tracer, leftover_wrappers  # noqa: E402
from workloads import (  # noqa: E402
    WORKLOADS,
    op_seeds,
    simulate_gate,
    spectrum_gate,
    sweep_gate,
    tracked_gate,
)

from triswarm.experiments import TrialRecord  # noqa: E402


# -- statistics -----------------------------------------------------------------


def test_tail_has_exactly_ten_samples_beyond():
    values = [float(v) for v in range(30, 0, -1)]
    value, pct, beyond = tail(values)
    assert value == 20.0
    assert beyond == 10 and sum(v > value for v in values) == 10
    assert pct == pytest.approx(100.0 * 20 / 30)


def test_tail_unresolved_below_eleven_samples():
    assert tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 0)
    assert tail([float(v) for v in range(10)]) == (9.0, 100.0, 0)
    assert tail([float(v) for v in range(11)]) == (0.0, 100.0 / 11, 10)


def test_iqr_frac_uses_statistics_quartiles():
    values = [1.0, 2.0, 2.5, 3.0, 10.0, 4.0, 5.0, 6.0, 7.0, 8.0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    assert iqr_frac(values) == pytest.approx((q3 - q1) / statistics.median(values))
    assert iqr_frac([2.0] * 10) == 0.0


# -- spans ------------------------------------------------------------------------


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


def test_self_time_subtracts_nested_spans():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def leaf_body():
        clock.t += 2.0

    leaf = tracer.wrap("leaf", leaf_body)

    def mid_body():
        clock.t += 1.0
        leaf()
        clock.t += 0.5

    mid = tracer.wrap("mid", mid_body)

    def top_body():
        clock.t += 3.0
        mid()
        leaf()

    tracer.wrap("top", top_body)()

    assert tracer.total_s["top"] == 8.5 and tracer.self_s["top"] == 3.0
    assert tracer.total_s["mid"] == 3.5 and tracer.self_s["mid"] == 1.5
    assert tracer.calls["leaf"] == 2 and tracer.self_s["leaf"] == 4.0
    assert sum(tracer.self_s.values()) == tracer.total_s["top"]
    assert tracer.child_calls("top", "mid") == 1
    assert tracer.child_calls("mid", "leaf") == 1 and tracer.child_calls("top", "leaf") == 1


def test_span_closes_when_the_call_raises():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def fails():
        clock.t += 1.0
        raise ValueError("boom")

    with pytest.raises(ValueError):
        tracer.wrap("fails", fails)()
    assert tracer.calls["fails"] == 1 and tracer.self_s["fails"] == 1.0
    assert tracer.parent is None


def test_wrappers_are_removed_after_the_traced_run():
    import triswarm
    from triswarm import cli, config, diagnostics, dynamics, graph

    def snapshot():
        return {
            (name, attr): value
            for name, module in sys.modules.items()
            if name == "triswarm" or name.startswith("triswarm.")
            for attr, value in vars(module).items()
            if callable(value)
        }

    before = snapshot()
    tracer = Tracer()
    with pytest.raises(RuntimeError):
        with tracer.installed():
            assert dynamics.velocities is not before[("triswarm.dynamics", "velocities")]
            assert diagnostics.velocities is dynamics.velocities
            assert triswarm.compute_links is graph.compute_links
            assert hasattr(cli.cmd_simulate, "perfbench_span")
            fn = config.ExperimentConfig().interaction()
            assert hasattr(fn.force, "perfbench_span")
            raise RuntimeError("leave the block early")
    assert leftover_wrappers() == []
    assert snapshot() == before
    assert not hasattr(config.ExperimentConfig().interaction().force, "perfbench_span")


def test_traced_calls_record_spans_and_counters():
    from triswarm import dynamics, graph, interaction, lattice

    tracer = Tracer()
    fn = interaction.saturated_lennard_jones()
    config = lattice.generate_triangular(lattice.LatticeSpec(n=12, seed=3), fn.R_a)
    with tracer.installed():
        traced_fn = tracer.wrap_profile(fn)
        dynamics.velocities(config.positions, traced_fn, 3.0)
        dynamics.velocities(config.positions, traced_fn, 3.0)
        graph.is_infinitesimally_rigid(config, graph.compute_links(config, fn.R_a))
    assert tracer.calls["dynamics.velocities"] == 2
    assert tracer.distinct_input_frac("dynamics.velocities") == 0.5
    assert tracer.child_calls("dynamics.velocities", "interaction.force") == 2
    assert 0 < tracer.counters["dynamics.velocities.useful_pairs"] <= 2 * 12 * 11
    assert tracer.counters["dynamics.velocities.ordered_pairs"] == 2 * 12 * 11
    assert tracer.child_calls("graph.is_infinitesimally_rigid", "graph.numerical_rank") == 1
    assert tracer.counters["graph.numerical_rank.computed_flops"] > 0


# -- correctness gates ------------------------------------------------------------

SPECTRUM_OK = (
    "n,seed,zero_count,negative_count,kernel_aligned,max_kernel_residual,max_real_nonzero_eig\n"
    "100,7,3,197,1,1e-15,-0.01\n"
    "400,8,3,797,1,1e-15,-0.002\n"
)


def test_spectrum_gate_accepts_a_correct_summary():
    assert spectrum_gate(0, SPECTRUM_OK, (100, 400)) == []


@pytest.mark.parametrize(
    "old, new, message",
    [
        ("100,7,3,197,1", "100,7,4,196,1", "4 zero modes"),
        ("400,8,3,797,1", "400,8,3,796,1", "796 negative modes"),
        ("400,8,3,797,1", "400,8,3,797,0", "kernel not aligned"),
        ("400,8,3,797,1,1e-15,-0.002\n", "", "expected"),
    ],
)
def test_spectrum_gate_rejects_a_tampered_summary(old, new, message):
    failures = spectrum_gate(0, SPECTRUM_OK.replace(old, new), (100, 400))
    assert any(message in f for f in failures), failures


def test_spectrum_and_simulate_gates_reject_a_failed_command():
    assert spectrum_gate(3, None, (100, 400))
    assert simulate_gate(2, None)


def test_simulate_gate():
    assert simulate_gate(0, {"rigid_final": True, "center_drift": 1e-12}) == []
    assert simulate_gate(0, {"rigid_final": False, "center_drift": 0.0})
    assert simulate_gate(0, {"rigid_final": True, "center_drift": 1e-8})


def _record(**changes):
    base = dict(
        delta=0.25, trial_index=0, lattice_seed=1, perturb_seed=2, e_initial=0.3, e_final=1e-4,
        rigid_final=True, triangular_final=True, converged=True, diverged=False,
    )
    return TrialRecord(**{**base, **changes})


def test_sweep_gate_never_gates_the_open_basin_edge():
    assert sweep_gate(_record()) == []
    assert sweep_gate(_record(converged=False))
    assert sweep_gate(_record(rigid_final=False))
    assert sweep_gate(_record(delta=0.5, converged=False, rigid_final=False, e_final=0.3)) == []
    assert sweep_gate(_record(delta=0.5, converged=False, e_final=float("inf")))
    assert sweep_gate(_record(delta=0.5, converged=False, e_final=float("inf"), diverged=True)) == []


def test_tracked_gate():
    assert tracked_gate(_record(rigidity_preserved=True)) == []
    assert tracked_gate(_record(rigidity_preserved=False))
    assert tracked_gate(_record(rigidity_preserved=None))
    assert tracked_gate(_record(rigidity_preserved=True, e_final=0.3))
    # a start that is not rigid has no rigidity to keep; the error gate still holds
    assert tracked_gate(_record(rigidity_preserved=False), start_rigid=False) == []
    assert tracked_gate(_record(rigidity_preserved=False, e_final=0.3), start_rigid=False)
    assert tracked_gate(_record(rigidity_preserved=None), start_rigid=False)


# -- the benchmark's interface ------------------------------------------------------


def test_op_seeds_follow_the_workload_seed():
    assert op_seeds(1, 0) == op_seeds(1, 0)
    assert op_seeds(1, 0) != op_seeds(2, 0)
    assert op_seeds(1, 0) != op_seeds(1, 1)


class FakeWorkload:
    min_ops = 2

    def __init__(self, seconds):
        self.seconds, self.ran = seconds, []

    def run(self, i, workdir):
        self.ran.append(i)
        return SimpleNamespace(seconds=self.seconds)


def test_closed_loop_times_operations_after_the_warm_up():
    workload = FakeWorkload(seconds=1.0)
    assert len(run.closed_loop(workload, 0.0, HERE, count=3)) == 3
    assert workload.ran == [1, 2, 3]
    workload.ran = []
    # an operation expected to overrun the budget is not started, beyond min_ops
    assert len(run.closed_loop(workload, 0.0, HERE)) == FakeWorkload.min_ops
    assert workload.ran == [1, 2]


def test_benchmark_json_lists_what_run_reports():
    doc = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == run.per_layer_units()


def test_fails_without_the_library(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep_n100", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
