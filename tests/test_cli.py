import argparse
import dataclasses
import json
import math
import sys

import numpy as np
import pytest

import triswarm.diagnostics
import triswarm.dynamics
import triswarm.graph
from triswarm import (
    LatticeSpec,
    SimulationParams,
    SwarmConfig,
    compute_links,
    generate_triangular,
    jacobian,
    lyapunov_value,
    perturb,
    rigidity_matrix,
    saturated_lennard_jones,
    simulate,
    swarm_center,
)
from triswarm import cli
from triswarm.cli import main
from triswarm.config import ExperimentConfig
from triswarm.errors import SingularityError
from triswarm.serialize import write_config_csv

from .oracles import eig_spectral_analysis

R_A = (1.0 + math.sqrt(3.0)) / 2.0


def run(argv):
    return main(argv)


class TestSimulate:
    def test_typical_run_artifacts(self, tmp_path):
        out = tmp_path / "run"
        code = run(
            [
                "simulate", "--n", "25", "--delta", "0.2", "--seed", "7",
                "--record-every", "10", "--out", str(out),
            ]
        )
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["e_final"] <= 1e-3
        assert summary["rigid_final"] is True
        assert (out / "trajectory.csv").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["n"] == 25
        assert "config_hash" in manifest and "seeds" in manifest

    def test_zero_delta(self, tmp_path):
        out = tmp_path / "flat"
        code = run(
            [
                "simulate", "--n", "10", "--delta", "0", "--horizon", "0.1",
                "--truncate", "--out", str(out),
            ]
        )
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["e_final"] <= 1e-12
        assert (out / "diagnostics.csv").exists()  # stride-1 run emits diagnostics

    def test_one_link_pass_per_recorded_state(self, tmp_path, monkeypatch):
        original = triswarm.graph.compute_links
        calls = []

        def counted(*args, **kwargs):
            calls.append(None)
            return original(*args, **kwargs)

        for name, module in list(sys.modules.items()):
            if name.startswith("triswarm") and getattr(module, "compute_links", None) is original:
                monkeypatch.setattr(module, "compute_links", counted)
        out = tmp_path / "counted"
        code = run(
            [
                "simulate", "--n", "25", "--delta", "0.2", "--horizon", "0.5",
                "--record-every", "1", "--out", str(out),
            ]
        )
        assert code == 0
        states = len(json.loads((out / "summary.json").read_text())["V_series"])
        assert states == 51
        assert len(calls) <= states + 3

    def test_one_evaluation_per_step(self, tmp_path, monkeypatch):
        original = triswarm.dynamics.velocities
        calls = []

        def counted(*args, **kwargs):
            calls.append(None)
            return original(*args, **kwargs)

        monkeypatch.setattr(triswarm.dynamics, "velocities", counted)
        monkeypatch.setattr(triswarm.diagnostics, "velocities", counted)
        out = tmp_path / "counted"
        code = run(
            [
                "simulate", "--n", "25", "--delta", "0.2", "--horizon", "0.5",
                "--record-every", "1", "--out", str(out),
            ]
        )
        assert code == 0
        assert len(calls) == 50 + 1  # each step, and the final state's input

    def test_strided_energy_series_equals_per_state_values(self, tmp_path):
        out = tmp_path / "strided"
        code = run(
            [
                "simulate", "--n", "25", "--delta", "0.5", "--seed", "3", "--horizon", "3",
                "--record-every", "7", "--out", str(out),
            ]
        )
        assert code == 0
        v_series = json.loads((out / "summary.json").read_text())["V_series"]
        fn = saturated_lennard_jones()
        lattice = generate_triangular(LatticeSpec(n=25, seed=3, growth="compact"), R_A)
        traj = simulate(perturb(lattice, 0.5, 4), fn, SimulationParams(horizon=3.0, record_every=7))
        ref = swarm_center(traj.initial)
        assert v_series == [lyapunov_value(traj.config(k), ref, fn) for k in range(len(traj.times))]

    def test_missing_config_file(self, tmp_path, capsys):
        code = run(["simulate", "--config", str(tmp_path / "nope.cfg")])
        assert code == 2

    def test_invalid_geometry_override(self, tmp_path):
        code = run(["simulate", "--R-a", "1.8", "--out", str(tmp_path / "x")])
        assert code == 2


class TestSweep:
    def test_small_sweep(self, tmp_path):
        out = tmp_path / "sweep"
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(
            "experiment.n = 10\n"
            "experiment.trials = 2\n"
            "experiment.delta_grid = 0.0, 0.1\n"
            "simulation.horizon = 1.0\n"
            "simulation.record_every = 20\n"
        )
        code = run(["sweep", "--config", str(cfg), "--out", str(out), "--jobs", "1"])
        assert code == 0
        lines = (out / "sweep_summary.csv").read_text().splitlines()
        assert len(lines) == 3
        first = lines[1].split(",")
        assert float(first[0]) == 0.0
        assert float(first[1]) == 1.0  # delta 0: every trial stays rigid

    def test_output_root_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("TRISWARM_OUT", str(tmp_path / "envout"))
        cfg = tmp_path / "s.cfg"
        cfg.write_text(
            "experiment.n = 10\nexperiment.trials = 1\n"
            "experiment.delta_grid = 0.0\nsimulation.horizon = 0.1\n"
        )
        assert run(["sweep", "--config", str(cfg)]) == 0
        assert (tmp_path / "envout" / "sweep_summary.csv").exists()

    def test_zero_record_every_rejected(self, tmp_path):
        cfg = tmp_path / "s.cfg"
        cfg.write_text(
            "experiment.n = 10\nexperiment.trials = 1\n"
            "experiment.delta_grid = 0.0\nsimulation.horizon = 0.1\n"
        )
        argv = ["sweep", "--config", str(cfg), "--record-every", "0", "--jobs", "1"]
        assert run(argv + ["--out", str(tmp_path / "o")]) == 2
        assert not (tmp_path / "o").exists()


class TestSpectrum:
    def test_batch_rows(self, tmp_path):
        out = tmp_path / "spec"
        cfg = tmp_path / "spec.cfg"
        cfg.write_text("spectrum.n_values = 3, 10\nspectrum.seeds_per_n = 2\n")
        assert run(["spectrum", "--config", str(cfg), "--out", str(out)]) == 0
        lines = (out / "spectrum_summary.csv").read_text().splitlines()
        header = lines[0].split(",")
        assert header == [
            "n", "seed", "zero_count", "negative_count", "kernel_aligned",
            "max_kernel_residual", "max_real_nonzero_eig",
        ]
        rows = [line.split(",") for line in lines[1:]]
        assert len(rows) == 4
        assert all(r[2] == "3" for r in rows)  # zero_count
        n3 = [r for r in rows if r[0] == "3"]
        assert all(r[3] == "3" for r in n3)  # 2n-3 at n=3
        fn = saturated_lennard_jones()
        for r in rows:
            lattice = generate_triangular(LatticeSpec(n=int(r[0]), seed=int(r[1]), growth="compact"), R_A)
            ref = eig_spectral_analysis(
                jacobian(lattice, fn, R_A), rigidity_matrix(lattice, compute_links(lattice, R_A))
            )
            rho = np.abs(ref["eigenvalues"]).max()
            assert abs(float(r[6]) - ref["max_real_nonzero_eig"]) <= 1e-12 * rho

    @staticmethod
    def run_with_failing_analysis(tmp_path, monkeypatch, error):
        def fail(*args, **kwargs):
            raise error("injected")

        monkeypatch.setattr("triswarm.cli.analyze_configuration", fail)
        cfg = tmp_path / "spec.cfg"
        cfg.write_text("spectrum.n_values = 3\nspectrum.seeds_per_n = 1\n")
        return run(["spectrum", "--config", str(cfg), "--out", str(tmp_path / "o")])

    @pytest.mark.parametrize("error", [np.linalg.LinAlgError, SingularityError])
    def test_numerical_failure_exits_3(self, tmp_path, monkeypatch, error):
        assert self.run_with_failing_analysis(tmp_path, monkeypatch, error) == 3

    def test_programming_error_propagates(self, tmp_path, monkeypatch):
        with pytest.raises(KeyError):
            self.run_with_failing_analysis(tmp_path, monkeypatch, KeyError)

    def test_too_few_agents_rejected(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("spectrum.n_values = 2\n")
        assert run(["spectrum", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize(
        "text", ["spectrum.seeds_per_n = 0\n", "spectrum.n_values =\n"], ids=["no_seeds", "no_n_values"]
    )
    def test_empty_batch_rejected(self, tmp_path, text):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(text)
        assert run(["spectrum", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert not (tmp_path / "o" / "spectrum_summary.csv").exists()


class TestValidate:
    def test_default_profile_passes(self):
        assert run(["validate"]) == 0

    def test_truncated_profile_passes(self):
        assert run(["validate", "--truncate"]) == 0

    def test_zero_force_coefficient_is_a_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "b0.cfg"
        cfg.write_text("interaction.b = 0\n")
        assert run(["validate", "--config", str(cfg)]) == 2
        assert "config error" in capsys.readouterr().err

    def test_force_root_key_is_unknown(self, tmp_path, capsys):
        # R is the root of the force profile, (a/b)^(1/c), not a key of its own
        cfg = tmp_path / "root.cfg"
        cfg.write_text("geometry.R = 1.0\n")
        assert run(["validate", "--config", str(cfg)]) == 2
        assert "unknown key" in capsys.readouterr().err

    def test_unsorted_delta_grid_is_a_config_error(self, tmp_path, capsys):
        # validate builds the sweep's SweepSpec, so it rejects what sweep rejects
        cfg = tmp_path / "grid.cfg"
        cfg.write_text("experiment.delta_grid = 0.5, 0.1\n")
        assert run(["validate", "--config", str(cfg)]) == 2
        assert "sorted ascending" in capsys.readouterr().err


class TestRigidity:
    def test_lattice_csv(self, tmp_path):
        cfg = generate_triangular(LatticeSpec(n=25, seed=1), R_A)
        path = tmp_path / "lattice.csv"
        write_config_csv(cfg, path)
        assert run(["rigidity", str(path)]) == 0

    def test_collinear_csv(self, tmp_path, capsys):
        path = tmp_path / "line.csv"
        write_config_csv(SwarmConfig(np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])), path)
        assert run(["rigidity", str(path)]) == 0
        out = capsys.readouterr().out
        assert "infinitesimally_rigid=False" in out


class TestOptions:
    def test_common_flags_name_config_fields(self):
        parser = argparse.ArgumentParser()
        cli._add_common_options(parser)
        dests = {action.dest for action in parser._actions} - {"help", "config", "seed"}
        assert dests <= {f.name for f in dataclasses.fields(ExperimentConfig)}

    def test_absent_flags_keep_file_values(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("interaction.truncate = true\noutput.dir = from-file\n")
        parser = cli.build_parser()
        resolved = cli._resolve_config(parser.parse_args(["validate", "--config", str(cfg)]))
        assert resolved.truncate is True and resolved.out_dir == "from-file"
        resolved = cli._resolve_config(parser.parse_args(["validate", "--truncate", "--out", "o"]))
        assert resolved.truncate is True and resolved.out_dir == "o"
        assert cli._resolve_config(parser.parse_args(["validate"])) == ExperimentConfig()
