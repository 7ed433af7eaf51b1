import json
import math
import sys

import numpy as np
import pytest

import triswarm.graph
from triswarm import LatticeSpec, SwarmConfig, generate_triangular
from triswarm.cli import main
from triswarm.errors import SingularityError
from triswarm.serialize import write_config_csv

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


class TestValidate:
    def test_default_profile_passes(self):
        assert run(["validate"]) == 0

    def test_truncated_profile_passes(self):
        assert run(["validate", "--truncate"]) == 0


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
