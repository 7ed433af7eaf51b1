import dataclasses
import math
import re
from pathlib import Path

import numpy as np
import pytest

from triswarm import (
    LatticeSpec,
    LennardJonesParams,
    SimulationParams,
    SwarmConfig,
    Trajectory,
    generate_triangular,
    simulate,
)
from triswarm.config import _FIELDS_BY_KEY, ExperimentConfig, load_config, parse_config_text
from triswarm.errors import InvalidInputError
from triswarm.serialize import (
    read_config_csv,
    write_config_csv,
    write_trajectory_csv,
)

from .oracles import csv_write_trajectory

R_A = (1.0 + math.sqrt(3.0)) / 2.0


class TestExperimentConfig:
    def test_defaults_follow_reference_setup(self):
        cfg = ExperimentConfig()
        cfg.validate()
        assert cfg.interaction().R == 1.0
        assert cfg.R_a == pytest.approx(R_A)
        assert cfg.R_s == 3.0
        assert (cfg.a, cfg.b, cfg.c) == (0.5, 0.5, 12)
        assert cfg.dt == 0.01 and cfg.horizon == 20.0 and cfg.n == 100

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(a=0.01),  # R = 0.02^(1/12) ~ 0.72, so the default R_a lies beyond R*sqrt(3)
            dict(R_a=1.8),
            dict(R_s=1.0),
            dict(dt=-0.01),
            dict(n=2),
            dict(delta=-0.1),
            dict(trials=0),
            dict(growth="spiral"),
            dict(spectrum_n_values=()),
            dict(spectrum_n_values=(3, 2)),
            dict(spectrum_seeds_per_n=0),
            dict(b=0.0),  # no force root
            dict(c=0),
            dict(a=-0.5),  # complex force root
            dict(saturation=-1.0),
            dict(record_every=0),
        ],
    )
    def test_validation_rejects(self, kwargs):
        with pytest.raises(InvalidInputError):
            dataclasses.replace(ExperimentConfig(), **kwargs).validate()

    def test_negative_coefficient_is_named(self):
        # not reported as a mismatch with a complex "force root"
        with pytest.raises(InvalidInputError, match="a and b must be positive"):
            dataclasses.replace(ExperimentConfig(), a=-0.5).validate()

    def test_digest_stable_and_sensitive(self):
        a = ExperimentConfig()
        b = dataclasses.replace(a, delta=0.3)
        assert a.digest() == ExperimentConfig().digest()
        assert a.digest() != b.digest()

    def test_defaults_are_the_library_defaults(self):
        cfg = ExperimentConfig()
        assert cfg.interaction().params == LennardJonesParams()
        assert cfg.simulation_params() == SimulationParams()

    def test_interaction_and_params_roundtrip(self):
        cfg = dataclasses.replace(ExperimentConfig(), truncate=True)
        fn = cfg.interaction()
        assert fn.truncated
        assert fn.force(cfg.R_a + 0.5) == 0.0
        params = cfg.simulation_params()
        assert params.dt == cfg.dt and params.R_s == cfg.R_s


class TestConfigFile:
    def test_parse_overrides(self):
        text = """
        # comment line
        experiment.n = 25
        experiment.delta = 0.3
        simulation.dt = 0.005
        interaction.truncate = true
        experiment.delta_grid = 0.1, 0.2
        experiment.growth = accretion
        """
        cfg = parse_config_text(text)
        assert cfg.n == 25 and cfg.delta == 0.3 and cfg.dt == 0.005
        assert cfg.truncate is True
        assert cfg.delta_grid == (0.1, 0.2)
        assert cfg.growth == "accretion"

    def test_every_key(self):
        text = """
        interaction.a = 0.25
        interaction.b = 0.25
        interaction.c = 6
        interaction.saturation = 2.5
        interaction.truncate = on
        geometry.R_a = 1.3
        geometry.R_s = 2.5
        simulation.dt = 0.02
        simulation.horizon = 3
        simulation.record_every = 5
        experiment.n = 30
        experiment.delta = 0.1
        experiment.delta_grid = 0.1, 0.2,0.3,
        experiment.trials = 4
        experiment.lattice_seed = 7
        experiment.perturb_seed = 8
        experiment.growth = accretion
        spectrum.n_values = 5, 7
        spectrum.seeds_per_n = 2
        output.dir = runs/x
        """
        keys = {line.split("=")[0].strip() for line in text.strip().splitlines()}
        assert keys == {f.metadata["key"] for f in dataclasses.fields(ExperimentConfig)}
        expected = ExperimentConfig(
            a=0.25, b=0.25, c=6, saturation=2.5, truncate=True,
            R_a=1.3, R_s=2.5,
            dt=0.02, horizon=3.0, record_every=5,
            n=30, delta=0.1, delta_grid=(0.1, 0.2, 0.3), trials=4,
            lattice_seed=7, perturb_seed=8, growth="accretion",
            spectrum_n_values=(5, 7), spectrum_seeds_per_n=2,
            out_dir="runs/x",
        )
        cfg = parse_config_text(text)
        assert cfg == expected
        for f in dataclasses.fields(cfg):
            assert type(getattr(cfg, f.name)) is type(getattr(expected, f.name)), f.name
        cfg.validate()

    def test_unknown_key_reports_line(self):
        with pytest.raises(InvalidInputError, match="line 1"):
            parse_config_text("experiment.bogus = 1")

    @pytest.mark.parametrize(
        "text, message",
        [
            ("\ninteraction.truncate = maybe", "line 2: bad value for interaction.truncate"),
            ("\n\nexperiment.trials = 2.5", "line 3: bad value for experiment.trials"),
        ],
    )
    def test_bad_lines_report_line_number(self, text, message):
        with pytest.raises(InvalidInputError, match=message):
            parse_config_text(text)

    def test_bad_value_reports_key(self):
        with pytest.raises(InvalidInputError, match="experiment.n"):
            parse_config_text("experiment.n = many")

    def test_missing_equals_rejected(self):
        with pytest.raises(InvalidInputError):
            parse_config_text("experiment.n 25")

    def test_force_root_follows_the_coefficients(self):
        cfg = parse_config_text("interaction.a = 1.0")
        cfg.validate()
        assert cfg.interaction().R == 2 ** (1 / 12)

    def test_readme_key_table_lists_every_key(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        documented = re.findall(r"^\| `([a-z_]+\.[A-Za-z_]+)` \|", readme, flags=re.MULTILINE)
        assert sorted(documented) == sorted(_FIELDS_BY_KEY)

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(InvalidInputError):
            load_config(tmp_path / "nope.cfg")

    def test_load_roundtrip(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("experiment.n = 12\nspectrum.n_values = 3, 5\n")
        cfg = load_config(path)
        assert cfg.n == 12
        assert cfg.spectrum_n_values == (3, 5)


class TestSerialize:
    def test_config_csv_roundtrip(self, tmp_path):
        cfg = generate_triangular(LatticeSpec(n=12, seed=2), R_A)
        path = tmp_path / "cfg.csv"
        write_config_csv(cfg, path)
        back = read_config_csv(path)
        np.testing.assert_array_equal(back.positions, cfg.positions)

    def test_config_csv_rejects_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(InvalidInputError):
            read_config_csv(path)

    def test_config_csv_rejects_empty(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("agent,x,y\n")
        with pytest.raises(InvalidInputError):
            read_config_csv(path)

    def test_trajectory_csv_layout(self, tmp_path, paper_fn):
        cfg = SwarmConfig(np.array([[0.0, 0.0], [1.2, 0.0]]))
        traj = simulate(cfg, paper_fn, SimulationParams(horizon=0.05, record_every=1))
        path = tmp_path / "traj.csv"
        write_trajectory_csv(traj, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "t,agent,x,y"
        assert len(lines) == 1 + 2 * len(traj.times)

    def test_trajectory_csv_bytes_equal_csv_writer(self, tmp_path, paper_fn):
        states = np.array(
            [
                [[0.0, -0.0], [1e-5, -2.5], [0.1, 1.0 / 3.0]],
                [[-1e-300, 123456789.125], [2.0**-40, -0.1], [1e22, -7.0]],
            ]
        )
        traj = Trajectory(times=np.array([0.0, 0.1]), states=states, params=SimulationParams())
        simulated = simulate(
            generate_triangular(LatticeSpec(n=10, seed=3), R_A), paper_fn, SimulationParams(horizon=0.05)
        )
        for k, t in enumerate((traj, simulated)):
            fast, reference = tmp_path / f"fast{k}.csv", tmp_path / f"reference{k}.csv"
            write_trajectory_csv(t, fast)
            csv_write_trajectory(t, reference)
            assert fast.read_bytes() == reference.read_bytes()
