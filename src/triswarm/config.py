"""Experiment configuration: defaults, flat dotted-key config files, validation.

Config files are plain text, one `section.key = value` per line, `#` for
comments.  CLI flags override file values, file values override defaults.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, fields, replace
from functools import partial
from typing import get_args, get_origin, get_type_hints

from .dynamics import SimulationParams
from .errors import InvalidInputError
from .experiments import DEFAULT_DELTA_GRID, SweepSpec
from .interaction import (
    R_A_DEFAULT,
    InteractionFunction,
    LennardJonesParams,
    saturated_lennard_jones,
)


_LJ = LennardJonesParams()
_SIM = SimulationParams()


def _key(dotted: str, default):
    """A field read from config files under the dotted key `section.name`."""
    return field(default=default, metadata={"key": dotted})


@dataclass(frozen=True)
class ExperimentConfig:
    a: float = _key("interaction.a", _LJ.a)
    b: float = _key("interaction.b", _LJ.b)
    c: int = _key("interaction.c", _LJ.c)
    saturation: float = _key("interaction.saturation", _LJ.saturation)
    truncate: bool = _key("interaction.truncate", False)
    R_a: float = _key("geometry.R_a", R_A_DEFAULT)
    R_s: float = _key("geometry.R_s", _SIM.R_s)
    dt: float = _key("simulation.dt", _SIM.dt)
    horizon: float = _key("simulation.horizon", _SIM.horizon)
    record_every: int = _key("simulation.record_every", _SIM.record_every)
    n: int = _key("experiment.n", 100)
    delta: float = _key("experiment.delta", 0.2)
    delta_grid: tuple[float, ...] = _key("experiment.delta_grid", ())
    trials: int = _key("experiment.trials", 20)
    lattice_seed: int = _key("experiment.lattice_seed", 0)
    perturb_seed: int = _key("experiment.perturb_seed", 1)
    growth: str = _key("experiment.growth", "compact")
    spectrum_n_values: tuple[int, ...] = _key("spectrum.n_values", (25, 50, 100))
    spectrum_seeds_per_n: int = _key("spectrum.seeds_per_n", 3)
    out_dir: str = _key("output.dir", "triswarm-out")

    def validate(self) -> None:
        """Build what the config describes; their constructors check every range.

        Only the rules no constructor states are checked here, among them
        R_s >= R_a, which `simulate` would only check at run time.
        """
        fn = self.interaction()
        self.simulation_params()  # record_every as given; sweep_spec raises it to >= 10
        self.sweep_spec()
        if self.R_s < fn.R_a:
            raise InvalidInputError(f"sensing radius R_s={self.R_s} must be >= R_a={fn.R_a}")
        if self.delta < 0:
            raise InvalidInputError("perturbation radius delta must be non-negative")
        if not self.spectrum_n_values or min(self.spectrum_n_values) < 3:
            raise InvalidInputError(
                "spectrum.n_values must be non-empty, each n >= 3 (smallest triangular lattice)"
            )
        if self.spectrum_seeds_per_n < 1:
            raise InvalidInputError("spectrum.seeds_per_n must be >= 1")

    def interaction(self) -> InteractionFunction:
        return saturated_lennard_jones(
            LennardJonesParams(a=self.a, b=self.b, c=self.c, saturation=self.saturation),
            r_a=self.R_a,
            truncate=self.truncate,
        )

    def simulation_params(self, record_every: int | None = None) -> SimulationParams:
        return SimulationParams(
            R_s=self.R_s,
            dt=self.dt,
            horizon=self.horizon,
            record_every=self.record_every if record_every is None else record_every,
        )

    def sweep_spec(self) -> SweepSpec:
        """The δ sweep: `delta_grid`, or DEFAULT_DELTA_GRID when empty, recording every >= 10 steps."""
        return SweepSpec(
            delta_values=self.delta_grid or DEFAULT_DELTA_GRID,
            trials_per_delta=self.trials,
            n=self.n,
            sim=self.simulation_params(record_every=max(self.record_every, 10)),
            lattice_seed_base=self.lattice_seed,
            perturb_seed_base=self.perturb_seed,
            growth=self.growth,
        )

    def digest(self) -> str:
        payload = {f.name: getattr(self, f.name) for f in fields(self)}
        canon = json.dumps(payload, sort_keys=True, default=list)
        return hashlib.sha256(canon.encode()).hexdigest()


def _parse_bool(text: str) -> bool:
    low = text.strip().lower()
    if low in ("true", "1", "yes", "on"):
        return True
    if low in ("false", "0", "no", "off"):
        return False
    raise InvalidInputError(f"not a boolean: {text!r}")


def _parse_tuple(item_type, text: str) -> tuple:
    return tuple(item_type(v) for v in text.split(",") if v.strip())


def _parser(field_type):
    """Text-to-value conversion for a field of the given type."""
    if field_type is bool:
        return _parse_bool
    if get_origin(field_type) is tuple:
        return partial(_parse_tuple, get_args(field_type)[0])
    return field_type


_TYPES = get_type_hints(ExperimentConfig)
#: dotted config key -> (ExperimentConfig field name, text-to-value conversion)
_FIELDS_BY_KEY = {
    f.metadata["key"]: (f.name, _parser(_TYPES[f.name])) for f in fields(ExperimentConfig)
}


def parse_config_text(text: str, base: ExperimentConfig | None = None) -> ExperimentConfig:
    cfg = base or ExperimentConfig()
    updates = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise InvalidInputError(f"line {lineno}: expected 'section.key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _FIELDS_BY_KEY:
            raise InvalidInputError(f"line {lineno}: unknown key {key!r}")
        name, parse = _FIELDS_BY_KEY[key]
        try:
            updates[name] = parse(value)
        except ValueError as exc:
            raise InvalidInputError(f"line {lineno}: bad value for {key}: {exc}") from exc
    return replace(cfg, **updates)


def load_config(path, base: ExperimentConfig | None = None) -> ExperimentConfig:
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise InvalidInputError(f"cannot read config {path}: {exc}") from exc
    return parse_config_text(text, base)
