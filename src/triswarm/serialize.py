"""CSV/JSON persistence for configurations, trajectories and experiment outputs.

All floats are written with 17 significant digits so downstream comparisons
are exact.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

from .errors import InvalidInputError
from .graph import SwarmConfig


def fmt(x: float) -> str:
    return format(float(x), ".17g")


def write_config_csv(config: SwarmConfig, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["agent", "x", "y"])
        for i, (x, y) in enumerate(config.positions):
            writer.writerow([i, fmt(x), fmt(y)])


def read_config_csv(path) -> SwarmConfig:
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or not {"agent", "x", "y"} <= set(reader.fieldnames):
            raise InvalidInputError(f"{path}: expected header agent,x,y")
        rows = sorted(reader, key=lambda r: int(r["agent"]))
    if not rows:
        raise InvalidInputError(f"{path}: empty configuration")
    return SwarmConfig(np.array([[float(r["x"]), float(r["y"])] for r in rows]))


def write_trajectory_csv(traj, path) -> None:
    """One row per (recorded time, agent): t, agent, x, y.

    The bytes are those of a csv.writer, which ends every row with CRLF.
    """
    with open(path, "w", newline="") as fh:
        fh.write("t,agent,x,y\r\n")
        for t, state in zip(traj.times, traj.states):
            ts = fmt(t)
            fh.write("".join(f"{ts},{i},{x:.17g},{y:.17g}\r\n" for i, (x, y) in enumerate(state.tolist())))


def write_json(obj, path) -> None:
    Path(path).write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")
