"""Spans around triswarm's public functions, for the traced run.

`Tracer.installed()` replaces each function named in TRACED by a wrapper in
every triswarm module that holds a reference to it, and puts the originals
back on exit, so the untraced run measures unwrapped code.  The force
profile's `force`/`derivative`/`potential` are closures on a frozen
`InteractionFunction`; they are wrapped with `dataclasses.replace`, both on
profiles the benchmark passes in (`wrap_profile`) and on every profile
`saturated_lennard_jones` builds while the tracer is installed.

Each call records one span.  A span's self time is its duration minus the
time covered by its child spans; the run is single-threaded, so a stack of
open spans gives the parent of each call exactly.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import importlib
import sys
import time
from collections import Counter, defaultdict

import numpy as np

#: Public functions wrapped in the traced run, by triswarm module.
TRACED = {
    "dynamics": ("simulate", "velocities", "center_drift"),
    "interaction": ("saturated_lennard_jones",),
    "graph": ("compute_links", "rigidity_matrix", "numerical_rank", "is_infinitesimally_rigid"),
    "lattice": ("generate_triangular", "perturb", "is_triangular", "link_error"),
    "diagnostics": ("dissipation_check", "lyapunov_value", "lyapunov_rate"),
    "linearization": ("jacobian", "spectral_analysis", "analyze_configuration"),
    "experiments": ("run_trial", "delta_sweep", "convergence_study", "write_sweep_csv"),
    "serialize": ("write_trajectory_csv", "write_json"),
    "cli": ("main", "cmd_simulate", "cmd_spectrum"),
}

#: Closures of an InteractionFunction, wrapped as "interaction.<field>".
PROFILE_FIELDS = ("force", "derivative", "potential")

SPAN_NAMES = tuple(
    f"{module}.{func}" for module, funcs in TRACED.items() for func in funcs
) + tuple(f"interaction.{field}" for field in PROFILE_FIELDS)

_MARK = "perfbench_span"


def svd_flops(shape) -> float:
    """Flop count of a values-only dense SVD (Golub-Kahan bidiagonalization)."""
    p, q = max(shape), min(shape)
    return 4.0 * p * q * q - 4.0 * q**3 / 3.0


def _input_key(array) -> bytes:
    return hashlib.blake2b(np.ascontiguousarray(array).tobytes(), digest_size=16).digest()


class Tracer:
    """In-memory span recorder with per-name call, total and self-time sums."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.calls = Counter()
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.edges = Counter()  # (parent span name or None, span name) -> calls
        self.counters = defaultdict(float)
        self.distinct = defaultdict(set)
        self._stack = []  # open spans: [name, seconds covered by children]
        self._hooks = {
            "dynamics.velocities": self._on_velocities,
            "graph.compute_links": self._on_compute_links,
            "graph.numerical_rank": self._on_numerical_rank,
            "interaction.force": self._on_force,
        }

    # -- spans -------------------------------------------------------------

    @property
    def parent(self) -> str | None:
        return self._stack[-1][0] if self._stack else None

    def wrap(self, name: str, func):
        """Wrapper recording one span named `name` per call of `func`."""
        hook = self._hooks.get(name)
        stack = self._stack

        def traced(*args, **kwargs):
            if hook is not None:
                hook(args, kwargs)
            parent = stack[-1][0] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            start = self.clock()
            try:
                return func(*args, **kwargs)
            finally:
                duration = self.clock() - start
                stack.pop()
                self.calls[name] += 1
                self.total_s[name] += duration
                self.self_s[name] += duration - frame[1]
                self.edges[(parent, name)] += 1
                if stack:
                    stack[-1][1] += duration

        traced.__wrapped__ = func
        setattr(traced, _MARK, name)
        return traced

    def wrap_profile(self, fn):
        """Copy of an InteractionFunction whose closures record spans."""
        if hasattr(fn.force, _MARK):
            return fn
        return dataclasses.replace(
            fn, **{f: self.wrap(f"interaction.{f}", getattr(fn, f)) for f in PROFILE_FIELDS}
        )

    # -- counters recorded at the layer boundaries --------------------------

    def _on_velocities(self, args, kwargs):
        positions = args[0] if args else kwargs["positions"]
        n = len(positions)
        self.counters["dynamics.velocities.ordered_pairs"] += n * (n - 1)
        self.distinct["dynamics.velocities"].add(_input_key(positions))

    def _on_compute_links(self, args, kwargs):
        config = args[0] if args else kwargs["config"]
        self.distinct["graph.compute_links"].add(_input_key(config.positions))

    def _on_numerical_rank(self, args, kwargs):
        matrix = args[0] if args else kwargs["matrix"]
        self.counters["graph.numerical_rank.computed_flops"] += svd_flops(np.shape(matrix))

    def _on_force(self, args, kwargs):
        # velocities evaluates the force once, on the distances within R_s
        if self.parent == "dynamics.velocities":
            z = args[0] if args else kwargs["z"]
            self.counters["dynamics.velocities.useful_pairs"] += np.size(z)

    # -- installing and removing the wrappers -------------------------------

    @contextlib.contextmanager
    def installed(self):
        """Wrap every TRACED function in all loaded triswarm modules."""
        modules = _triswarm_modules()
        patched = []
        try:
            for short, names in TRACED.items():
                home = importlib.import_module(f"triswarm.{short}")
                for fname in names:
                    original = getattr(home, fname)
                    target = original
                    if (short, fname) == ("interaction", "saturated_lennard_jones"):
                        target = self._profile_factory(original)
                    wrapper = self.wrap(f"{short}.{fname}", target)
                    for module in modules:
                        for attr in [a for a, v in vars(module).items() if v is original]:
                            setattr(module, attr, wrapper)
                            patched.append((module, attr, original))
            yield self
        finally:
            for module, attr, original in reversed(patched):
                setattr(module, attr, original)

    def _profile_factory(self, factory):
        def build(*args, **kwargs):
            return self.wrap_profile(factory(*args, **kwargs))

        return build

    # -- results -----------------------------------------------------------

    def distinct_input_frac(self, name: str) -> float:
        calls = self.calls[name]
        return len(self.distinct[name]) / calls if calls else 0.0

    def child_calls(self, parent: str, child: str) -> int:
        return self.edges[(parent, child)]


def _triswarm_modules():
    return [
        m for name, m in list(sys.modules.items())
        if m is not None and (name == "triswarm" or name.startswith("triswarm."))
    ]


def leftover_wrappers() -> list[str]:
    """Module attributes that still hold a tracing wrapper (empty after a traced run)."""
    return [
        f"{module.__name__}.{attr}"
        for module in _triswarm_modules()
        for attr, value in vars(module).items()
        if hasattr(value, _MARK)
    ]
