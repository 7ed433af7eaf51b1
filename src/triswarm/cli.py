"""Command-line entry point.

Subcommands: simulate, sweep, spectrum, validate, rigidity.
Exit codes: 0 success, 1 assumption/criterion failure, 2 config error,
3 numerical failure.

Every artifact directory receives a manifest.json with the full resolved
configuration, its hash, the seeds used and the tool version.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .config import ExperimentConfig, load_config
from .diagnostics import dissipation_check, energy_series
from .dynamics import center_drift, simulate
from .errors import IntegrationDivergedError, InvalidInputError, SingularityError
from .experiments import (
    CONVERGENCE_E,
    delta_sweep,
    trial_seeds,
    write_sweep_csv,
)
from .interaction import validate_assumption1
from .lattice import LatticeSpec, generate_triangular, is_triangular, perturb
from .linearization import analyze_configuration
from .serialize import fmt, read_config_csv, write_json, write_trajectory_csv

EXIT_OK = 0
EXIT_CRITERION = 1
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


def _resolve_config(args) -> ExperimentConfig:
    cfg = ExperimentConfig()
    if args.config:
        cfg = load_config(args.config, cfg)
    # every flag whose dest names a config field overrides it when given
    overrides = {
        f.name: getattr(args, f.name)
        for f in dataclasses.fields(cfg)
        if getattr(args, f.name, None) is not None
    }
    if getattr(args, "seed", None) is not None:
        overrides["lattice_seed"] = args.seed
        overrides["perturb_seed"] = args.seed + 1
    if overrides:
        cfg = dataclasses.replace(cfg, **overrides)
    cfg.validate()
    return cfg


def _manifest(cfg: ExperimentConfig, outdir: Path, **extra) -> None:
    payload = {
        "config": {f.name: getattr(cfg, f.name) for f in dataclasses.fields(cfg)},
        "config_hash": cfg.digest(),
        "version": __version__,
    }
    payload.update(extra)
    write_json(payload, outdir / "manifest.json")


def cmd_simulate(args) -> int:
    cfg = _resolve_config(args)
    fn = cfg.interaction()
    params = cfg.simulation_params()
    outdir = Path(cfg.out_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    lattice = generate_triangular(
        LatticeSpec(n=cfg.n, R=cfg.R, seed=cfg.lattice_seed, growth=cfg.growth), cfg.R_a
    )
    initial = perturb(lattice, cfg.delta, cfg.perturb_seed)
    try:
        traj = simulate(initial, fn, params)
    except IntegrationDivergedError as exc:
        snap_path = outdir / "diverged_snapshot.json"
        write_json({"step": exc.step, "positions": exc.snapshot.positions.tolist()}, snap_path)
        print(f"simulation diverged at step {exc.step}; snapshot: {snap_path}", file=sys.stderr)
        return EXIT_NUMERICAL
    write_trajectory_csv(traj, outdir / "trajectory.csv")

    final = traj.final
    report = is_triangular(final, cfg.R, cfg.R_a, tol_len=CONVERGENCE_E)
    e_final = report.max_length_deviation
    if params.record_every == 1:
        diss = dissipation_check(traj, fn, params)
        v_series = list(diss.values)
        with open(outdir / "diagnostics.csv", "w", newline="") as fh:
            fh.write("t,V,Vdot_analytic,Vdot_numeric,links,links_changed\n")
            for s in diss.samples:
                fh.write(
                    f"{fmt(s.t)},{fmt(s.value)},{fmt(s.rate_analytic)},"
                    f"{fmt(s.rate_numeric)},{s.link_count},{int(s.flagged)}\n"
                )
    else:
        v_series = energy_series(traj, fn, cfg.R_a)[0].tolist()
    summary = {
        "e_final": e_final,
        "rigid_final": bool(report.rigid),
        "triangular_final": bool(report.ok),
        "center_drift": center_drift(traj),
        "coincident_warnings": traj.coincident_warnings,
        "V_series": v_series,
    }
    write_json(summary, outdir / "summary.json")
    _manifest(cfg, outdir, seeds={"lattice": cfg.lattice_seed, "perturb": cfg.perturb_seed})
    print(f"e_final={e_final:.6g} rigid={report.rigid} artifacts in {outdir}")
    return EXIT_OK


def cmd_sweep(args) -> int:
    cfg = _resolve_config(args)
    fn = cfg.interaction()
    spec = cfg.sweep_spec()
    jobs = args.jobs or os.cpu_count() or 1
    result = delta_sweep(spec, fn, jobs=jobs)
    outdir = Path(cfg.out_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    write_sweep_csv(result, outdir)
    _manifest(
        cfg,
        outdir,
        seeds={"lattice_base": cfg.lattice_seed, "perturb_base": cfg.perturb_seed},
        delta_values=list(spec.delta_values),
    )
    for s in result.summaries:
        print(f"delta={s.delta:.3g} rho={s.rho:.3g} e_mean={s.e_mean:.4g}")
    return EXIT_OK


def cmd_spectrum(args) -> int:
    cfg = _resolve_config(args)
    fn = cfg.interaction()
    outdir = Path(cfg.out_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    rows = []
    for n in cfg.spectrum_n_values:
        for si in range(cfg.spectrum_seeds_per_n):
            seed, _ = trial_seeds(cfg.lattice_seed, n, si)
            lattice = generate_triangular(
                LatticeSpec(n=n, R=cfg.R, seed=seed, growth=cfg.growth), cfg.R_a
            )
            try:
                report = analyze_configuration(lattice, fn, cfg.R_a)
            except (np.linalg.LinAlgError, SingularityError) as exc:
                print(f"spectrum: numerical failure for n={n} seed={seed}: {exc}", file=sys.stderr)
                return EXIT_NUMERICAL
            rows.append(
                {
                    "n": n,
                    "seed": seed,
                    "zero_count": report.zero_count,
                    "negative_count": report.negative_count,
                    "kernel_aligned": report.kernel_aligned,
                    "max_kernel_residual": report.max_kernel_residual,
                    "max_real_nonzero_eig": report.max_real_nonzero_eig,
                }
            )
    with open(outdir / "spectrum_summary.csv", "w", newline="") as fh:
        fh.write("n,seed,zero_count,negative_count,kernel_aligned,max_kernel_residual,max_real_nonzero_eig\n")
        for r in rows:
            fh.write(
                f"{r['n']},{r['seed']},{r['zero_count']},{r['negative_count']},"
                f"{int(r['kernel_aligned'])},{fmt(r['max_kernel_residual'])},{fmt(r['max_real_nonzero_eig'])}\n"
            )
    _manifest(cfg, outdir, rows=len(rows))
    for r in rows:
        print(f"n={r['n']} seed={r['seed']} zeros={r['zero_count']} negatives={r['negative_count']}")
    return EXIT_OK


def cmd_validate(args) -> int:
    cfg = _resolve_config(args)
    fn = cfg.interaction()
    report = validate_assumption1(fn)
    print(f"root zero (|f(R)| <= 1e-12):      {'pass' if report.root_zero else 'FAIL'}")
    print(f"sign pattern (repel/attract):     {'pass' if report.sign_pattern else 'FAIL'}")
    print(f"continuity on [0, R_a]:           {'pass' if report.continuous else 'FAIL'}")
    if report.vanishing_exact:
        print("vanishing beyond R_a:             exact zero")
    else:
        print(
            "vanishing beyond R_a:             approximately zero "
            f"(max residual {report.vanishing_residual:.4g}) [informational]"
        )
    return EXIT_OK if report.core_passed else EXIT_CRITERION


def cmd_rigidity(args) -> int:
    cfg = _resolve_config(args)
    config = read_config_csv(args.csv)
    report = is_triangular(config, cfg.R, cfg.R_a)
    print(
        f"n={config.n} links={report.link_count} rank={report.rank} required={2 * config.n - 3} "
        f"infinitesimally_rigid={report.rigid}"
    )
    return EXIT_OK


def _add_common_options(p) -> None:
    """Options of every subcommand; each dest but config and seed names an ExperimentConfig field."""
    p.add_argument("--config", help="config file (section.key = value lines)")
    p.add_argument("--out", dest="out_dir", help="output directory")
    p.add_argument("--n", type=int)
    p.add_argument("--delta", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--trials", type=int)
    p.add_argument("--dt", type=float)
    p.add_argument("--horizon", type=float)
    p.add_argument("--record-every", dest="record_every", type=int)
    p.add_argument("--R-a", dest="R_a", type=float)
    p.add_argument("--R-s", dest="R_s", type=float)
    p.add_argument("--truncate", action="store_true", default=None, help="force exactly zero beyond R_a")
    p.add_argument(
        "--growth",
        choices=["accretion", "compact"],
        help="lattice growth policy (default: compact)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="triswarm", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="single trial with full artifacts")
    _add_common_options(p_sim)
    p_sim.set_defaults(func=cmd_simulate)

    p_sweep = sub.add_parser("sweep", help="perturbation-radius Monte-Carlo sweep")
    _add_common_options(p_sweep)
    p_sweep.add_argument("--jobs", type=int, default=None)
    p_sweep.set_defaults(func=cmd_sweep)

    p_spec = sub.add_parser("spectrum", help="Jacobian spectra over random lattices")
    _add_common_options(p_spec)
    p_spec.set_defaults(func=cmd_spectrum)

    p_val = sub.add_parser("validate", help="audit the interaction-function assumptions")
    _add_common_options(p_val)
    p_val.set_defaults(func=cmd_validate)

    p_rig = sub.add_parser("rigidity", help="rigidity test for a configuration CSV")
    _add_common_options(p_rig)
    p_rig.add_argument("csv", help="configuration CSV (agent,x,y)")
    p_rig.set_defaults(func=cmd_rigidity)
    return parser


def main(argv=None) -> int:
    # TRISWARM_OUT overrides the output root for all subcommands
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "out_dir", None) is None and os.environ.get("TRISWARM_OUT"):
        args.out_dir = os.environ["TRISWARM_OUT"]
    try:
        return args.func(args)
    except InvalidInputError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except IntegrationDivergedError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
