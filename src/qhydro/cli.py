"""Command-line entry point.

Subcommands: simulate, lambda-c, lambda-q, classify, case {lindemann,
helium}, noise-audit.  Each experiment is described by one INI config
file (see qhydro.config); command-line overrides win over the file.
``COMMAND_KEYS`` declares the keys each command reads and records; a
--set or flag of another key is a usage error, but one file serves every
command, so a file's other keys are only checked at load.
Exit codes: 0 success, 1 validation error (a usage error included),
2 numerical failure.

The scalar commands (lambda-c, lambda-q, classify, case) are dominated by
import cost, so the integrator is imported only by simulate, numpy.random
only on the first noise draw, and hashlib and json only by a --json summary.

noise-audit draws all its fields in one sample_fields call that reduces
each filtered chunk to per-field lag means (its ``reduce`` argument), so
no field outlives its chunk and peak memory is the sampler's chunk
buffers plus the means, whatever experiment.samples is.  Each lag's
standard error and z-score come from the spread of those per-field means,
and the audit is judged by its largest |z|; a lag whose statistics
overflow fails the audit as a numerical error.
"""

from __future__ import annotations

import argparse
from dataclasses import asdict
import math
import sys
from typing import TYPE_CHECKING

import numpy as np

from . import cases
from .config import ExperimentConfig, apply_overrides, load_config
from .errors import NumericalError, ValidationError
from .grids import Field, Grid
from .noise import (
    NoiseModel,
    RandomStream,
    sample_fields,
    sampled_covariance,
)
from .output import summary_record, write_csv, write_summary
from .potentials import (
    free_gaussian_density,
    harmonic_ground_density,
    harmonic_potential,
    lj_harmonic,
    pseudo_gaussian_log_density,
    square_well_density,
    square_well_potential,
    square_well_solve,
)
from .qpotential import growth_exponent, quantum_force_from_log
from .scales import (
    DEFAULT_RATIO_THRESHOLD,
    classify_decay,
    classify_regime,
    correlation_length,
    nonlocality_length,
)

if TYPE_CHECKING:
    from . import dynamics


class _Parser(argparse.ArgumentParser):
    """An argparse parser whose usage errors exit 1, a validation error.

    argparse exits 2, which this CLI keeps for a numerical failure.  Its
    subparsers are of the same class.
    """

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    # a shorthand flag's dest is the config key it sets, so _load turns
    # every dotted dest into an override
    parser = _Parser(
        prog="qhydro",
        description="1-D quantum hydrodynamics laboratory")
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--mass", dest="material.mass",
                        help="particle mass, e.g. '4.0026 u'")
    shared.add_argument("--theta", dest="noise.theta",
                        help="noise amplitude, e.g. '2.17 K'")
    # accept the global flags after the subcommand as well; SUPPRESS keeps
    # the subparser from clobbering values parsed before the subcommand
    for flag, kwargs in (
            ("--config", {"help": "INI config file"}),
            ("--seed", {"dest": "experiment.seed", "help": "random seed override"}),
            ("--csv", {"dest": "output.csv", "help": "CSV output path override"}),
            ("--json", {"dest": "output.json",
                        "help": "JSON summary path override"})):
        parser.add_argument(flag, **kwargs)
        shared.add_argument(flag, **{**kwargs, "default": argparse.SUPPRESS})
    # the subparser's namespace replaces a list the main parser built, so
    # each level appends to its own, and _load joins them
    set_kwargs = {"action": "append", "default": [], "metavar": "SEC.KEY=VAL",
                  "help": "override one config value (repeatable)"}
    parser.add_argument("--set", **set_kwargs)
    shared.add_argument("--set", dest="set_after", **set_kwargs)

    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("simulate", parents=[shared],
                   help="integrate the hydrodynamic equations")

    sub.add_parser("lambda-c", parents=[shared],
                   help="noise correlation length")

    p = sub.add_parser("lambda-q", parents=[shared],
                       help="nonlocality length of a tail family")
    p.add_argument("--lambda-c", dest="noise.lambda_c",
                   help="probe length for the normalization, e.g. '3.3e-10'")

    p = sub.add_parser("classify", parents=[shared],
                       help="dynamical-regime label")
    p.add_argument("--delta-L", dest="experiment.delta_l",
                   help="physical length scale")
    p.add_argument("--lambda-c", dest="noise.lambda_c", help="correlation length")
    p.add_argument("--lambda-q", dest="experiment.lambda_q_override",
                   help="nonlocality length ('inf' allowed)")
    p.add_argument("--decay-h", dest="experiment.decay_h",
                   help="tail-decay exponent of the wave function modulus")

    p = sub.add_parser("case", parents=[shared],
                       help="quantitative case studies")
    p.add_argument("study", choices=["lindemann", "helium"])

    sub.add_parser("noise-audit", parents=[shared],
                   help="empirical vs target noise covariance")
    return parser


def _keys(**sections: str) -> frozenset[str]:
    return frozenset(f"{section}.{key}" for section, keys in sections.items()
                     for key in keys.split())


_GRID = "q_min q_max n_points periodic"
_NOISE = "theta lambda_c mobility_mu conserving"
_MATERIAL = "mass well_depth r_0 sigma half_width depth_factor"
# command -> the config keys it reads, over every scheme, start density and
# potential; together they are every key, and the README's table is this one
COMMAND_KEYS = {
    "simulate": _keys(experiment="seed initial initial_width initial_center "
                                 "initial_velocity potential", material=_MATERIAL,
                      grid=_GRID, integrator="dt scheme t_end output_stride",
                      noise=_NOISE, output="csv json"),
    "lambda-c": _keys(material="mass", noise="theta", output="json"),
    "lambda-q": _keys(experiment="family family_g family_h core_width tail_scale",
                      material="mass", grid=_GRID, noise="lambda_c", output="json"),
    "classify": _keys(experiment="delta_l lambda_q_override decay_h",
                      material="mass", noise="theta lambda_c", output="json"),
    "case lindemann": _keys(material="mass well_depth r_0", output="json"),
    "case helium": _keys(material=_MATERIAL, output="json"),
    "noise-audit": _keys(experiment="seed samples", material="mass", grid=_GRID,
                         noise=_NOISE, output="json"),
}


def _command(args) -> str:
    # the parsed command line's entry in COMMAND_KEYS
    return f"case {args.study}" if args.command == "case" else args.command


def _load(args) -> ExperimentConfig:
    cfg = load_config(args.config) if args.config else ExperimentConfig()
    overrides = {}
    for item in args.set + args.set_after:
        if "=" not in item:
            raise ValidationError(f"--set expects SEC.KEY=VAL, got {item!r}")
        dotted, value = item.split("=", 1)
        overrides[dotted.strip()] = value.strip()
    # shorthand flags win over --set; an empty flag value sets nothing
    overrides.update((dest, value) for dest, value in vars(args).items()
                     if "." in dest and value not in (None, ""))
    # a key that no command reads is unknown, which apply_overrides names
    command = _command(args)
    for dotted in overrides:
        if (dotted not in COMMAND_KEYS[command]
                and any(dotted in keys for keys in COMMAND_KEYS.values())):
            raise ValidationError(f"{command} does not read {dotted}")
    return apply_overrides(cfg, overrides)


def _lambda_c(cfg: ExperimentConfig, command: str) -> float:
    """noise.lambda_c if set, else lambda_c(Theta); infinite is rejected."""
    lam_c = cfg.noise.lambda_c
    if lam_c is None:
        lam_c = correlation_length(cfg.material.mass, cfg.noise.theta)
    if math.isinf(lam_c):
        raise ValidationError(
            f"{command} needs theta > 0 or an explicit noise.lambda_c")
    return lam_c


def _potential_field(cfg: ExperimentConfig, grid: Grid) -> Field:
    kind = cfg.experiment.potential
    params = cfg.material
    if kind == "none":
        return Field(grid, np.zeros(grid.n_points), "J")
    if kind == "harmonic":
        approx = lj_harmonic(params)
        return harmonic_potential(approx, grid, params.well_depth)
    state = square_well_solve(params)
    return square_well_potential(state, grid)


def _initial_state(cfg: ExperimentConfig, grid: Grid) -> dynamics.HydroState:
    from . import dynamics

    e = cfg.experiment
    params = cfg.material
    if e.initial == "free_gaussian":
        density = free_gaussian_density(e.initial_center, e.initial_width, grid)
    elif e.initial == "harmonic_ground":
        density = harmonic_ground_density(lj_harmonic(params), grid)
    else:
        density = square_well_density(square_well_solve(params), grid)
    velocity = Field(grid, np.full(grid.n_points, e.initial_velocity), "m/s")
    return dynamics.initial_state(density, velocity)


def _noise_model(cfg: ExperimentConfig) -> NoiseModel:
    lam_c = _lambda_c(cfg, "noise model")
    return NoiseModel(theta=cfg.noise.theta, lambda_c=lam_c,
                      mass=cfg.material.mass,
                      mobility_mu=cfg.noise.mobility_mu,
                      conserving=cfg.noise.conserving)


def _cmd_simulate(cfg: ExperimentConfig) -> tuple[dict, str]:
    from . import dynamics

    grid = cfg.grid
    i = cfg.integrator
    potential = _potential_field(cfg, grid)
    state = _initial_state(cfg, grid)
    noise = stream = None
    if i.scheme == dynamics.STOCHASTIC_QUANTUM:
        noise = _noise_model(cfg)
        stream = RandomStream(cfg.experiment.seed)
    trajectory = dynamics.run(state, potential, cfg.material.mass, noise, i,
                              i.t_end, i.output_stride, stream)
    if not trajectory.completed:
        raise NumericalError(f"run aborted: {trajectory.failure}")
    if cfg.output.csv:
        write_csv(trajectory, cfg.output.csv)
    last = trajectory.snapshots[-1]
    results = {
        "final_time_s": last.time,
        "final_norm": last.norm,
        "final_mean_q_m": last.mean_q,
        "final_variance_m2": last.variance,
        "snapshots": len(trajectory.snapshots),
        "boundary_warning": trajectory.boundary_warning,
    }
    return results, (f"simulate: t = {last.time:.6e} s, norm = {last.norm:.9f}, "
                     f"variance = {last.variance:.6e} m^2")


def _cmd_lambda_c(cfg: ExperimentConfig) -> tuple[dict, str]:
    params = cfg.material
    lam_c = correlation_length(params.mass, cfg.noise.theta)
    results = {"lambda_c_m": None if math.isinf(lam_c) else lam_c,
               "lambda_c_infinite": math.isinf(lam_c),
               "mass_kg": params.mass, "theta_K": cfg.noise.theta}
    rendered = "infinite" if math.isinf(lam_c) else f"{lam_c:.6e} m"
    return results, f"lambda_c = {rendered}"


def _cmd_lambda_q(cfg: ExperimentConfig) -> tuple[dict, str]:
    # the tail is fitted out to the grid's last points, which a periodic
    # grid's wrapped stencils join to its first
    if cfg.grid.periodic:
        raise ValidationError("lambda-q fits the tail out to a wall; "
                              "it needs grid.periodic = false")
    fam = cfg.experiment.tail_family()
    log_n = pseudo_gaussian_log_density(fam, cfg.grid)
    profile = quantum_force_from_log(log_n, cfg.material.mass, 0.0)
    decay = growth_exponent(profile)
    lam_c = cfg.noise.lambda_c
    if lam_c is None:
        lam_c = 2.0 * fam.core_width
    lam_q = nonlocality_length(profile, lam_c, decay=decay)
    # below the first radial sample, np.interp in nonlocality_length can
    # only clamp F(lambda_c) to that sample
    r_1 = float(profile.radial()[0][0])
    resolved = lam_c >= r_1
    if not resolved and not math.isinf(lam_q):
        print(f"warning: lambda_c = {lam_c:.3e} m lies below the first radial "
              f"sample at {r_1:.3e} m, so F(lambda_c) is clamped to that "
              f"sample and lambda_q is not resolved on this grid",
              file=sys.stderr)
    results = {
        "lambda_q_m": None if math.isinf(lam_q) else lam_q,
        "lambda_q_infinite": math.isinf(lam_q),
        "fitted_exponent": decay.fitted_exponent,
        "decay_label": decay.label,
        "lambda_c_m": lam_c,
        "lambda_c_resolved": resolved,
        "family": fam.family,
    }
    rendered = "infinite" if math.isinf(lam_q) else f"{lam_q:.6e} m"
    return results, (f"lambda_q = {rendered} ({decay.label}, exponent "
                     f"{decay.fitted_exponent:+.3f})")


def _cmd_classify(cfg: ExperimentConfig) -> tuple[dict, str]:
    e = cfg.experiment
    if e.delta_l is None:
        raise ValidationError("classify needs --delta-L (experiment.delta_l)")
    lam_c = _lambda_c(cfg, "classify")
    lam_q = e.lambda_q_override if e.lambda_q_override is not None else math.inf
    regime = classify_regime(e.delta_l, lam_c, lam_q)
    results = {
        "regime": regime,
        "delta_L_m": e.delta_l,
        "lambda_c_m": lam_c,
        "lambda_q_m": None if math.isinf(lam_q) else lam_q,
        "lambda_q_infinite": math.isinf(lam_q),
        "ratio_threshold": DEFAULT_RATIO_THRESHOLD,
    }
    line = f"regime = {regime}"
    if e.decay_h is not None:
        label = classify_decay(e.decay_h)
        results["decay_label"] = label
        line += f", decay class = {label}"
    return results, line


def _cmd_lindemann(cfg: ExperimentConfig) -> tuple[dict, str]:
    report = cases.lindemann(cfg.material)
    return asdict(report), (
        f"lindemann: lambda_q / r_0 = {report.lambda_q_over_r0:.5f} "
        f"(band {cases.LINDEMANN_BAND[0]}-{cases.LINDEMANN_BAND[1]}: "
        f"{'inside' if report.within_empirical_band else 'outside'})")


def _cmd_helium(cfg: ExperimentConfig) -> tuple[dict, str]:
    lam_report = cases.helium_lambda(cfg.material)
    state_report = cases.helium_state_check(cfg.material)
    results = {"lambda_point": asdict(lam_report),
               "bound_state": asdict(state_report)}
    return results, (f"helium: theta* = {lam_report.theta_star_K:.4f} K "
                     f"(reference {lam_report.reference_theta_K} K), "
                     f"E0 = {state_report.E0_over_kB:.4f} kB")


def _lag_means(rows: np.ndarray, lags: list[int]) -> np.ndarray:
    """Each row's mean of x_i x_(i+lag), shape (len(rows), len(lags)).

    einsum over the lagged views builds no product temporary.
    """
    n = rows.shape[1]
    return np.stack([np.einsum("ij,ij->i", rows[:, :n - k], rows[:, k:])
                     / (n - k) for k in lags], axis=1)


# an amplitude near overflow can overflow the lag products or their spread
# to inf or nan; numpy stays quiet, and the audit's finiteness check names
# the failure
@np.errstate(over="ignore", invalid="ignore")
def _cmd_noise_audit(cfg: ExperimentConfig) -> tuple[dict, str]:
    model = _noise_model(cfg)
    # a silent noise has no spread, so no z-score
    if model.amplitude == 0.0:
        raise ValidationError(
            f"noise amplitude is zero at theta = {model.theta:g} K; "
            "noise-audit needs a nonzero one")
    grid = cfg.grid
    h = grid.spacing
    lag_factors = (0.0, 1.0, 2.0)
    lags = [int(round(f * model.lambda_c / h)) for f in lag_factors]
    if lags[-1] >= grid.n_points:
        raise ValidationError("grid too short for the 2 lambda_c lag")
    count = cfg.experiment.samples
    # one call, one generator: each filtered chunk is reduced to its lag
    # means at once, so no (count, n_points) array is ever held
    means = sample_fields(model, grid, RandomStream(cfg.experiment.seed),
                          count, reduce=lambda rows: _lag_means(rows, lags)).T
    rows = []
    for lag_factor, k, per_field in zip(lag_factors, lags, means):
        empirical = float(np.mean(per_field))
        # the conserving projection makes the target negative at long lags
        target = sampled_covariance(model, grid, k)
        se = float(np.std(per_field, ddof=1)) / math.sqrt(count)
        z = (empirical - target) / se
        if not all(math.isfinite(x) for x in (empirical, se, z)):
            raise NumericalError(
                f"covariance statistics at lag {lag_factor:g} lambda_c are not "
                f"finite at noise amplitude {model.amplitude:.3e}")
        rows.append({"lag_over_lambda_c": lag_factor, "lag_m": k * h,
                     "empirical": empirical, "target": target,
                     "standard_error": se, "z_score": z})
    worst_z = max(abs(row["z_score"]) for row in rows)
    results = {"samples": count, "lambda_c_m": model.lambda_c,
               "amplitude": model.amplitude, "conserving": model.conserving,
               "covariance": rows, "worst_abs_z": worst_z}
    return results, f"noise-audit: worst |z| {worst_z:.2f} over {count} samples"


# command -> its function, which returns (JSON results, stdout line)
_COMMANDS = {"simulate": _cmd_simulate, "lambda-c": _cmd_lambda_c,
             "lambda-q": _cmd_lambda_q, "classify": _cmd_classify,
             "case lindemann": _cmd_lindemann, "case helium": _cmd_helium,
             "noise-audit": _cmd_noise_audit}


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    command = _command(args)
    try:
        cfg = _load(args)
        results, line = _COMMANDS[command](cfg)
        if cfg.output.json:
            write_summary(summary_record(cfg, command, COMMAND_KEYS[command],
                                         results), cfg.output.json)
        print(line)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
