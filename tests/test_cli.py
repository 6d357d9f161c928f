import ast
import hashlib
import importlib.util
import json
import math
import os
import platform
import re
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import qhydro
from qhydro import cli, noise
from qhydro.cli import COMMAND_KEYS, _build_parser, _lag_means, _load, main
from qhydro.config import _CONVERTERS, ExperimentConfig, apply_overrides
from qhydro.constants import parse_quantity
from qhydro.dynamics import Trajectory
from qhydro.grids import Grid
from qhydro.noise import NoiseModel, RandomStream, noise_amplitude, sample_fields
from qhydro.output import (
    CSV_COLUMNS,
    config_hash,
    summary_record,
    trajectory_csv,
)
from qhydro.scales import correlation_length

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("golden",
                                               ROOT / "scripts" / "golden.py")
golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden)
FAST_SIM = [
    "--set", "grid.n_points=201",
    "--set", "grid.q_min=-1.0 nm",
    "--set", "grid.q_max=1.0 nm",
    "--set", "integrator.t_end=2e-15",
    "--set", "integrator.dt=1e-16",
    "--set", "experiment.initial_width=0.15 nm",
]
SHORT_RUN = ["--set", "integrator.t_end=2e-15"]
# dt far above FAST_SIM's CFL limit, and a run of that one step
ONE_LONG_STEP = ["--set", "integrator.dt=1e-12", "--set", "integrator.t_end=1e-12"]
# lambda_c = 1e-11 m is below twice the 1e-11 m spacing of FAST_SIM
UNDER_RESOLVED_NOISE = ["simulate", *FAST_SIM,
                        "--set", "integrator.scheme=stochastic_quantum",
                        "--set", "noise.lambda_c=1e-11 m"]
TAIL_GRID = ["--set", "grid.q_max=3e6 m", "--set", "grid.n_points=120001",
             "--set", "noise.lambda_c=2.0 m"]


def run(args, capsys):
    try:
        code = main(args)
    except SystemExit as exc:           # argparse's usage error or --help
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_script(argv, capsys, monkeypatch):
    """A script's main() run in-process, as `python <argv>` would run it."""
    spec = importlib.util.spec_from_file_location("script", ROOT / argv[0])
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    monkeypatch.setattr(sys, "argv", argv)
    try:
        script.main()
        code = 0
    except SystemExit as exc:           # argparse's usage error
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def bad_value(message):
    return f"error: bad value for {message}\n"


def usage_error(prog, message):
    """argparse's usage lines, wrapped to the terminal's width, then its error."""
    return re.compile(rf"usage: {prog} .*\n{prog}: error: {re.escape(message)}\n",
                      re.DOTALL)


LAMBDA_C_LINE = "lambda_c = 3.289826e-10 m\n"
# a run of at most 20 steps on the default grid keeps its norm to the
# ninth decimal printed
SIMULATED = re.compile(r"simulate: t = 2\.000000e-15 s, norm = 1\.000000000, "
                       r"variance = \d\.\d{6}e-2[01] m\^2\n")
UNRESOLVED_PROBE = re.compile(r"warning: lambda_c = 2\.000e\+00 m lies below the "
                              r"first radial sample at 2\.500e\+01 m, .*\n")
# the regime map: its header, its top row, 23 more rows of 32 cells from
# the given letters, and the legend
REGIME_MAP = (r"mass = 6\.6465e-27 kg, lambda_q = %s, ratio = 0\.1\n"
              r"rows: Theta \(K, descending\); columns: Delta L \(m, ascending\)\n"
              r"  50\.000 K  %s\n(?:[ \d]{3}\d\.\d{3} K  [%s]{32}\n){23}"
              r" {12}1\.0e-12 1\.2e-09 1\.0e-06\nlegend: D nonlocal_deterministic, "
              r"S nonlocal_stochastic, L local_stochastic, \. indeterminate\n")

# the config files of the test's directory, "{tmp}/<name>.ini"; a file may
# hold keys of any command, and each is checked at load
INI_FILES = {
    "theta": "[noise]\ntheta = 2.17 K\n",
    "infinite-grid": "[grid]\nq_max = 1e999\n",
    "bogus-scheme": "[integrator]\nscheme = bogus\n",
    "negative-core_width": "[experiment]\ncore_width = -1\n",
    "negative-tail_scale": "[experiment]\ntail_scale = -1\n",
    "family-g-5": "[experiment]\nfamily_g = 5\n",
    "short-tail-scale": "[experiment]\ntail_scale = 5\n",
    "overflowing-mu": "[noise]\ntheta = 2.17 K\nmobility_mu = 1e308\n",
    # a key before any section header
    "no-section": "theta = 2.17 K\n",
}
LINDEMANN_LINE = "lindemann: lambda_q / r_0 = 0.23570 (band 0.2-0.25: inside)\n"
CLASSIFY_WITHOUT_LAMBDA_Q = ["classify", "--theta", "2.17 K", "--delta-L", "2e-11"]


def unread(command, key):
    return f"error: {command} does not read {key}\n"


# (id, argv, exit code, stdout, stderr): a str is the exact text, a
# pattern must match all of it.  Each row runs in-process with warnings as
# errors; "{tmp}" in an argument is the test's directory, which holds the
# INI_FILES.  The README scalar commands themselves are rows of
# tests/golden.json.
OUTCOMES = [
    ("lambda-c-line", ["lambda-c", "--theta", "2.17 K"], 0, LAMBDA_C_LINE, ""),
    # a config file gives the line its flag gives
    ("lambda-c-config-file", ["--config", "{tmp}/theta.ini", "lambda-c"], 0,
     LAMBDA_C_LINE, ""),
    ("lambda-c-zero-theta-infinite", ["lambda-c", "--theta", "0"], 0,
     "lambda_c = infinite\n", ""),
    # argparse copies the subcommand's namespace over the top level's, so
    # one shared --set list would lose what was parsed before the subcommand
    ("set-on-both-levels", ["--set", "noise.theta=3 K", "lambda-c",
                            "--set", "material.mass=4.0026 u"], 0,
     "lambda_c = 2.797970e-10 m\n", ""),
    # a lone word is a malformed number, not an unknown unit, and a lone
    # float() token ("inf") is a number with no unit
    ("bare-inf", ["lambda-c", "--theta", "inf"], 1, "",
     bad_value("noise.theta: 'inf' is not finite")),
    ("bare-word", ["lambda-c", "--theta", "abc"], 1, "",
     bad_value("noise.theta: malformed number in 'abc'")),
    ("bare-empty", ["lambda-c", "--set", "noise.theta="], 1, "",
     bad_value("noise.theta: malformed number in ''")),
    # a config file that cannot be read or parsed
    ("malformed-config", ["--config", "{tmp}/no-section.ini", "lambda-c"], 1,
     "", re.compile(r"error: malformed config: .*\n", re.DOTALL)),
    ("missing-config", ["--config", "{tmp}/missing.ini", "lambda-c"], 1, "",
     re.compile(r"error: cannot read config '.*missing\.ini': .*\n")),
    # an override is SEC.KEY=VAL, and its key names its section
    ("set-without-value", ["simulate", "--set", "foo"], 1, "",
     "error: --set expects SEC.KEY=VAL, got 'foo'\n"),
    ("set-without-section", ["simulate", "--set", "foo=1"], 1, "",
     "error: override 'foo' must be section.key\n"),
    ("zero-dt", ["simulate", "--set", "integrator.dt=0"], 1, "",
     "error: integrator.dt must be positive\n"),
    # ground is the ground state of experiment.potential, which is none by
    # default; the ground states no longer have a value each
    ("ground-without-a-potential",
     ["simulate", "--set", "experiment.initial=ground",
      "--set", "integrator.t_end=1e-15s"], 1, "",
     "error: experiment.initial = ground is the ground state of "
     "experiment.potential, which must be harmonic or square_well\n"),
    ("removed-start-harmonic-ground",
     ["simulate", "--set", "experiment.initial=harmonic_ground",
      "--set", "experiment.potential=harmonic"], 1, "",
     "error: experiment.initial must be one of ('free_gaussian', 'ground')\n"),
    # a config file's grid is checked at load, also by a command that never
    # builds it
    ("non-finite-grid-bound-lambda-c",
     ["--config", "{tmp}/infinite-grid.ini", "lambda-c", "--theta", "2.17 K"],
     1, "", bad_value("grid.q_max: '1e999' is not finite")),
    ("non-finite-grid-bound-case-helium",
     ["--config", "{tmp}/infinite-grid.ini", "case", "helium"], 1, "",
     bad_value("grid.q_max: '1e999' is not finite")),
    ("non-finite-theta", ["lambda-c", "--theta", "1e999"], 1, "",
     bad_value("noise.theta: '1e999' is not finite")),
    ("non-finite-mobility-mu",
     ["noise-audit", "--theta", "2.17 K", "--set", "noise.mobility_mu=nan",
      "--set", "experiment.samples=10"], 1, "",
     bad_value("noise.mobility_mu: 'nan' is not finite")),
    ("non-finite-decay-h", ["classify", "--delta-L", "2e-11", "--decay-h", "nan"],
     1, "", bad_value("experiment.decay_h: 'nan' is not finite")),
    ("non-finite-t-end", ["simulate", "--set", "integrator.t_end=1e999"], 1, "",
     bad_value("integrator.t_end: '1e999' is not finite")),
    # a start density with no mass on the grid is named, not divided by zero
    ("gaussian-off-the-grid",
     ["simulate", "--set", "experiment.initial_center=1 m",
      "--set", "integrator.t_end=1e-15 s"], 1, "",
     "error: initial Gaussian needs [1.000e+00, 1.000e+00] m "
     "(experiment.initial_center +- 2 experiment.initial_width) inside the "
     "grid [-2.000e-09, 2.000e-09] m\n"),
    # a start width the grid cannot resolve would sit on one point, and one
    # it cannot hold would fill it like a box; both are named before step 1
    ("gaussian-under-resolved",
     ["simulate", "--set", "experiment.initial_width=1e-14m",
      "--set", "integrator.t_end=1e-15s"], 1, "",
     "error: under-resolved initial Gaussian: spacing 5.000e-12 m must be "
     "below experiment.initial_width/2 = 5.000e-15 m\n"),
    ("gaussian-wider-than-the-grid",
     ["simulate", "--set", "experiment.initial_width=1e-6m",
      "--set", "integrator.t_end=1e-15s"], 1, "",
     "error: initial Gaussian needs [-2.000e-06, 2.000e-06] m "
     "(experiment.initial_center +- 2 experiment.initial_width) inside the "
     "grid [-2.000e-09, 2.000e-09] m\n"),
    # only simulate writes a CSV, so output.csv would do nothing elsewhere
    *((f"csv-on-{argv[0]}", [*argv, "--csv", "{tmp}/x.csv"], 1, "",
       unread(argv[0], "output.csv"))
      for argv in (["lambda-c", "--theta", "2.17 K"],
                   ["noise-audit", "--theta", "2.17 K",
                    "--set", "experiment.samples=4"])),
    # the run takes round(t_end / dt) steps, which would stop at 1e-15 s
    ("t-end-between-steps", ["simulate", "--set", "integrator.t_end=1.05e-15"],
     1, "", "error: integrator.t_end must be a whole number of integrator.dt "
            "steps\n"),
    # one field has no spread, so no standard error or z-score
    ("one-audit-sample",
     ["noise-audit", "--theta", "2.17 K", "--set", "experiment.samples=1"], 1,
     "", "error: experiment.samples must be >= 2\n"),
    # the five plain numbers take no unit suffix
    ("plain-number-with-unit", ["noise-audit", "--set", "noise.mobility_mu=1 K"], 1,
     "", bad_value("noise.mobility_mu: could not convert string to float: "
                   "'1 K'")),
    ("help", ["lambda-c", "--help"], 0, re.compile(r"usage: qhydro lambda-c .*",
                                                   re.DOTALL), ""),
    # a usage error is a validation error, not the numerical failure's 2;
    # argparse takes the "-1e-9" after --lambda-q for a flag
    ("unknown-flag", ["lambda-c", "--bogus"], 1, "",
     usage_error("qhydro", "unrecognized arguments: --bogus")),
    ("negative-number-as-flag",
     ["classify", "--theta", "2.17 K", "--delta-L", "2e-11", "--lambda-q",
      "-1e-9"], 1, "",
     usage_error("qhydro classify", "argument --lambda-q: expected one argument")),
    ("classify-missing-delta-l", ["classify"], 1, "",
     "error: classify needs --delta-L (experiment.delta_l)\n"),
    # theta = 0 makes lambda_c infinite, which no ratio can be taken of
    ("classify-without-a-correlation-length", ["classify", "--delta-L", "2e-11"],
     1, "", "error: classify needs theta > 0 or an explicit noise.lambda_c\n"),
    ("classify-line", ["classify", "--theta", "2.17 K", "--delta-L", "2e-11",
                       "--lambda-q", "inf", "--decay-h", "1.2"], 0,
     "regime = nonlocal_deterministic, decay class = asymptotically_vanishing\n",
     ""),
    # an unset lambda_q is infinite, so the README call's --lambda-q inf
    # changes nothing
    ("classify-without-lambda-q", CLASSIFY_WITHOUT_LAMBDA_Q, 0,
     "regime = nonlocal_deterministic\n", ""),
    ("case-helium-line", ["case", "helium"], 0,
     "helium: theta* = 2.4757 K (reference 2.17 K), E0 = -5.1558 kB\n", ""),
    # the case study integrates on its own grid, so it reads no [grid] key,
    # and setting one is a usage error
    ("case-lindemann-ignores-the-grid",
     ["case", "lindemann", "--set", "grid.n_points=9"], 1, "",
     unread("case lindemann", "grid.n_points")),
    # a key the command never reads fails by name, before any value is
    # converted or checked
    ("lambda-c-unread-keys",
     ["lambda-c", "--theta", "2.17 K", "--set", "grid.n_points=9",
      "--set", "integrator.dt=1e-15", "--set", "experiment.initial_width=1e-30"],
     1, "", unread("lambda-c", "grid.n_points")),
    ("lambda-c-unread-t-end",
     ["lambda-c", "--theta", "2.17 K", "--set", "integrator.t_end=1.05e-15"], 1,
     "", unread("lambda-c", "integrator.t_end")),
    ("case-lindemann-unread-mobility-mu",
     ["case", "lindemann", "--theta", "2.17 K", "--set", "noise.mobility_mu=1e308"],
     1, "", unread("case lindemann", "noise.mobility_mu")),
    # only the commands that draw noise check the amplitude, so a file's
    # overflowing mu leaves the case study's line unchanged
    ("case-lindemann-ignores-a-files-noise",
     ["--config", "{tmp}/overflowing-mu.ini", "case", "lindemann"], 0,
     LINDEMANN_LINE, ""),
    ("lambda-q-finite-family",
     ["lambda-q", "--set", "experiment.family=power_f",
      "--set", "experiment.family_g=1.4", "--set", "experiment.core_width=1.0 m",
      "--set", "experiment.tail_scale=40.0 m", "--set", "grid.q_min=0 m",
      *TAIL_GRID], 0,
     re.compile(r"lambda_q = \S+ m \(asymptotically_vanishing, exponent \S+\)\n"),
     UNRESOLVED_PROBE),
    # a family other than power_f has no closed-form tail, so its fit is numeric
    ("lambda-q-log-f", ["lambda-q", "--set", "experiment.family=log_f",
                        *TAIL_GRID], 0,
     re.compile(r"lambda_q = \S+ m \(asymptotically_vanishing, exponent -inf\)\n"),
     UNRESOLVED_PROBE),
    # a tail has no end on a periodic grid, whose stencils wrap around
    ("lambda-q-needs-walls", ["lambda-q", "--set", "grid.periodic=true"], 1, "",
     "error: lambda-q fits the tail out to a wall; it needs grid.periodic = false\n"),
    # (k_B theta)^2 overflows; the commands that draw noise validate the
    # amplitude, and lambda_c needs no amplitude
    ("overflowing-theta", ["noise-audit", "--theta", "1e200 K"], 1, "",
     "error: noise amplitude overflows at theta = 1e+200 K and mobility_mu = 1\n"),
    ("lambda-c-at-overflowing-theta", ["lambda-c", "--theta", "1e200 K"], 0,
     "lambda_c = 4.846217e-110 m\n", ""),
    # mu = 1e308 overflows the noise amplitude, which the config rejects
    # before any step is taken
    ("overflowing-amplitude",
     ["simulate", *FAST_SIM, "--set", "integrator.scheme=stochastic_quantum",
      "--set", "noise.theta=2.17 K", "--set", "noise.mobility_mu=1e308"], 1, "",
     "error: noise amplitude overflows at theta = 2.17 K and "
     "mobility_mu = 1e+308\n"),
    # the integrator settings check themselves when the config loads, so a
    # command that never integrates rejects a file's bad value too
    ("bad-integrator-scheme",
     ["--config", "{tmp}/bogus-scheme.ini", "lambda-c", "--theta", "2.17 K"], 1,
     "", "error: integrator.scheme must be one of ('deterministic_quantum', "
         "'stochastic_quantum', 'classical_limit')\n"),
    # the boundary is the grid's, one boolean key
    ("bad-grid-periodic", ["lambda-q", "--set", "grid.periodic=wall"], 1,
     "", "error: bad value for grid.periodic: expected a boolean, got 'wall'\n"),
    ("boundary-is-not-an-integrator-key",
     ["lambda-c", "--theta", "2.17 K", "--set", "integrator.boundary=periodic"],
     1, "", "error: unknown key 'boundary' in section [integrator]\n"),
    # the floor under V_qu is one qpotential constant, shared by the
    # integrator and quantum_potential
    ("density-floor-is-not-a-key",
     ["lambda-c", "--set", "integrator.density_floor=1e-12"], 1, "",
     "error: unknown key 'density_floor' in section [integrator]\n"),
    # the step bound's safety fraction is one constant, CFL_SAFETY
    ("cfl-safety-is-not-a-key", ["lambda-c", "--set", "integrator.cfl_safety=0.4"],
     1, "", "error: unknown key 'cfl_safety' in section [integrator]\n"),
    # the material is one MaterialParams; the He-4 preset is its default
    ("material-preset-is-not-a-key", ["lambda-c", "--set", "material.preset=he4"],
     1, "", "error: unknown key 'preset' in section [material]\n"),
    # core_width is squared, so a negative width would run as its absolute
    # value; the family checks its keys when the config loads, so a command
    # that never builds the density rejects a file's bad value too
    *((f"nonpositive-{key}-{command}", [*source, command], 1, "",
       f"error: experiment.{key} must be positive\n")
      for key in ("core_width", "tail_scale")
      for command, source in (
          ("lambda-q", ["--set", f"experiment.{key}=-1"]),
          ("lambda-c", ["--config", f"{{tmp}}/negative-{key}.ini"]))),
    ("bad-family-exponent",
     ["--config", "{tmp}/family-g-5.ini", "lambda-c", "--theta", "2.17 K"], 1, "",
     "error: experiment.family_g must lie in (0, 2] for power_f\n"),
    ("short-tail-scale",
     ["--config", "{tmp}/short-tail-scale.ini", "lambda-c", "--theta", "2.17 K"],
     1, "", "error: experiment.tail_scale^2 must be >= 100 "
            "experiment.core_width^2\n"),
    # dt far above the CFL limit for this grid; t_end is one whole step
    ("step-above-the-bound", ["simulate", *FAST_SIM, *ONE_LONG_STEP], 2, "",
     "numerical failure: dt = 1.000e-12 s exceeds the stability bound "
     "9.263e-15 s (0.4 of RK4's limit, spacing 1.000e-11 m)\n"),
    # on the default grid 1e-15 s lies above 0.4 m h^2/hbar = 6.3e-16 s,
    # the bound before it was derived, and inside the derived 2.3e-15 s
    ("step-inside-the-derived-bound",
     ["simulate", "--set", "integrator.dt=1e-15", *SHORT_RUN], 0, SIMULATED, ""),
    ("classical-limit", ["simulate", "--set", "integrator.scheme=classical_limit",
                         *SHORT_RUN], 0, SIMULATED, ""),
    ("periodic", ["simulate", "--set", "grid.periodic=true", *SHORT_RUN],
     0, SIMULATED, ""),
    # a start density wide enough to reach the ends is normalised by the
    # periodic grid's cell sum, the rule its norm is observed with
    ("periodic-wide-start-norm",
     ["simulate", "--set", "grid.periodic=true",
      "--set", "experiment.initial_width=1e-9", "--set", "integrator.t_end=1e-15"],
     0, "simulate: t = 1.000000e-15 s, norm = 1.000000000, "
        "variance = 7.746529e-19 m^2\n", ""),
    ("stochastic-non-conserving",
     ["simulate", "--set", "integrator.scheme=stochastic_quantum",
      "--set", "noise.theta=2.17 K", "--set", "noise.conserving=false",
      *SHORT_RUN], 0, SIMULATED, ""),
    ("under-resolved-noise-kernel",
     [*UNDER_RESOLVED_NOISE, "--set", "noise.theta=2.17 K"], 1, "",
     "error: under-resolved kernel: spacing 1.000e-11 m must be below "
     "lambda_c/2 = 5.000e-12 m\n"),
    # the first step overflows: from 1e60 m/s a stage's peak density passes
    # 1e162 1/m, where a float's square of the taper level would raise
    # OverflowError, and the ufuncs overflow before the step's scan names it
    *((f"diverging-run-{velocity}",
       ["simulate", "--set", f"experiment.initial_velocity={velocity}",
        "--set", "integrator.t_end=1e-15 s"], 2, "",
       re.compile(r"numerical failure: run aborted: non-finite "
                  r"(density|velocity) after step at t = 0\.000e\+00 s\n"))
      for velocity in ("1e60", "1e80", "1e100", "1e150", "1e160", "1e200",
                       "1e300")),
    ("regime-map", ["scripts/regime_map.py"], 0, re.compile(REGIME_MAP % (
        "1e-08", r"DDDDD\.{5}SSSSSS\.{10}LLLLLL", "DSL.")), ""),
    # with an unbounded force range no point is local
    ("regime-map-lambda-q-inf", ["scripts/regime_map.py", "--lambda-q", "inf"], 0,
     re.compile(REGIME_MAP % ("inf", r"DDDDD\.{5}S{22}", "DS.")), ""),
    # --lambda-q is read as experiment.lambda_q_override is, so its header
    # prints the same inf and its map is the inf map
    ("regime-map-lambda-q-infinite",
     ["scripts/regime_map.py", "--lambda-q", "infinite"], 0,
     re.compile(REGIME_MAP % ("inf", r"DDDDD\.{5}S{22}", "DS.")), ""),
    # argparse prints the converter's own message
    ("regime-map-malformed-mass", ["scripts/regime_map.py", "--mass", "abc"], 2,
     "", usage_error("regime_map.py", "argument --mass: malformed number in "
                                      "'abc'")),
    ("regime-map-unknown-unit",
     ["scripts/regime_map.py", "--lambda-q", "3 furlong"], 2, "",
     usage_error("regime_map.py", "argument --lambda-q: unknown unit suffix "
                                  "'furlong' in '3 furlong'")),
]


@pytest.mark.parametrize("argv, code, out, err", [row[1:] for row in OUTCOMES],
                         ids=[row[0] for row in OUTCOMES])
def test_cli_outcome(tmp_path, capsys, monkeypatch, argv, code, out, err):
    for name, text in INI_FILES.items():
        (tmp_path / f"{name}.ini").write_text(text)
    argv = [arg.replace("{tmp}", str(tmp_path)) for arg in argv]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if argv[0].endswith(".py"):
            outcome = run_script(argv, capsys, monkeypatch)
        else:
            outcome = run(argv, capsys)
    assert outcome[0] == code, outcome
    for text, expected in zip(outcome[1:], (out, err)):
        if isinstance(expected, str):
            assert text == expected
        else:
            assert expected.fullmatch(text), text


def test_global_flags_after_subcommand(capsys):
    before = run(["--set", "noise.theta=2.17 K", "lambda-c"], capsys)
    after = run(["lambda-c", "--set", "noise.theta=2.17 K"], capsys)
    assert before == after


def test_set_on_both_levels_joins_in_order():
    # _load joins the two levels' lists (see the set-on-both-levels row)
    both = _config(["--set", "noise.theta=3 K", "lambda-c",
                    "--set", "material.mass=6e-27"])
    assert both == _config(["lambda-c", "--set", "noise.theta=3 K",
                            "--set", "material.mass=6e-27"])
    # the top level comes first, so the subcommand's value wins
    assert _config(["--set", "noise.theta=3 K", "lambda-c",
                    "--set", "noise.theta=1 K"]).noise.theta == 1.0


# command, flag, config key, value, another value
SHORTHAND_FLAGS = [
    ("noise-audit", "--seed", "experiment.seed", "7", "8"),
    ("simulate", "--csv", "output.csv", "a.csv", "b.csv"),
    ("lambda-c", "--json", "output.json", "a.json", "b.json"),
    ("lambda-c", "--mass", "material.mass", "4.0026 u", "6e-27"),
    ("lambda-c", "--theta", "noise.theta", "2.17 K", "1 K"),
    ("lambda-q", "--lambda-c", "noise.lambda_c", "3.3e-10", "1e-10"),
    ("classify", "--delta-L", "experiment.delta_l", "2e-11", "1e-11"),
    ("classify", "--lambda-q", "experiment.lambda_q_override", "inf", "1e-9"),
    ("classify", "--decay-h", "experiment.decay_h", "1.2", "0.5"),
]


def _config(argv):
    return _load(_build_parser().parse_args(argv))


@pytest.mark.parametrize("command, flag, key, value, other", SHORTHAND_FLAGS)
def test_shorthand_flag_is_its_set_form(command, flag, key, value, other):
    via_set = _config([command, "--set", f"{key}={value}"])
    assert via_set != _config([command])
    assert _config([command, flag, value]) == via_set
    if flag in ("--seed", "--csv", "--json"):
        assert _config([flag, value, command]) == via_set
    # the flag wins over --set, and an empty flag value sets nothing
    assert _config([command, "--set", f"{key}={other}", flag, value]) == via_set
    assert _config([command, "--set", f"{key}={value}", flag, ""]) == via_set


@pytest.mark.parametrize("argv, key", [
    (["noise-audit", "--seed"], "experiment.seed"),
    (["classify", "--delta-L", "2e-11", "--decay-h"], "experiment.decay_h"),
])
def test_malformed_shorthand_flag_fails_as_its_set_form(argv, key, capsys):
    via_flag = run([*argv, "abc"], capsys)
    via_set = run([*argv[:-1], "--set", f"{key}=abc"], capsys)
    assert via_flag == via_set
    assert via_flag[0] == 1
    assert f"error: bad value for {key}" in via_flag[2]


def test_case_lindemann_json(tmp_path, capsys):
    path = tmp_path / "lind.json"
    code, out, _ = run(["case", "lindemann", "--json", str(path)], capsys)
    assert code == 0
    assert "lambda_q / r_0 = 0.23570" in out
    record = json.loads(path.read_text())
    assert record["results"]["lambda_q_over_r0"] == pytest.approx(
        0.23570, abs=1e-4)
    assert record["provenance"]["package"] == "qhydro"


# the README scalar commands: the golden table's text rows but simulate's
SCALAR_COMMANDS = {name: argv for name, (kind, argv, _) in golden.ROWS.items()
                   if kind == "text" and argv[0] != "simulate"}
SHORT_STOCHASTIC = ["simulate", "--set", "integrator.scheme=stochastic_quantum",
                    "--set", "noise.theta=2.17 K", "--set", "integrator.t_end=2e-15"]
# the modules a cold command loads only when it runs them: numpy (lambda-c,
# classify and the case studies are closed forms), the integrator and the
# noise layer, the noise generator (whose secrets import loads hashlib) and
# its FFT, the summary writer with its hashlib and json, configparser (only
# a config file needs it), scipy (its import would dominate every cold
# call), concurrent.futures (the sampler starts no thread),
# importlib.metadata (a record reads no package metadata), dataclasses (no
# row may load it: params.Record declares every value object) and inspect
# (numpy imports it, and nothing else does)
COLD_WATCHED = ("numpy", "numpy.random", "numpy.fft", "hashlib", "json",
                "configparser", "qhydro.dynamics", "qhydro.noise",
                "qhydro.output", "scipy", "concurrent.futures",
                "importlib.metadata", "dataclasses", "inspect")
# the README scalar commands that sample a profile on a grid
ARRAY_COMMANDS = ("lambda-q",)
# name, commands run in one fresh interpreter, the watched modules they load
COLD_ROWS = [
    *((name, [argv], ("numpy", "inspect") if name in ARRAY_COMMANDS else ())
      for name, argv in SCALAR_COMMANDS.items()),
    ("classify-without-lambda-q", [CLASSIFY_WITHOUT_LAMBDA_Q], ()),
    ("case-helium+stochastic-simulate",
     [SCALAR_COMMANDS["case-helium"], SHORT_STOCHASTIC],
     ("numpy", "qhydro.dynamics", "qhydro.noise", "numpy.random", "numpy.fft",
      "hashlib", "inspect")),
    ("lambda-c-json", [[*SCALAR_COMMANDS["lambda-c"], "--json", "{tmp}/lc.json"]],
     ("qhydro.output", "hashlib", "json")),
    ("lambda-c-config", [["lambda-c", "--config", "{tmp}/theta.ini"]],
     ("configparser",)),
    ("simulate-csv-json",
     [["simulate", *FAST_SIM, "--csv", "{tmp}/run.csv", "--json", "{tmp}/run.json"]],
     ("numpy", "qhydro.dynamics", "qhydro.noise", "qhydro.output", "hashlib",
      "json", "inspect")),
]


def child_env():
    """The environment of a fresh interpreter that imports this qhydro."""
    src = str(Path(qhydro.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


@pytest.mark.parametrize("commands, loads",
                         [row[1:] for row in COLD_ROWS],
                         ids=[row[0] for row in COLD_ROWS])
def test_cold_command_loads_only_what_it_runs(tmp_path, commands, loads):
    # in a fresh interpreter, each command exits 0, and of the watched
    # modules the commands load exactly their row's
    for name, text in INI_FILES.items():
        (tmp_path / f"{name}.ini").write_text(text)
    argvs = [[arg.replace("{tmp}", str(tmp_path)) for arg in argv]
             for argv in commands]
    code = ("import sys\n"
            "bare = set(sys.modules)\n"
            "from qhydro.cli import main\n"
            f"for argv in {argvs!r}:\n"
            "    assert main(argv) == 0, argv\n"
            "loaded = set(sys.modules) - bare\n"
            f"print(sorted(w for w in {COLD_WATCHED!r}\n"
            "             if any(m == w or m.startswith(w + '.') for m in loaded)))\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True, env=child_env())
    assert ast.literal_eval(proc.stdout.splitlines()[-1]) == sorted(loads)
    for out in (a for argv in argvs for a in argv if a.startswith(str(tmp_path))):
        assert Path(out).is_file()
        if out.endswith(".json"):
            record = json.loads(Path(out).read_text())
            digest = record["provenance"]["config_sha256_16"]
            assert re.fullmatch("[0-9a-f]{16}", digest)
            # a record names numpy's version exactly when its command loaded it
            assert (record["provenance"]["numpy"] is None) == ("numpy" not in loads)


@pytest.mark.parametrize("lag", [0, 4, 8, 199])
def test_lag_product_mean_matches_explicit_product(lag):
    model = NoiseModel(theta=1.0, lambda_c=1.0, mass=1.0, conserving=False)
    grid = Grid(0.0, 50.0, 200)
    samples = sample_fields(model, grid, RandomStream(4), 300)
    products = samples[:, :grid.n_points - lag] * samples[:, lag:]
    per_field = _lag_means(samples, [lag])[:, 0]
    # a field's mean can cancel to near zero, so it is held to roundoff in
    # the sum of |products|, and the audit's mean over fields to 1e-12
    assert per_field == pytest.approx(np.mean(products, axis=1), rel=0,
                                      abs=1e-12 * float(np.mean(np.abs(products))))
    assert float(np.mean(per_field)) == pytest.approx(float(np.mean(products)),
                                                      rel=1e-12)


# lambda_c at 2.17 K is 3.29e-10 m, about 10.5 cells of this 33-point grid,
# so the 2 lambda_c lag (21 cells) fits and the kernel is resolved
SMALL_AUDIT = ["noise-audit", "--theta", "2.17 K",
               "--set", "grid.q_min=-0.5 nm", "--set", "grid.q_max=0.5 nm",
               "--set", "grid.n_points=33"]


def record_audit_draws(monkeypatch):
    """(stream, count, rng, reduced rows) of every noise.sample_fields call."""
    calls = []
    real = noise.sample_fields

    def recording(model, grid, stream, count, rng=None, *, reduce=None):
        assert reduce is not None
        rows = real(model, grid, stream, count, rng, reduce=reduce)
        calls.append((stream, count, rng, rows.copy()))
        return rows

    monkeypatch.setattr(noise, "sample_fields", recording)
    return calls


@pytest.mark.parametrize("conserving", [False, True])
# batches whose last chunk has 31, 32, 1 and 3 rows
@pytest.mark.parametrize("samples", [1023, 1024, 1025, 2051])
def test_streamed_audit_matches_one_batch_reference(
        tmp_path, capsys, monkeypatch, conserving, samples):
    argv = [*SMALL_AUDIT, "--seed", "5",
            "--set", f"noise.conserving={str(conserving).lower()}",
            "--set", f"experiment.samples={samples}"]
    calls = record_audit_draws(monkeypatch)
    json_path = tmp_path / "audit.json"
    code, out, err = run([*argv, "--json", str(json_path)], capsys)
    assert code == 0, err
    cfg = _load(_build_parser().parse_args(argv))
    model, grid = cli._noise_model(cfg), cfg.grid
    batch = sample_fields(model, grid, RandomStream(5), samples)
    # one call, whose generator is built from the seed, and whose reduced
    # rows are the lag means of that one batch bit for bit
    [(stream, count, rng, reduced)] = calls
    assert (stream.seed, count, rng) == (5, samples, None)
    results = json.loads(json_path.read_text())["results"]
    lags = [int(round(row["lag_m"] / grid.spacing))
            for row in results["covariance"]]
    assert np.array_equal(reduced, _lag_means(batch, lags))
    assert results["samples"] == samples
    for row in results["covariance"]:
        k = int(round(row["lag_m"] / grid.spacing))
        products = batch[:, :grid.n_points - k] * batch[:, k:]
        assert row["empirical"] == pytest.approx(float(np.mean(products)),
                                                 rel=1e-12)
        per_field = np.mean(products, axis=1)
        se = float(np.std(per_field, ddof=1)) / np.sqrt(samples)
        assert row["standard_error"] == pytest.approx(se, rel=1e-9)
        assert row["z_score"] == pytest.approx(
            (row["empirical"] - row["target"]) / se, rel=1e-9)
    worst_z = max(abs(row["z_score"]) for row in results["covariance"])
    assert results["worst_abs_z"] == worst_z
    assert out == f"noise-audit: worst |z| {worst_z:.2f} over {samples} samples\n"


def test_audit_rejects_short_grid_before_drawing(monkeypatch, capsys):
    calls = record_audit_draws(monkeypatch)
    code, out, err = run(["noise-audit", "--theta", "2.17 K",
                          "--set", "grid.q_min=-0.25 nm",
                          "--set", "grid.q_max=0.25 nm",
                          "--set", "grid.n_points=8"], capsys)
    assert code == 1
    assert err == "error: grid too short for the 2 lambda_c lag\n"
    assert out == ""
    assert calls == []


def test_audit_rejects_zero_amplitude_before_drawing(tmp_path, monkeypatch,
                                                    capsys):
    # theta = 0 gives a zero amplitude and a zero target covariance
    calls = record_audit_draws(monkeypatch)
    json_path = tmp_path / "audit.json"
    code, out, err = run(["noise-audit", "--theta", "0",
                          "--set", "noise.lambda_c=3e-10 m",
                          "--json", str(json_path)], capsys)
    assert code == 1
    assert err == ("error: noise amplitude is zero at theta = 0 K; "
                   "noise-audit needs a nonzero one\n")
    assert "Traceback" not in err
    assert out == ""
    assert calls == []
    assert not json_path.exists()


def audit_peak(argv, samples):
    tracemalloc.start()
    try:
        code = main([*argv, "--set", f"experiment.samples={samples}"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    return peak


@pytest.mark.parametrize("samples", [5000, 20000])
def test_audit_peak_memory_is_about_one_block(capsys, samples):
    argv = ["noise-audit", "--theta", "2.17 K", "--seed", "3"]
    # FFT plans and the filter (two chunks)
    assert main([*argv, "--set", "experiment.samples=33"]) == 0
    # four former 1,024-field blocks, so the reference peak is steady
    reference = 4096
    reference_peak = audit_peak(argv, reference)
    peak = audit_peak(argv, samples)
    # the chunk buffers plus a (samples, 3) result: under one
    # 1,024-field block (6.5 MB), and the fields themselves (32 MB at
    # 5,000 samples) are never held; past the reference the peak grows
    # by the extra result rows only
    assert peak < 6 * 2**20
    assert peak - reference_peak < (samples - reference) * 3 * 8 + 0.25 * 2**20
    capsys.readouterr()


def test_audit_standard_error_matches_isserlis(tmp_path, capsys):
    # for zero-mean Gaussian fields with covariance C(d cells), the mean of
    # x_i x_(i+k) over P = N - k positions has variance
    # (1/P^2) sum_{|d|<P} (P - |d|) [C(d)^2 + C(d + k) C(d - k)]
    # (Isserlis), and the audit's estimate that over the field count
    samples = 4000
    json_path = tmp_path / "audit.json"
    code, _, err = run(["noise-audit", "--theta", "2.17 K", "--seed", "8",
                        "--set", "noise.conserving=false",
                        "--set", f"experiment.samples={samples}",
                        "--json", str(json_path)], capsys)
    assert code == 0, err
    record = json.loads(json_path.read_text())
    results, g = record["results"], record["config"]["grid"]
    n = g["n_points"]
    h = (g["q_max"] - g["q_min"]) / (n - 1)

    def cov(cells):
        return results["amplitude"] * np.exp(
            -((cells * h / results["lambda_c_m"]) ** 2))

    for row in results["covariance"]:
        k = int(round(row["lag_m"] / h))
        p = n - k
        d = np.arange(-(p - 1), p)
        var = float(np.sum((p - np.abs(d)) * (cov(d) ** 2
                                              + cov(d + k) * cov(d - k)))) / p**2
        expected = np.sqrt(var / samples)
        assert abs(row["z_score"]) < 5.0
        assert row["standard_error"] == pytest.approx(expected, rel=0.1)


DEFAULT_AUDIT = ["noise-audit", "--theta", "2.17 K",
                 "--set", "noise.conserving=false", "--seed", "11"]
SEEDED_AUDIT = ["noise-audit", "--theta", "2.17 K", "--seed", "11"]
AUDIT_2500 = [*SEEDED_AUDIT, "--set", "experiment.samples=2500"]
AUDIT_VARIANTS = {
    # the golden table's audit row: 10,000 samples, not conserving
    "default": DEFAULT_AUDIT,
    # drawn in one call that reduces each 32-field chunk to its lag means
    "samples-2500": AUDIT_2500,
    # the second chunk is one field long
    "samples-33": [*SEEDED_AUDIT, "--set", "experiment.samples=33"],
    # circulant lengths: the minimal 5-smooth 400 = 2 (N - 1), and the
    # padded 1,215 > 2 (N - 1)
    "n201": [*AUDIT_2500, "--set", "grid.n_points=201"],
    "n602": [*AUDIT_2500, "--set", "grid.n_points=602"],
    # lambda_c = 2.2 h on the default grid: every mode of the spectrum is
    # drawn, the Nyquist mode too
    "narrow-lambda-c": [*AUDIT_2500, "--set", "noise.lambda_c=1.1e-11 m"],
}


def audit_json(argv, path, capsys):
    code, _, err = run([*argv, "--json", str(path)], capsys)
    assert code == 0, err
    return path.read_bytes()


@pytest.mark.parametrize("argv", AUDIT_VARIANTS.values(), ids=AUDIT_VARIANTS)
def test_seeded_audit_writes_the_same_json_twice(tmp_path, capsys, argv):
    path = tmp_path / "audit.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        first = audit_json(argv, path, capsys)
        assert audit_json(argv, path, capsys) == first
    rows = json.loads(first)["results"]["covariance"]
    assert len(rows) == 3
    assert all(isinstance(row["z_score"], float) for row in rows)


def test_seeded_audit_writes_the_same_json_from_two_processes(tmp_path):
    # each interpreter builds its own generator, filter and FFT plans
    path = tmp_path / "audit.json"
    written = []
    for _ in range(2):
        subprocess.run([sys.executable, "-m", "qhydro.cli", *DEFAULT_AUDIT,
                        "--json", str(path)], check=True, env=child_env())
        written.append(path.read_bytes())
    assert written[0] == written[1]


def test_audit_json_to_two_paths_differs_in_the_path_only(tmp_path, capsys):
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    a, b = (json.loads(audit_json(DEFAULT_AUDIT, path, capsys)) for path in paths)
    assert a["results"] == b["results"] and a["provenance"] == b["provenance"]
    assert a["config"]["output"].pop("json") == str(paths[0])
    assert b["config"]["output"].pop("json") == str(paths[1])
    assert a["config"] == b["config"]


def test_simulate_writes_csv_and_json(tmp_path, capsys):
    csv_path = tmp_path / "run.csv"
    json_path = tmp_path / "run.json"
    code, out, _ = run(
        ["simulate", *FAST_SIM, "--csv", str(csv_path),
         "--json", str(json_path)], capsys)
    assert code == 0
    assert "norm = 1.000000000" in out
    lines = csv_path.read_text().splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) > 1
    record = json.loads(json_path.read_text())
    assert record["results"]["final_norm"] == pytest.approx(1.0, abs=1e-9)
    assert record["config"]["grid"]["n_points"] == 201
    assert record["provenance"]["seed"] == 12345


# the wall lies five widths from a packet at 1.5 nm on the default grid,
# where n is 3.7e-6 of its peak, above the 1e-6 of _near_boundary_mass
@pytest.mark.parametrize("center, warned", [
    ([], False),
    (["--set", "experiment.initial_center=1.5 nm"], True),
])
def test_simulate_json_records_the_boundary_warning(tmp_path, capsys, center,
                                                    warned):
    path = tmp_path / "run.json"
    code, _, err = run(["simulate", *center, *SHORT_RUN, "--json", str(path)],
                       capsys)
    assert code == 0, err
    assert json.loads(path.read_text())["results"]["boundary_warning"] is warned


def test_simulate_csv_byte_identical_across_runs(tmp_path, capsys):
    paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
    for path in paths:
        code, _, _ = run(
            ["simulate", *FAST_SIM, "--seed", "777",
             "--set", "integrator.scheme=stochastic_quantum",
             "--set", "noise.theta=2.17 K",
             "--csv", str(path)], capsys)
        assert code == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_silent_noise_draws_nothing(tmp_path, capsys):
    # at theta = 0 the noise amplitude is zero, so the stochastic run never
    # samples the under-resolved kernel and equals the deterministic run
    paths = [tmp_path / "stochastic.csv", tmp_path / "deterministic.csv"]
    code, _, err = run([*UNDER_RESOLVED_NOISE, "--csv", str(paths[0])], capsys)
    assert code == 0, err
    code, _, err = run(["simulate", *FAST_SIM, "--csv", str(paths[1])], capsys)
    assert code == 0, err
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_non_finite_noise_rejected(tmp_path, capsys):
    # mu = 1e307 gives a finite amplitude whose circulant eigenvalues, times
    # the embedding length, overflow; the sampler names the amplitude and
    # the grid before a field is drawn, and numpy warns of nothing
    noisy = ["--set", "noise.theta=2.17 K", "--set", "noise.mobility_mu=1e307",
             "--json", str(tmp_path / "out.json")]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        simulate = run(["simulate", *FAST_SIM, "--set", "grid.n_points=801",
                        "--set", "integrator.scheme=stochastic_quantum",
                        *noisy], capsys)
        audit = run(["noise-audit", "--set", "experiment.samples=100", *noisy],
                    capsys)
    spectrum = "error: noise spectrum overflows at amplitude 1.384e+303 on the "
    assert simulate == (1, "", spectrum + "801-point grid of spacing "
                                          "2.500e-12 m\n")
    assert audit == (1, "", spectrum + "801-point grid of spacing "
                                       "5.000e-12 m\n")
    assert not (tmp_path / "out.json").exists()


@pytest.mark.parametrize("mu", ["1e300", "1e306", "1e307"])
def test_audit_with_overflowing_statistics_fails(tmp_path, capsys, mu):
    # a finite amplitude whose spectrum is finite (up to mu = 1e306) but
    # whose lag products or their spread overflow must not report an inf or
    # nan error as a pass; at mu = 1e307 the spectrum itself overflows and
    # the sampler refuses the amplitude before any statistics are taken.
    # Either failure is one stderr line, with no warning and no JSON
    json_path = tmp_path / "audit.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(["noise-audit", "--theta", "2.17 K",
                              "--set", f"noise.mobility_mu={mu}",
                              "--set", "experiment.samples=100",
                              "--json", str(json_path)], capsys)
    amplitude = noise_amplitude(ExperimentConfig().material.mass, 2.17,
                                float(mu))
    if mu == "1e307":
        assert (code, out) == (1, "")
        assert err == (f"error: noise spectrum overflows at amplitude "
                       f"{amplitude:.3e} on the 801-point grid of spacing "
                       "5.000e-12 m\n")
    else:
        assert (code, out) == (2, "")
        assert err == ("numerical failure: covariance statistics at lag 0 "
                       f"lambda_c are not finite at noise amplitude "
                       f"{amplitude:.3e}\n")
    assert not json_path.exists()


def test_mass_moves_lambda_c_on_every_route(tmp_path, capsys):
    # the material section is the MaterialParams the command runs on, so
    # no other key can mask an explicit mass
    ini = tmp_path / "mass.ini"
    ini.write_text("[material]\nmass = 1 u\n")
    expected = (f"lambda_c = "
                f"{correlation_length(parse_quantity('1 u'), 2.17):.6e} m\n")
    assert run(["lambda-c", "--theta", "2.17 K"], capsys)[1] != expected
    for route in (["--mass", "1 u"], ["--set", "material.mass=1 u"],
                  ["--config", str(ini)]):
        assert run(["lambda-c", "--theta", "2.17 K", *route],
                   capsys) == (0, expected, "")


def test_unwritable_output_is_one_error_line(tmp_path, capsys):
    parent = tmp_path / "plain.txt"
    parent.write_text("not a directory\n")
    path = parent / "x.json"
    code, out, err = run(["lambda-c", "--theta", "2.17 K", "--json", str(path)],
                         capsys)
    assert (code, out) == (1, "")
    assert len(err.splitlines()) == 1
    assert err.startswith(f"error: cannot write {str(path)!r}: ")


CASE_RESULT_KEYS = {
    "lindemann": {"band", "delta_m", "delta_over_r0", "lambda_q_m",
                  "lambda_q_over_r0", "within_empirical_band"},
    "helium": {"bound_state", "lambda_point"},
}
HELIUM_SECTION_KEYS = {
    "lambda_point": {"lambda_c_at_reference_m", "lambda_c_at_theta_star_m",
                     "note", "reference_theta_K", "theta_star_K",
                     "two_delta_m"},
    "bound_state": {"E0_over_kB", "K0_per_m", "lambda_q_over_r0",
                    "matching_residual", "ordering_ok",
                    "reference_two_delta_over_r0", "two_delta_over_r0"},
}


@pytest.mark.parametrize("study", ["lindemann", "helium"])
def test_case_json_result_keys_are_pinned(tmp_path, capsys, study):
    # each report's fields are the keys it writes
    path = tmp_path / f"{study}.json"
    code, _, err = run(["case", study, "--json", str(path)], capsys)
    assert code == 0, err
    results = json.loads(path.read_text())["results"]
    assert set(results) == CASE_RESULT_KEYS[study]
    if study == "lindemann":
        assert results["band"] == [0.20, 0.25]
    else:
        for section, keys in HELIUM_SECTION_KEYS.items():
            assert set(results[section]) == keys


def test_failed_run_leaves_no_summary(tmp_path, capsys):
    json_path = tmp_path / "broken.json"
    code, _, _ = run(
        ["simulate", *FAST_SIM, *ONE_LONG_STEP, "--json", str(json_path)],
        capsys)
    assert code == 2
    assert not json_path.exists()


def test_empty_trajectory_csv_is_header_only():
    text = trajectory_csv(Trajectory(snapshots=[], final_state=None))
    assert text == ",".join(CSV_COLUMNS) + "\n"


def simulate_block(cfg):
    return summary_record(cfg, "simulate", COMMAND_KEYS["simulate"], {})["config"]


def test_config_hash_tracks_content():
    base = simulate_block(ExperimentConfig())
    assert config_hash(base) == config_hash(simulate_block(ExperimentConfig()))
    record = summary_record(ExperimentConfig(), "simulate",
                            COMMAND_KEYS["simulate"], {"x": 1})
    assert record["config"] == base
    assert record["provenance"]["config_sha256_16"] == config_hash(base)
    assert len(config_hash(base)) == 16


def test_config_hash_recomputes_from_the_record(tmp_path, capsys):
    # the hash is of the record's own config block, [output] paths nulled,
    # as canonical JSON
    path = tmp_path / "lc.json"
    assert run(["lambda-c", "--theta", "2.17 K", "--mass", "1 u",
                "--json", str(path)], capsys)[0] == 0
    record = json.loads(path.read_text())
    assert record["config"]["output"] == {"json": str(path)}
    config = {**record["config"], "output": {"json": None}}
    text = json.dumps(config, sort_keys=True, separators=(",", ":"))
    assert (record["provenance"]["config_sha256_16"]
            == hashlib.sha256(text.encode()).hexdigest()[:16])


@pytest.mark.parametrize("key", ["output.csv", "output.json"])
def test_config_hash_ignores_output_paths(key):
    # the same run written to two paths is the same run; its record's
    # config block still records the path
    a = apply_overrides(ExperimentConfig(), {key: "a.out"})
    b = apply_overrides(ExperimentConfig(), {key: "b.out"})
    assert (config_hash(simulate_block(a)) == config_hash(simulate_block(b))
            == config_hash(simulate_block(ExperimentConfig())))
    section, name = key.split(".")
    assert simulate_block(a)[section][name] == "a.out"
    finer = apply_overrides(a, {"grid.n_points": "401"})
    assert config_hash(simulate_block(finer)) != config_hash(simulate_block(a))


LAMBDA_Q_ARGS = [
    "lambda-q",
    "--set", "experiment.family=power_f",
    "--set", "experiment.family_g=1.4",
    "--set", "experiment.core_width=1.0 m",
    "--set", "experiment.tail_scale=40.0 m",
    "--set", "grid.q_min=0 m",
    "--set", "grid.q_max=3e6 m",
    "--set", "grid.n_points=120001",
]


@pytest.mark.parametrize("lambda_c, resolved", [("2.0 m", False),
                                                ("50.0 m", True)])
def test_lambda_q_flags_unresolved_probe(tmp_path, capsys, lambda_c, resolved):
    # the grid spacing is 25 m: a 2 m probe falls inside the first cell,
    # where F(lambda_c) can only be clamped to the first sample
    path = tmp_path / "lq.json"
    code, out, err = run([*LAMBDA_Q_ARGS, "--set", f"noise.lambda_c={lambda_c}",
                          "--json", str(path)], capsys)
    assert code == 0
    assert out.startswith("lambda_q = ") and len(out.splitlines()) == 1
    assert json.loads(path.read_text())["results"]["lambda_c_resolved"] is resolved
    if resolved:
        assert err == ""
    else:
        assert len(err.splitlines()) == 1
        assert err.startswith("warning: lambda_c = 2.000e+00 m lies below "
                              "the first radial sample at 2.500e+01 m")


def test_lambda_q_probes_at_twice_the_core_width_by_default(capsys):
    # the README call sets noise.lambda_c = 2.0 m, which is 2 core_width at
    # the default core_width of 1 m
    argv = SCALAR_COMMANDS["lambda-q"]
    assert argv[-2:] == ["--set", "noise.lambda_c=2.0 m"]
    default = run(argv[:-2], capsys)
    assert default == run(argv, capsys)
    assert default[0] == 0 and UNRESOLVED_PROBE.fullmatch(default[2])


def test_provenance_records_versions_and_platform(tmp_path, capsys):
    path = tmp_path / "lc.json"
    code, _, _ = run(["lambda-c", "--theta", "2.17 K", "--json", str(path)],
                     capsys)
    assert code == 0
    provenance = json.loads(path.read_text())["provenance"]
    # lambda-c runs no numpy, so its result does not depend on numpy's version
    assert provenance["numpy"] is None
    assert provenance["python"] == platform.python_version()
    assert provenance["platform"] == platform.platform()
    path = tmp_path / "lq.json"
    code, _, _ = run([*SCALAR_COMMANDS["lambda-q"], "--json", str(path)], capsys)
    assert code == 0
    assert json.loads(path.read_text())["provenance"]["numpy"] == np.__version__


def traced_reads(argv):
    """The "section.key" names that ``main(argv)`` read after load."""
    reads = set()
    load = cli._load

    def traced_load(args):
        cfg = load(args)
        for name in _CONVERTERS:
            section = getattr(cfg, name)
            cls = type(section)

            def getattribute(obj, key, section=section, name=name,
                             get=cls.__getattribute__):
                if obj is section and key in _CONVERTERS[name]:
                    reads.add(f"{name}.{key}")
                return get(obj, key)

            patch.setattr(cls, "__getattribute__", getattribute)
        return cfg

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "_load", traced_load)
        main(argv)
    return reads


# the five valid start/potential pairs: ground is the potential's own
START_PAIRS = [("free_gaussian", "none"), ("free_gaussian", "harmonic"),
               ("free_gaussian", "square_well"), ("ground", "harmonic"),
               ("ground", "square_well")]
# every scheme and start pair, one step each
SIMULATE_VARIANTS = [
    ["simulate", "--theta", "2.17 K", "--set", "integrator.t_end=1e-16",
     "--set", f"integrator.scheme={scheme}",
     "--set", f"experiment.initial={initial}",
     "--set", f"experiment.potential={potential}", "--csv", "{tmp}/run.csv"]
    for scheme in ("deterministic_quantum", "stochastic_quantum", "classical_limit")
    for initial, potential in START_PAIRS]
TRACED_RUNS = {
    "simulate": SIMULATE_VARIANTS,
    "lambda-c": [SCALAR_COMMANDS["lambda-c"]],
    # family_g is read for power_f only, family_h for log_f only
    "lambda-q": [SCALAR_COMMANDS["lambda-q"],
                 [*SCALAR_COMMANDS["lambda-q"], "--set", "experiment.family=log_f"]],
    "classify": [SCALAR_COMMANDS["classify"]],
    "case lindemann": [SCALAR_COMMANDS["case-lindemann"]],
    "case helium": [SCALAR_COMMANDS["case-helium"]],
    "noise-audit": [[*SMALL_AUDIT, "--set", "experiment.samples=40"]],
}


@pytest.mark.parametrize("command", TRACED_RUNS)
def test_command_keys_are_the_keys_each_command_reads(tmp_path, capsys,
                                                     command):
    # the load-time checks read every key; what counts is what the command
    # reads after load.  No --json: the record reads the table's keys
    read = set()
    for argv in TRACED_RUNS[command]:
        argv = [arg.replace("{tmp}", str(tmp_path)) for arg in argv]
        read |= traced_reads(argv)
    capsys.readouterr()
    assert read == COMMAND_KEYS[command]


CLOSED_FORMS = {"none": [], "harmonic": ["lj_harmonic"],
                "square_well": ["square_well_solve"]}


@pytest.mark.parametrize("initial, potential", START_PAIRS)
def test_start_pair_runs_on_one_closed_form(capsys, monkeypatch, initial,
                                            potential):
    # the potential's closed form is built once, for the sampled potential
    # and the ground density alike
    calls = []
    for name in ("lj_harmonic", "square_well_solve"):
        def counted(params, name=name, solve=getattr(cli, name)):
            calls.append(name)
            return solve(params)
        monkeypatch.setattr(cli, name, counted)
    code, out, err = run(["simulate", "--set", "integrator.t_end=1e-16",
                          "--set", f"experiment.initial={initial}",
                          "--set", f"experiment.potential={potential}"], capsys)
    assert (code, err) == (0, "")
    assert out.startswith("simulate: t = 1.000000e-16 s, norm = 1.0000")
    assert calls == CLOSED_FORMS[potential]


def test_every_config_key_is_read_by_a_command():
    assert set(COMMAND_KEYS) == set(cli._COMMANDS)
    assert set().union(*COMMAND_KEYS.values()) == {
        f"{section}.{key}" for section, keys in _CONVERTERS.items() for key in keys}


def test_readme_key_table_is_command_keys():
    # the README's "Keys each command reads" table: one row per command,
    # one column per section, the keys space-separated
    section = (ROOT / "README.md").read_text().split(
        "### Keys each command reads", 1)[1].split("\n#", 1)[0]
    header, _, *rows = [line for line in section.splitlines()
                        if line.startswith("|")]
    sections = [cell.strip(" []`") for cell in header.split("|")[2:-1]]
    documented = {}
    for row in rows:
        command, *cells = [cell.strip() for cell in row.split("|")[1:-1]]
        documented[command.strip("`")] = {
            f"{section}.{key}" for section, cell in zip(sections, cells)
            for key in cell.replace("`", "").split()}
    assert documented == COMMAND_KEYS


def _refuse(constant):
    raise ValueError(f"non-standard JSON constant {constant}")


@pytest.mark.parametrize("argv, where, text", [
    (["classify", "--theta", "2.17 K", "--delta-L", "2e-11", "--lambda-q", "inf"],
     ("config", "experiment", "lambda_q_override"), "inf"),
    # a zero-force tail fits an exponent of -inf
    (["lambda-q", "--set", "experiment.family=log_f", *TAIL_GRID],
     ("results", "fitted_exponent"), "-inf"),
], ids=["lambda-q-override-inf", "fitted-exponent-minus-inf"])
def test_records_with_infinities_are_strict_json(tmp_path, capsys, argv, where,
                                                 text):
    # a non-finite number is written as text that float() reads back
    path = tmp_path / "record.json"
    assert run([*argv, "--json", str(path)], capsys)[0] == 0
    value = json.loads(path.read_text(), parse_constant=_refuse)
    for key in where:
        value = value[key]
    assert value == text and math.isinf(float(value))


def as_setting(value) -> str:
    """A record's config value as the text of its --set."""
    if value is None:
        return "none"
    if isinstance(value, bool):
        return str(value).lower()
    return repr(value) if isinstance(value, float) else str(value)


# one run of each command, with non-default values where it has them
RERUN_ARGVS = [
    ["simulate", *FAST_SIM, "--seed", "3", "--set",
     "integrator.scheme=stochastic_quantum", "--theta", "2.17 K",
     "--set", "noise.mobility_mu=1e22", "--csv", "{tmp}/run.csv"],
    ["lambda-c", "--theta", "2.17 K", "--mass", "1 u"],
    SCALAR_COMMANDS["lambda-q"],
    ["classify", "--theta", "2.17 K", "--delta-L", "2e-11", "--lambda-q", "inf",
     "--decay-h", "1.2"],
    ["case", "lindemann", "--mass", "4.0026 u"],
    ["case", "helium", "--set", "material.depth_factor=0.8"],
    [*SMALL_AUDIT, "--seed", "5", "--set", "experiment.samples=64"],
]


@pytest.mark.parametrize("argv", RERUN_ARGVS, ids=[
    " ".join(argv[:2]) if argv[0] == "case" else argv[0] for argv in RERUN_ARGVS])
def test_a_record_reruns_from_itself(tmp_path, capsys, argv):
    # the config block's command, plus one --set per key it records, is
    # the run again: the same results and the same hash
    argv = [arg.replace("{tmp}", str(tmp_path)) for arg in argv]
    first, again = tmp_path / "first.json", tmp_path / "again.json"
    assert run([*argv, "--json", str(first)], capsys)[0] == 0
    record = json.loads(first.read_text(), parse_constant=_refuse)
    config = dict(record["config"])
    rerun = config.pop("command").split()
    config["output"] = {**config["output"], "json": str(again)}
    for section, values in config.items():
        for key, value in values.items():
            rerun += ["--set", f"{section}.{key}={as_setting(value)}"]
    assert run(rerun, capsys)[0] == 0
    repeat = json.loads(again.read_text(), parse_constant=_refuse)
    assert repeat["results"] == record["results"]
    assert (repeat["provenance"]["config_sha256_16"]
            == record["provenance"]["config_sha256_16"])


def test_an_unread_file_key_leaves_the_hash(tmp_path, capsys):
    # one file serves every command: a lambda-c record holds the keys
    # lambda-c reads, so a grid key in its file does not move its hash
    records = []
    for n_points in (401, 801):
        ini, path = tmp_path / f"{n_points}.ini", tmp_path / f"{n_points}.json"
        ini.write_text(f"[noise]\ntheta = 2.17 K\n[grid]\nn_points = {n_points}\n")
        assert run(["--config", str(ini), "lambda-c", "--json", str(path)],
                   capsys) == (0, LAMBDA_C_LINE, "")
        records.append(json.loads(path.read_text()))
    assert "grid" not in records[0]["config"]
    assert (records[0]["provenance"]["config_sha256_16"]
            == records[1]["provenance"]["config_sha256_16"])
