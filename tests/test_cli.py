import ast
import json
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
from qhydro import cli
from qhydro.cli import _build_parser, _lag_means, _load, main
from qhydro.config import ExperimentConfig, apply_overrides
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

FAST_SIM = [
    "--set", "grid.n_points=201",
    "--set", "grid.q_min=-1.0 nm",
    "--set", "grid.q_max=1.0 nm",
    "--set", "integrator.t_end=2e-15",
    "--set", "integrator.dt=1e-16",
    "--set", "experiment.initial_width=0.15 nm",
]


def run(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_lambda_c_line(capsys):
    code, out, _ = run(["lambda-c", "--theta", "2.17 K"], capsys)
    assert code == 0
    assert "lambda_c = 3.2898" in out


def test_lambda_c_zero_theta_infinite(capsys):
    code, out, _ = run(["lambda-c", "--theta", "0"], capsys)
    assert code == 0
    assert "infinite" in out


def test_global_flags_after_subcommand(capsys):
    before = run(["--set", "noise.theta=2.17 K", "lambda-c"], capsys)
    after = run(["lambda-c", "--set", "noise.theta=2.17 K"], capsys)
    assert before == after


def test_set_on_both_levels_joins_in_order(capsys):
    # argparse copies the subcommand's namespace over the top level's, so
    # one shared --set list would lose what was parsed before the subcommand
    code, out, _ = run(["--set", "noise.theta=3 K", "lambda-c",
                        "--set", "material.mass=4.0026 u"], capsys)
    assert (code, out) == (0, "lambda_c = 2.797970e-10 m\n")
    both = _config(["--set", "noise.theta=3 K", "lambda-c",
                    "--set", "material.mass=6e-27"])
    assert both == _config(["lambda-c", "--set", "noise.theta=3 K",
                            "--set", "material.mass=6e-27"])
    # the top level comes first, so the subcommand's value wins
    assert _config(["--set", "noise.theta=3 K", "lambda-c",
                    "--set", "noise.theta=1 K"]).noise.theta == 1.0


# command, flag, config key, value, another value
SHORTHAND_FLAGS = [
    ("lambda-c", "--seed", "experiment.seed", "7", "8"),
    ("lambda-c", "--csv", "output.csv", "a.csv", "b.csv"),
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
    (["lambda-c", "--seed"], "experiment.seed"),
    (["classify", "--delta-L", "2e-11", "--decay-h"], "experiment.decay_h"),
])
def test_malformed_shorthand_flag_fails_as_its_set_form(argv, key, capsys):
    via_flag = run([*argv, "abc"], capsys)
    via_set = run([*argv[:-1], "--set", f"{key}=abc"], capsys)
    assert via_flag == via_set
    assert via_flag[0] == 1
    assert f"error: bad value for {key}" in via_flag[2]


@pytest.mark.parametrize("argv, message", [
    (["--theta", "inf"], "noise.theta: 'inf' is not finite"),
    (["--theta", "abc"], "noise.theta: malformed number in 'abc'"),
    (["--set", "grid.q_max="], "grid.q_max: malformed number in ''"),
])
def test_bare_quantity_names_its_fault(argv, message, capsys):
    # a lone word is a malformed number, not an unknown unit, and a lone
    # float() token ("inf") is a number with no unit
    code, out, err = run(["lambda-c", *argv], capsys)
    assert (code, out) == (1, "")
    assert err == f"error: bad value for {message}\n"


def test_validation_exit_code(capsys):
    code, _, err = run(["classify"], capsys)   # missing --delta-L
    assert code == 1
    assert "delta" in err.lower()


@pytest.mark.parametrize("command", [
    ["lambda-c", "--theta", "2.17 K"],
    ["case", "helium"],
])
def test_non_finite_grid_bound_rejected(command, capsys):
    # every subcommand validates the grid, also those that never build it
    code, _, err = run([*command, "--set", "grid.q_max=1e999"], capsys)
    assert code == 1
    assert "finite" in err


@pytest.mark.parametrize("argv, key", [
    (["lambda-c", "--theta", "1e999"], "noise.theta"),
    (["noise-audit", "--theta", "2.17 K", "--set", "noise.mobility_mu=nan",
      "--set", "experiment.samples=10"], "noise.mobility_mu"),
    (["classify", "--delta-L", "2e-11", "--decay-h", "nan"],
     "experiment.decay_h"),
    (["simulate", "--set", "integrator.t_end=1e999"], "integrator.t_end"),
])
def test_non_finite_value_named(argv, key, capsys):
    code, out, err = run(argv, capsys)
    assert code == 1
    assert out == ""
    assert err.startswith(f"error: bad value for {key}: ")
    assert err.count("\n") == 1 and "is not finite" in err


def test_numerical_exit_code(capsys):
    # dt far above the CFL limit for this grid
    code, _, err = run(
        ["simulate", *FAST_SIM, "--set", "integrator.dt=1e-12"], capsys)
    assert code == 2
    assert "numerical failure" in err


@pytest.mark.parametrize("velocity", ["1e60", "1e80", "1e100", "1e150",
                                      "1e160", "1e200", "1e300"])
def test_diverging_run_is_one_named_line(velocity, capsys):
    # the first step overflows: from 1e60 m/s a stage's peak density passes
    # 1e162 1/m, where a float's square of the taper level would raise
    # OverflowError, and the ufuncs overflow before the step's scan names it
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(["simulate",
                              "--set", f"experiment.initial_velocity={velocity}",
                              "--set", "integrator.t_end=1e-15 s"], capsys)
    assert (code, out) == (2, "")
    assert re.fullmatch(r"numerical failure: run aborted: non-finite "
                        r"(density|velocity) after step at t = 0\.000e\+00 s\n",
                        err)


def test_step_inside_derived_bound_runs(capsys):
    # on the default grid 1e-15 s lies above 0.4 m h^2/hbar = 6.3e-16 s,
    # the bound before it was derived, and inside the derived 2.3e-15 s
    code, _, err = run(["simulate", "--set", "integrator.dt=1e-15",
                        "--set", "integrator.t_end=2e-15"], capsys)
    assert code == 0, err


def test_classify_line(capsys):
    code, out, _ = run(
        ["classify", "--theta", "2.17 K", "--delta-L", "2e-11",
         "--lambda-q", "inf", "--decay-h", "1.2"], capsys)
    assert code == 0
    assert "regime = nonlocal_deterministic" in out
    assert "decay class = asymptotically_vanishing" in out


def test_case_lindemann_json(tmp_path, capsys):
    path = tmp_path / "lind.json"
    code, out, _ = run(["case", "lindemann", "--json", str(path)], capsys)
    assert code == 0
    assert "lambda_q / r_0 = 0.23570" in out
    record = json.loads(path.read_text())
    assert record["results"]["lambda_q_over_r0"] == pytest.approx(
        0.23570, abs=1e-4)
    assert record["provenance"]["package"] == "qhydro"


def test_case_helium_line(capsys):
    code, out, _ = run(["case", "helium"], capsys)
    assert code == 0
    assert "theta* = 2.4757 K" in out
    assert "E0 = -5.1558 kB" in out


# the README scalar commands, as the CI smoke step runs them
SCALAR_COMMANDS = {
    "lambda-c": ["lambda-c", "--theta", "2.17 K"],
    "case-lindemann": ["case", "lindemann"],
    "case-helium": ["case", "helium"],
    "classify": ["classify", "--theta", "2.17 K", "--delta-L", "2e-11",
                 "--lambda-q", "inf"],
    "lambda-q": ["lambda-q", "--set", "experiment.family=power_f",
                 "--set", "experiment.family_g=1.4", "--set", "grid.q_max=3e6 m",
                 "--set", "grid.n_points=120001", "--set", "noise.lambda_c=2.0 m"],
}
SHORT_STOCHASTIC = ["simulate", "--set", "integrator.scheme=stochastic_quantum",
                    "--set", "noise.theta=2.17 K", "--set", "integrator.t_end=2e-15"]
# modules a cold command must not load unless its row allows them: the
# integrator, the noise generator (whose secrets import loads hashlib) and
# its FFT, the summary writer's hashlib and json, scipy (its import would
# dominate every cold call) and concurrent.futures (the sampler starts no
# thread)
COLD_FORBIDDEN = ("numpy.random", "numpy.fft", "hashlib", "json",
                  "qhydro.dynamics", "scipy", "concurrent.futures")
COLD_ROWS = [
    *((name, [argv], ()) for name, argv in SCALAR_COMMANDS.items()),
    ("case-helium+stochastic-simulate",
     [SCALAR_COMMANDS["case-helium"], SHORT_STOCHASTIC],
     ("qhydro.dynamics", "numpy.random", "numpy.fft", "hashlib")),
    ("lambda-c-json", [[*SCALAR_COMMANDS["lambda-c"], "--json", "{tmp}/lc.json"]],
     ("hashlib", "json")),
    ("simulate-csv-json",
     [["simulate", *FAST_SIM, "--csv", "{tmp}/run.csv", "--json", "{tmp}/run.json"]],
     ("qhydro.dynamics", "hashlib", "json")),
]


@pytest.mark.parametrize("commands, allowed",
                         [row[1:] for row in COLD_ROWS],
                         ids=[row[0] for row in COLD_ROWS])
def test_cold_command_loads_only_what_it_runs(tmp_path, commands, allowed):
    # in a fresh interpreter, each command exits 0 and loads none of the
    # forbidden modules that a bare `import numpy` does not already load
    src = str(Path(qhydro.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    argvs = [[arg.replace("{tmp}", str(tmp_path)) for arg in argv]
             for argv in commands]
    forbidden = [m for m in COLD_FORBIDDEN if m not in allowed]
    code = ("import sys\n"
            "import numpy\n"
            "bare = set(sys.modules)\n"
            "from qhydro.cli import main\n"
            f"for argv in {argvs!r}:\n"
            "    assert main(argv) == 0, argv\n"
            f"forbidden = {forbidden!r}\n"
            "print(sorted(m for m in set(sys.modules) - bare\n"
            "             if any(m == f or m.startswith(f + '.') for f in forbidden)))\n")
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": path})
    assert ast.literal_eval(proc.stdout.splitlines()[-1]) == []
    for out in (a for argv in argvs for a in argv if a.startswith(str(tmp_path))):
        assert Path(out).is_file()
        if out.endswith(".json"):
            record = json.loads(Path(out).read_text())
            digest = record["provenance"]["config_sha256_16"]
            assert re.fullmatch("[0-9a-f]{16}", digest)


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
    """(stream, count, rng, reduced rows) of every cli.sample_fields call."""
    calls = []
    real = cli.sample_fields

    def recording(model, grid, stream, count, rng=None, *, reduce=None):
        assert reduce is not None
        rows = real(model, grid, stream, count, rng, reduce=reduce)
        calls.append((stream, count, rng, rows.copy()))
        return rows

    monkeypatch.setattr(cli, "sample_fields", recording)
    return calls


@pytest.mark.parametrize("conserving", [False, True])
# one chunk, and batches whose last chunk has 31, 32, 1 and 3 rows
@pytest.mark.parametrize("samples", [1, 1023, 1024, 1025, 2051])
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
        if samples == 1:
            assert row["standard_error"] is None and row["z_score"] is None
        else:
            per_field = np.mean(products, axis=1)
            se = float(np.std(per_field, ddof=1)) / np.sqrt(samples)
            assert row["standard_error"] == pytest.approx(se, rel=1e-9)
            assert row["z_score"] == pytest.approx(
                (row["empirical"] - row["target"]) / se, rel=1e-9)
    z_scores = [row["z_score"] for row in results["covariance"]]
    if samples == 1:
        assert results["worst_abs_z"] is None
        assert out.endswith(", worst |z| n/a\n")
    else:
        assert results["worst_abs_z"] == max(abs(z) for z in z_scores)
        assert out.endswith(f", worst |z| {results['worst_abs_z']:.2f}\n")
    assert out.startswith(
        f"noise-audit: worst covariance error "
        f"{results['worst_relative_error']:.3%} over {samples} samples")


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


def test_lambda_q_finite_family(capsys):
    code, out, _ = run(
        ["lambda-q",
         "--set", "experiment.family=power_f",
         "--set", "experiment.family_g=1.4",
         "--set", "experiment.core_width=1.0 m",
         "--set", "experiment.tail_scale=40.0 m",
         "--set", "grid.q_min=0 m",
         "--set", "grid.q_max=3e6 m",
         "--set", "grid.n_points=120001",
         "--set", "noise.lambda_c=2.0 m"], capsys)
    assert code == 0
    assert "lambda_q = " in out
    assert "asymptotically_vanishing" in out


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


# lambda_c = 1e-11 m is below twice the 1e-11 m spacing of FAST_SIM
UNDER_RESOLVED_NOISE = ["simulate", *FAST_SIM,
                        "--set", "integrator.scheme=stochastic_quantum",
                        "--set", "noise.lambda_c=1e-11 m"]


def test_silent_noise_draws_nothing(tmp_path, capsys):
    # at theta = 0 the noise amplitude is zero, so the stochastic run never
    # samples the under-resolved kernel and equals the deterministic run
    paths = [tmp_path / "stochastic.csv", tmp_path / "deterministic.csv"]
    code, _, err = run([*UNDER_RESOLVED_NOISE, "--csv", str(paths[0])], capsys)
    assert code == 0, err
    code, _, err = run(["simulate", *FAST_SIM, "--csv", str(paths[1])], capsys)
    assert code == 0, err
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_under_resolved_noise_kernel_rejected(capsys):
    code, _, err = run([*UNDER_RESOLVED_NOISE, "--set", "noise.theta=2.17 K"],
                       capsys)
    assert code == 1
    assert "under-resolved kernel" in err


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


def test_overflowing_amplitude_named(capsys):
    # mu = 1e308 overflows the noise amplitude, which the config rejects
    # before any step is taken
    code, out, err = run(["simulate", *FAST_SIM,
                          "--set", "integrator.scheme=stochastic_quantum",
                          "--set", "noise.theta=2.17 K",
                          "--set", "noise.mobility_mu=1e308"], capsys)
    assert (code, out) == (1, "")
    assert err == ("error: noise amplitude overflows at theta = 2.17 K and "
                   "mobility_mu = 1e+308\n")


def test_overflowing_theta_named(capsys):
    # (k_B theta)^2 overflows; every command validates the amplitude
    code, out, err = run(["lambda-c", "--theta", "1e200 K"], capsys)
    assert (code, out) == (1, "")
    assert err == ("error: noise amplitude overflows at theta = 1e+200 K and "
                   "mobility_mu = 1\n")


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


@pytest.mark.parametrize("key, value", [
    ("integrator.scheme", "bogus"),
    ("integrator.boundary", "wall"),
])
def test_bad_integrator_value_rejected_by_every_command(key, value, capsys):
    # the integrator settings check themselves when the config loads, so a
    # command that never integrates rejects them too
    code, out, err = run(["lambda-c", "--theta", "2.17 K",
                          "--set", f"{key}={value}"], capsys)
    assert (code, out) == (1, "")
    assert err.startswith(f"error: {key} must ")


def test_density_floor_is_not_a_config_key(capsys):
    # the floor under V_qu is one qpotential constant, shared by the
    # integrator and quantum_potential
    code, out, err = run(["lambda-c", "--set", "integrator.density_floor=1e-12"],
                         capsys)
    assert (code, out) == (1, "")
    assert err == "error: unknown key 'density_floor' in section [integrator]\n"


def test_cfl_safety_is_not_a_config_key(capsys):
    # the step bound's safety fraction is one constant, CFL_SAFETY
    code, out, err = run(["lambda-c", "--set", "integrator.cfl_safety=0.4"],
                         capsys)
    assert (code, out) == (1, "")
    assert err == "error: unknown key 'cfl_safety' in section [integrator]\n"


@pytest.mark.parametrize("command", ["lambda-q", "lambda-c"])
@pytest.mark.parametrize("key", ["experiment.core_width",
                                 "experiment.tail_scale"])
def test_nonpositive_family_length_rejected_at_load(command, key, capsys):
    # core_width is squared, so a negative width would run as its absolute value
    code, out, err = run([command, "--set", f"{key}=-1"], capsys)
    assert (code, out) == (1, "")
    assert err == f"error: {key} must be positive\n"


def test_bad_family_exponent_rejected_at_load(capsys):
    # the family checks its keys when the config loads, so a command that
    # never builds the density rejects them too
    code, out, err = run(["lambda-c", "--theta", "2.17 K",
                          "--set", "experiment.family_g=5"], capsys)
    assert (code, out) == (1, "")
    assert err == "error: experiment.family_g must lie in (0, 2] for power_f\n"


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
    "bound_state": {"E0_over_kB", "K0_per_m", "core_force_scale_N",
                    "lambda_q_over_r0", "matching_residual",
                    "max_force_inside_N", "ordering_ok",
                    "reference_two_delta_over_r0", "two_delta_over_r0",
                    "zero_force_inside"},
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


def test_case_lindemann_ignores_the_grid(capsys):
    # the case study integrates on its own grid, so a coarse [grid] that is
    # valid for the config leaves its line unchanged
    code, out, err = run(["case", "lindemann", "--set", "grid.n_points=9"],
                         capsys)
    assert code == 0, err
    assert out == run(["case", "lindemann"], capsys)[1]


def test_failed_run_leaves_no_summary(tmp_path, capsys):
    json_path = tmp_path / "broken.json"
    code, _, _ = run(
        ["simulate", *FAST_SIM, "--set", "integrator.dt=1e-12",
         "--json", str(json_path)], capsys)
    assert code == 2
    assert not json_path.exists()


def test_empty_trajectory_csv_is_header_only():
    text = trajectory_csv(Trajectory(snapshots=[], final_state=None))
    assert text == ",".join(CSV_COLUMNS) + "\n"


def test_config_hash_tracks_content():
    base = ExperimentConfig()
    assert config_hash(base) == config_hash(ExperimentConfig())
    record = summary_record(base, {"x": 1})
    assert record["provenance"]["config_sha256_16"] == config_hash(base)
    assert len(config_hash(base)) == 16


@pytest.mark.parametrize("key", ["output.csv", "output.json"])
def test_config_hash_ignores_output_paths(key):
    # the same run written to two paths is the same run; its record's
    # config block still records the path
    a = apply_overrides(ExperimentConfig(), {key: "a.out"})
    b = apply_overrides(ExperimentConfig(), {key: "b.out"})
    assert config_hash(a) == config_hash(b) == config_hash(ExperimentConfig())
    section, name = key.split(".")
    assert summary_record(a, {})["config"][section][name] == "a.out"
    finer = apply_overrides(a, {"grid.n_points": "401"})
    assert config_hash(finer) != config_hash(a)


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


def test_provenance_records_versions_and_platform(tmp_path, capsys):
    path = tmp_path / "lc.json"
    code, _, _ = run(["lambda-c", "--theta", "2.17 K", "--json", str(path)],
                     capsys)
    assert code == 0
    provenance = json.loads(path.read_text())["provenance"]
    assert provenance["numpy"] == np.__version__
    assert provenance["python"] == platform.python_version()
    assert provenance["platform"] == platform.platform()
