"""Reference values and output checks for the benchmark workloads.

The references come from the acceptance suite (tests/test_acceptance.py)
and from the values the CLI printed when the benchmark was defined.  The
physics needed to check an output (the free-packet width law, the noise
amplitude and the sampling error of a covariance estimate) is written out
here from the formulas, independently of the qhydro code under test.
"""

import csv
import io
import math
import re

import numpy as np

HBAR = 1.054571817e-34           # J s, CODATA 2018
K_B = 1.380649e-23               # J / K, exact SI
HE4_MASS = 6.6465e-27            # kg, the he4 material preset
SIGMA0 = 1.0e-10                 # m, criterion-4 initial packet width

WIDTH_LAW_TOLERANCE = 0.01       # criterion 4: width law within 1 %
NORM_TOLERANCE = 1e-9            # conservative schemes keep the norm to roundoff
# |z| beyond this is not sampling noise: with three lags per audit the
# chance of a false failure is below 2e-6 per audit
AUDIT_Z_LIMIT = 5.0

SCALAR_COMMANDS = {
    "lambda-c": ("lambda-c", "--theta", "2.17 K"),
    "classify": ("classify", "--theta", "2.17 K", "--delta-L", "2e-11",
                 "--lambda-q", "inf"),
    "lambda-q": ("lambda-q", "--set", "experiment.family=power_f",
                 "--set", "experiment.family_g=1.4",
                 "--set", "grid.q_max=3e6 m", "--set", "grid.n_points=120001",
                 "--set", "noise.lambda_c=2.0 m"),
    "case-lindemann": ("case", "lindemann"),
    "case-helium": ("case", "helium"),
}

_NUMBER = r"[-+0-9.eE]+"
SCALAR_PATTERNS = {
    "lambda-c": re.compile(rf"^lambda_c = (?P<value>{_NUMBER}) m$", re.M),
    "classify": re.compile(r"^regime = (?P<regime>\w+)$", re.M),
    "lambda-q": re.compile(
        rf"^lambda_q = (?P<value>{_NUMBER}) m \((?P<label>\w+), exponent ", re.M),
    "case-lindemann": re.compile(
        rf"^lindemann: lambda_q / r_0 = (?P<ratio>{_NUMBER}) "
        rf"\(band [^:]*: (?P<band>\w+)\)$", re.M),
    "case-helium": re.compile(
        rf"^helium: theta\* = (?P<theta>{_NUMBER}) K .*"
        rf"E0 = (?P<e0>{_NUMBER}) kB$", re.M),
}

# field -> exact string, or (reference value, relative tolerance).  The
# tolerances are the printed precision, except lambda_q / r_0, which the
# acceptance suite holds to +-0.001.
SCALAR_REFERENCES = {
    "lambda-c": {"value": (3.289826e-10, 1e-6)},
    "classify": {"regime": "nonlocal_deterministic"},
    "lambda-q": {"value": (4.317784e3, 1e-6),
                 "label": "asymptotically_vanishing"},
    "case-lindemann": {"ratio": (0.23570, 0.001 / 0.23570), "band": "inside"},
    "case-helium": {"theta": (2.4757, 1e-4), "e0": (-5.1557, 1e-4)},
}

STOCHASTIC_ARGS = ("simulate",
                   "--set", "integrator.scheme=stochastic_quantum",
                   "--set", "noise.theta=2.17 K",
                   "--set", "noise.mobility_mu=1e22")
STOCHASTIC_T_END = 1e-13         # s, CLI default
STOCHASTIC_ROWS = 101            # 1,000 steps at output stride 10, plus t = 0
CSV_HEADER = "time,norm,mean_q,variance,E_kin,E_pot,E_qu"

AUDIT_ARGS = ("noise-audit", "--theta", "2.17 K",
              "--set", "noise.conserving=false")
AUDIT_SAMPLES = 10000
AUDIT_THETA = 2.17               # K
AUDIT_LAMBDA_C = 3.289826e-10    # m, lambda_c at 2.17 K, as printed
AUDIT_LAG_FACTORS = (0.0, 1.0, 2.0)


def width_law_error(snapshots, tau: float) -> float:
    """Worst |sigma^2(t) / (sigma0^2 (1 + (t/tau)^2)) - 1| over the snapshots."""
    worst = 0.0
    for snap in snapshots:
        expected = SIGMA0**2 * (1.0 + (snap.time / tau) ** 2)
        worst = max(worst, abs(snap.variance / expected - 1.0))
    return worst


def check_stochastic(record: dict, csv_bytes: bytes, noiseless_variance: float,
                     seed: int) -> str | None:
    """Why a stochastic simulate output is wrong, or None when it is right."""
    results = record["results"]
    if record["provenance"]["seed"] != seed:
        return f"summary records seed {record['provenance']['seed']}, not {seed}"
    if abs(results["final_time_s"] - STOCHASTIC_T_END) > 1e-9 * STOCHASTIC_T_END:
        return f"stopped at t = {results['final_time_s']:.6e} s"
    if not abs(results["final_norm"] - 1.0) <= NORM_TOLERANCE:
        return f"norm {results['final_norm']!r} is not 1"
    rows = list(csv.reader(io.StringIO(csv_bytes.decode())))
    if not rows or ",".join(rows[0]) != CSV_HEADER:
        return "CSV header differs"
    if len(rows) - 1 != STOCHASTIC_ROWS:
        return f"CSV has {len(rows) - 1} rows, expected {STOCHASTIC_ROWS}"
    width = len(rows[0])
    try:
        table = np.array([[float(x) for x in row] for row in rows[1:]
                          if len(row) == width])
    except ValueError:
        return "CSV holds a value that is not a number"
    if len(table) != STOCHASTIC_ROWS or not np.all(np.isfinite(table)):
        return "CSV has a short row or a non-finite value"
    if not np.all(np.diff(table[:, 0]) > 0):
        return "CSV times do not increase"
    if table[-1, 3] != results["final_variance_m2"]:
        return "CSV and summary disagree on the final variance"
    if results["final_variance_m2"] == noiseless_variance:
        return "final variance equals the noiseless value: the noise did nothing"
    return None


def noise_amplitude(theta: float, mass: float, mobility_mu: float = 1.0) -> float:
    """A = mu 8 m (k_B Theta)^2 / (pi^3 hbar^2)."""
    return mobility_mu * 8.0 * mass * (K_B * theta) ** 2 / (math.pi**3 * HBAR**2)


def covariance_standard_error(amplitude: float, lambda_c: float, spacing: float,
                              n_points: int, lag: int, fields: int) -> float:
    """Sampling standard error of the audit's lag-``lag`` covariance estimate.

    The estimate averages x_i x_{i+k} over P = N - k positions and F
    independent zero-mean Gaussian fields.  By Isserlis' theorem the
    variance of one field's average is

        (1/P^2) sum_{|d|<P} (P - |d|) [C(d)^2 + C(d + k) C(d - k)],

    with C(d) = A exp(-(d h / lambda_c)^2) for every |d| < N (the circulant
    embedding of length 2N reproduces C exactly there); the estimate's
    variance is that over F.
    """
    p = n_points - lag
    d = np.arange(-(p - 1), p)

    def cov(cells):
        return amplitude * np.exp(-((cells * spacing / lambda_c) ** 2))

    terms = (p - np.abs(d)) * (cov(d) ** 2 + cov(d + lag) * cov(d - lag))
    return math.sqrt(float(np.sum(terms)) / p**2 / fields)


def check_audit(record: dict) -> tuple[float, str | None]:
    """(worst |z| over the lags, why the audit is wrong or None)."""
    results = record["results"]
    grid = record["config"]["grid"]
    if results["samples"] != AUDIT_SAMPLES:
        return math.inf, f"{results['samples']} samples, expected {AUDIT_SAMPLES}"
    if results["conserving"]:
        return math.inf, "audit ran the conserving projection"
    lam_c = results["lambda_c_m"]
    if not abs(lam_c / AUDIT_LAMBDA_C - 1.0) <= 1e-6:
        return math.inf, f"lambda_c = {lam_c!r}, reference {AUDIT_LAMBDA_C}"
    amplitude = noise_amplitude(AUDIT_THETA, HE4_MASS)
    if not abs(results["amplitude"] / amplitude - 1.0) <= 1e-9:
        return math.inf, (f"amplitude {results['amplitude']!r}, "
                          f"reference {amplitude!r}")
    n = grid["n_points"]
    h = (grid["q_max"] - grid["q_min"]) / (n - 1)
    rows = results["covariance"]
    if [row["lag_over_lambda_c"] for row in rows] != list(AUDIT_LAG_FACTORS):
        return math.inf, "covariance rows are not the lags 0, 1, 2 lambda_c"
    worst = 0.0
    for row in rows:
        lag = int(round(row["lag_m"] / h))
        target = amplitude * math.exp(-((lag * h / lam_c) ** 2))
        if not abs(row["target"] / target - 1.0) <= 1e-9:
            return math.inf, (f"target covariance {row['target']!r} at lag "
                              f"{lag}, reference {target!r}")
        se = covariance_standard_error(amplitude, lam_c, h, n, lag,
                                       results["samples"])
        z = (row["empirical"] - target) / se
        worst = max(worst, abs(z))
        if not abs(z) <= AUDIT_Z_LIMIT:
            return worst, (f"covariance at lag {row['lag_over_lambda_c']} "
                           f"lambda_c is {z:+.2f} standard errors off")
    return worst, None
