"""End-to-end acceptance gate.

Each test covers one headline capability, prints a single PASS/FAIL line
to the terminal (bypassing capture), and then asserts.  The unit suites
exercise the fine-grained contracts; this file checks the quantitative
targets at their stated tolerances.
"""

import math
import time

import numpy as np
import pytest

from qhydro import cases
from qhydro.cli import main as cli_main
from qhydro.constants import HBAR, K_B
from qhydro.dynamics import (
    DETERMINISTIC_QUANTUM,
    IntegratorConfig,
    cfl_limit,
    initial_state,
    run,
)
from qhydro.grids import Field, Grid
from qhydro.noise import NoiseModel, RandomStream, covariance, sample_fields
from qhydro.potentials import (
    MaterialParams,
    PseudoGaussianFamily,
    harmonic_ground_density,
    harmonic_potential,
    helium_preset,
    lj_harmonic,
    pseudo_gaussian_log_density,
    square_well_solve,
)
from qhydro.qpotential import growth_exponent, quantum_force_from_log, quantum_potential
from qhydro.scales import convergence_test, correlation_length

HE = helium_preset()


@pytest.fixture
def emit(capsys):
    start = time.perf_counter()

    def _emit(ok: bool, number: int, detail: str) -> bool:
        elapsed = time.perf_counter() - start
        with capsys.disabled():
            print(f"{'PASS' if ok else 'FAIL'} criterion {number}: {detail} "
                  f"[{elapsed:.1f} s]")
        return ok

    return _emit


def test_criterion_1_lindemann_ratio(emit):
    reports = [cases.lindemann(HE)]
    for depth, mass in ((1e-23, 1e-27), (1e-19, 1e-25), (1e-21, 1e-26)):
        params = MaterialParams(mass=mass, well_depth=depth, r_0=4e-10)
        reports.append(cases.lindemann(params))
    ratios = [r.lambda_q_over_r0 for r in reports]
    worst = max(abs(r - 0.23570) for r in ratios)
    ok = worst <= 0.001 and all(r.within_empirical_band for r in reports)
    assert emit(ok, 1,
                f"lambda_q/r_0 = {ratios[0]:.5f} (target 0.23570 +- 0.001, "
                f"worst deviation {worst:.1e} across 4 materials, inside "
                f"band [0.20, 0.25])")


def test_criterion_2_lambda_point_temperature(emit):
    report = cases.helium_lambda(HE)
    forward = correlation_length(HE.mass, report.theta_star_K)
    forward_rel = abs(forward - report.two_delta_m) / report.two_delta_m
    ok = (2.0 <= report.theta_star_K <= 2.6 and forward_rel < 1e-6
          and report.reference_theta_K == 2.17)
    assert emit(ok, 2,
                f"theta* = {report.theta_star_K:.4f} K in [2.0, 2.6] K "
                f"(reference {report.reference_theta_K} K juxtaposed, forward "
                f"residual {forward_rel:.1e})")


def test_criterion_3_bound_state(emit):
    state = square_well_solve(HE)
    e0_kb = state.E_0 / K_B
    rel = abs(e0_kb - (-5.19)) / 5.19
    ok = rel <= 0.10 and state.matching_residual < 1e-10
    assert emit(ok, 3,
                f"E0 = {e0_kb:.4f} kB ({100 * rel:.1f}% from -5.19 kB, "
                f"matching residual {state.matching_residual:.1e})")


def test_criterion_4_free_gaussian_spreading(emit):
    mass = HE.mass
    sigma0 = 1.0e-10
    grid = Grid(-1.5e-9, 1.5e-9, 601)
    q = grid.points
    n = np.exp(-(q**2) / (2.0 * sigma0**2))
    n /= np.trapezoid(n, dx=grid.spacing)
    state = initial_state(Field(grid, n, "1/m"))
    tau = 2.0 * mass * sigma0**2 / HBAR
    t_end = math.sqrt(3.0) * tau          # width exactly doubles here
    dt = 0.98 * cfl_limit(mass, grid.spacing)
    steps = int(round(t_end / dt))
    cfg = IntegratorConfig(dt=dt, scheme=DETERMINISTIC_QUANTUM)
    potential = Field(grid, np.zeros(grid.n_points), "J")
    traj = run(state, potential, mass, None, cfg, t_end, output_stride=100)
    worst = 0.0
    for snap in traj.snapshots:
        expected = sigma0**2 * (1.0 + (snap.time / tau) ** 2)
        worst = max(worst, abs(snap.variance / expected - 1.0))
    final_ratio = math.sqrt(traj.snapshots[-1].variance) / sigma0
    ok = traj.completed and steps >= 500 and worst <= 0.01
    assert emit(ok, 4,
                f"free-packet width law within {100 * worst:.2f}% over "
                f"{steps} steps (final sigma/sigma0 = {final_ratio:.4f}, "
                f"target 2)")


def test_criterion_5_eigenstate_stationarity(emit):
    mass = HE.mass
    approx = lj_harmonic(HE)
    half_span = 5.0 / approx.K_0
    grid = Grid(approx.q_bar - half_span, approx.q_bar + half_span, 601)
    density = harmonic_ground_density(approx, grid)
    potential = harmonic_potential(approx, grid, HE.well_depth)

    # V + V_qu must be flat over the core of the ground state
    vqu = quantum_potential(density, mass)
    total = potential.values + vqu.values
    core = np.abs(grid.points - approx.q_bar) <= 1.0 / approx.K_0
    flatness = float(np.ptp(total[core]) / abs(np.mean(total[core])))

    period = 2.0 * math.pi / math.sqrt(approx.k / mass)
    dt = 0.98 * cfl_limit(mass, grid.spacing)
    cfg = IntegratorConfig(dt=dt, scheme=DETERMINISTIC_QUANTUM)
    initial = initial_state(density)
    traj = run(initial, potential, mass, None, cfg, period,
               output_stride=10**9)
    n0 = initial.y[0]
    n1 = traj.final_state.y[0]
    drift = float(np.linalg.norm(n1 - n0) / np.linalg.norm(n0))
    ok = traj.completed and drift < 1e-3 and flatness < 0.01
    assert emit(ok, 5,
                f"ground-state L2 drift {drift:.2e} per period (< 1e-3), "
                f"V + V_qu flat to {100 * flatness:.2f}% over the core")


def test_criterion_6_noise_covariance(emit):
    theta = 2.17
    lam_c = correlation_length(HE.mass, theta)
    model = NoiseModel(theta=theta, lambda_c=lam_c, mass=HE.mass,
                       conserving=False)
    grid = Grid(0.0, 150.0 * lam_c, 1024)
    h = grid.spacing
    lags = [int(round(f * lam_c / h)) for f in (0.0, 1.0, 2.0)]

    stream = RandomStream(12345)
    rng = stream.generator()
    total = 50000
    batch = 5000
    sums = np.zeros(len(lags))
    counts = np.zeros(len(lags))
    for _ in range(total // batch):
        samples = sample_fields(model, grid, stream, batch, rng=rng)
        for i, k in enumerate(lags):
            if k == 0:
                sums[i] += float(np.sum(samples * samples))
                counts[i] += samples.size
            else:
                sums[i] += float(np.sum(samples[:, :-k] * samples[:, k:]))
                counts[i] += samples[:, k:].size
    worst = 0.0
    for i, k in enumerate(lags):
        target = covariance(model, k * h)
        worst = max(worst, abs(sums[i] / counts[i] - target) / target)

    # amplitude must scale as Theta^2: compare empirical variances at
    # fixed lambda_c for two temperatures
    hot = NoiseModel(theta=2.0 * theta, lambda_c=lam_c, mass=HE.mass,
                     conserving=False)
    var_cold = float(np.mean(sample_fields(model, grid, RandomStream(7), batch)**2))
    var_hot = float(np.mean(sample_fields(hot, grid, RandomStream(8), batch)**2))
    scaling_err = abs(var_hot / var_cold - 4.0) / 4.0
    ok = worst <= 0.05 and scaling_err <= 0.05
    assert emit(ok, 6,
                f"covariance at lags (0, lambda_c, 2 lambda_c) within "
                f"{100 * worst:.2f}% over {total} fields, Theta^2 amplitude "
                f"scaling within {100 * scaling_err:.2f}%")


def test_criterion_7_taxonomy_classifier(emit):
    mass = HE.mass
    plan = [
        (1.0, 1.2e6, "asymptotically_vanishing", True),
        (1.4, 3.0e6, "asymptotically_vanishing", True),
        (2.0, 3.0e6, "ballistic", False),
    ]
    rows = []
    ok = True
    for g, r_max, label, converges in plan:
        fam = PseudoGaussianFamily(family="power_f", core_width=1.0,
                                   lam=40.0, g=g)
        grid = Grid(0.0, r_max, 120001)
        profile = quantum_force_from_log(
            pseudo_gaussian_log_density(fam, grid), mass, 0.0)
        decay = growth_exponent(profile)
        # the symbolic leading exponent of power_f's tail force, 2g - 3
        # (r^-3 at g = 1, where that term vanishes), less 1 for q^-1 F
        target = (-3.0 if g == 1.0 else 2.0 * g - 3.0) - 1.0
        dev = abs(decay.fitted_exponent - target)
        ok = ok and (dev <= 0.15 and decay.label == label
                     and convergence_test(decay) is converges)
        rows.append(f"g={g}: fit {decay.fitted_exponent:+.3f} vs symbolic "
                    f"{target:+.1f} -> {decay.label}")
    assert emit(ok, 7, "; ".join(rows))


def test_criterion_8_conservation_and_determinism(emit, tmp_path, capsys):
    mass = HE.mass
    sigma0 = 1.5e-10
    grid = Grid(-1.5e-9, 1.5e-9, 401)
    q = grid.points
    n = np.exp(-(q**2) / (2.0 * sigma0**2))
    n /= np.trapezoid(n, dx=grid.spacing)
    # 1000 steps of 0.98 x 0.4 m h^2/hbar, the span this check was set on:
    # 1000 steps at the derived bound would run past t = 1083 m h^2/hbar,
    # where this packet aborts on negative density in a zero-flux wall
    # cell at every dt tried (0.2 to 2.0 m h^2/hbar)
    dt = 0.98 * (0.4 * mass * grid.spacing**2 / HBAR)
    cfg = IntegratorConfig(dt=dt, scheme=DETERMINISTIC_QUANTUM)
    potential = Field(grid, np.zeros(grid.n_points), "J")
    traj = run(initial_state(Field(grid, n, "1/m")), potential, mass, None,
               cfg, 1000 * dt, output_stride=1000)
    norm_err = abs(traj.snapshots[-1].norm - 1.0)

    # at mu = 1e22 the noise moves the CSV, so a repeat tests the noise's
    # determinism and another seed must write a different CSV; at the
    # default mu = 1 every kick is below float resolution
    args = ["simulate",
            "--set", "grid.n_points=201",
            "--set", "integrator.t_end=2e-15",
            "--set", "integrator.scheme=stochastic_quantum",
            "--set", "noise.theta=2.17 K",
            "--set", "noise.mobility_mu=1e22"]
    runs = {"a": "2024", "b": "2024", "other": "2025"}
    for name, seed in runs.items():
        path = tmp_path / f"{name}.csv"
        assert cli_main([*args, "--seed", seed, "--csv", str(path)]) == 0
    capsys.readouterr()
    a, b, other = ((tmp_path / f"{name}.csv").read_bytes() for name in runs)
    identical = a == b
    seed_matters = a != other
    ok = traj.completed and norm_err <= 1e-6 and identical and seed_matters
    assert emit(ok, 8,
                f"norm error {norm_err:.2e} after 1000 deterministic steps, "
                f"repeated seeded run CSV byte-identical: {identical}, "
                f"another seed's CSV differs: {seed_matters}")
