import math
import warnings

from hypothesis import given, settings, strategies as st
import numpy as np
import pytest

from qhydro import dynamics
from qhydro.constants import CFL_SAFETY, HBAR
from qhydro.dynamics import (
    CLASSICAL_LIMIT,
    FORCE_TAPER_FRACTION,
    NOISE_GATE_KICKS,
    SCHEMES,
    STOCHASTIC_QUANTUM,
    HydroState,
    IntegratorConfig,
    Workspace,
    cfl_limit,
    initial_state,
    observables,
    run,
    step_deterministic,
    step_stochastic,
    _rhs,
)
from qhydro.errors import CflError, StepRejected, ValidationError
from qhydro.grids import Field, Grid, integral
from qhydro.noise import NoiseModel, RandomStream, noise_amplitude, sample_fields
from qhydro.potentials import (
    free_gaussian_density,
    harmonic_ground_density,
    harmonic_potential,
    helium_preset,
    lj_harmonic,
)
from qhydro.qpotential import DENSITY_FLOOR_FRACTION, quantum_potential, vqu_kernel

HE = helium_preset()
MASS = HE.mass


def gaussian_state(grid, sigma, center=0.0, velocity=0.0):
    q = grid.points
    n = np.exp(-((q - center) ** 2) / (2 * sigma**2))
    n /= np.trapezoid(n, dx=grid.spacing)
    v = np.full(grid.n_points, velocity)
    return initial_state(Field(grid, n, "1/m"), Field(grid, v, "m/s"))


def free_setup(n_points=601, half_span=1.5e-9):
    grid = Grid(-half_span, half_span, n_points)
    dt = 0.9 * cfl_limit(MASS, grid.spacing)
    cfg = IntegratorConfig(dt=dt)
    return grid, cfg


def test_cfl_violation_rejected():
    grid, cfg = free_setup()
    bad = IntegratorConfig(dt=10 * cfl_limit(MASS, grid.spacing))
    state = gaussian_state(grid, 1e-10)
    potential = Field(grid, np.zeros(grid.n_points), "J")
    with pytest.raises(CflError):
        step_deterministic(state, potential, MASS, bad)


def test_workspace_checks_the_step_bound():
    grid, _ = free_setup()
    bad = IntegratorConfig(dt=1.01 * cfl_limit(MASS, grid.spacing))
    with pytest.raises(CflError):
        Workspace(grid, Field(grid, np.zeros(grid.n_points), "J"), MASS, bad)


def test_run_checks_the_step_bound_once(monkeypatch):
    grid, cfg = free_setup(n_points=201)
    calls = []
    checked = dynamics.check_cfl

    def counting(*args):
        calls.append(args)
        return checked(*args)

    monkeypatch.setattr(dynamics, "check_cfl", counting)
    state = gaussian_state(grid, 1e-10)
    potential = Field(grid, np.zeros(grid.n_points), "J")
    trajectory = run(state, potential, MASS, None, cfg, 40 * cfg.dt)
    assert trajectory.completed
    assert len(trajectory.snapshots) == 41
    assert len(calls) == 1


def test_run_names_a_missing_stream_then_the_bound_before_a_snapshot(monkeypatch):
    grid, _ = free_setup(n_points=201)
    state = gaussian_state(grid, 1e-10)
    potential = Field(grid, np.zeros(grid.n_points), "J")
    dt = 10 * cfl_limit(MASS, grid.spacing)
    with pytest.raises(ValidationError, match="needs a noise model"):
        run(state, potential, MASS, None,
            IntegratorConfig(dt=dt, scheme=STOCHASTIC_QUANTUM), 4 * dt)
    snapshots = []
    monkeypatch.setattr(dynamics, "observables",
                        lambda *args: snapshots.append(args))
    with pytest.raises(CflError):
        run(state, potential, MASS, None, IntegratorConfig(dt=dt), 4 * dt)
    assert snapshots == []


def test_linearised_spectrum_inside_rk4_stability():
    # numerical Jacobian of the rates [dn, dv] about a uniform periodic
    # state at rest.  Measured: spectral radius 0.76862 hbar/(m h^2)
    # against the bound 4/(3 sqrt 3) = 0.76980 (the maximising k lies
    # between modes at N = 64), max |Re lambda| 7.6e-16 of it, and
    # dt rho = 1.130 at the bound, 2.824 at the unscaled limit against
    # RK4's 2 sqrt 2 = 2.828 on the imaginary axis
    n_points, length = 64, 1e-9
    grid = Grid(0.0, length * (n_points - 1) / n_points, n_points, periodic=True)
    h = grid.spacing
    cfg = IntegratorConfig(dt=cfl_limit(MASS, h))
    workspace = Workspace(grid, Field(grid, np.zeros(n_points), "J"), MASS, cfg)
    x0 = np.concatenate((np.full(n_points, 1.0 / length), np.zeros(n_points)))
    # one relative step for n and 1e-6 m/s for v; v enters the rates at
    # most quadratically about v = 0, which the centred difference cancels
    steps = np.concatenate((np.full(n_points, 1e-6 * x0[0]),
                            np.full(n_points, 1e-6)))

    def rates(x):
        workspace.stage[:] = x.reshape(2, n_points)
        _rhs(workspace, workspace.rates)
        return workspace.k.ravel().copy()

    jacobian = np.empty((2 * n_points, 2 * n_points))
    for j, step in enumerate(steps):
        e = np.zeros(2 * n_points)
        e[j] = step
        jacobian[:, j] = (rates(x0 + e) - rates(x0 - e)) / (2 * step)
    unit = HBAR / (MASS * h**2)
    eigenvalues = np.linalg.eigvals(jacobian) / unit
    rho = float(np.max(np.abs(eigenvalues)))
    assert 0.995 * 4 / (3 * math.sqrt(3)) < rho <= 4 / (3 * math.sqrt(3))
    assert float(np.max(np.abs(eigenvalues.real))) < 1e-12 * rho
    assert cfl_limit(MASS, h) * unit * rho <= 2 * math.sqrt(2)
    assert cfl_limit(MASS, h) / CFL_SAFETY * unit * rho <= 2 * math.sqrt(2)


def test_state_fields_must_share_one_grid():
    grid = Grid(-1e-9, 1e-9, 101)
    state = gaussian_state(grid, 1e-10)
    other = Field(Grid(-1e-9, 1e-9, 121), np.zeros(121), "m/s")
    with pytest.raises(ValidationError, match="share one grid"):
        initial_state(state.density, other)


def test_state_array_checked_and_read_only():
    grid = Grid(-1e-9, 1e-9, 101)
    with pytest.raises(ValidationError, match="2 rows on a 101-point grid"):
        HydroState(0.0, grid, np.zeros((3, 101)))
    y = np.zeros((2, 101))
    y[1, 7] = np.nan
    with pytest.raises(ValidationError, match="field values must be finite"):
        HydroState(0.0, grid, y)
    state = HydroState(0.0, grid, np.ones((2, 101)))
    assert not state.y.flags.writeable
    for field, unit in ((state.density, "1/m"), (state.velocity, "m/s")):
        assert field.unit == unit
        assert np.array_equal(field.values, np.ones(101))


def test_uniform_density_fixed_point():
    grid = Grid(0.0, 1e-9, 128, periodic=True)
    cfg = IntegratorConfig(dt=0.5 * cfl_limit(MASS, grid.spacing))
    n = Field(grid, np.full(128, 1e9), "1/m")
    state = initial_state(n)
    potential = Field(grid, np.zeros(128), "J")
    out = step_deterministic(state, potential, MASS, cfg)
    assert np.allclose(out.density.values, n.values, rtol=1e-12)
    assert np.max(np.abs(out.velocity.values)) < 1e-12


def test_free_gaussian_width_law_short():
    grid, cfg = free_setup()
    sigma0 = 1e-10
    state = gaussian_state(grid, sigma0)
    potential = Field(grid, np.zeros(grid.n_points), "J")
    tau = 2 * MASS * sigma0**2 / HBAR
    steps = 400
    for _ in range(steps):
        state = step_deterministic(state, potential, MASS, cfg)
    t = steps * cfg.dt
    snap = observables(state, potential, MASS, cfg)
    expected_var = sigma0**2 * (1 + (t / tau) ** 2)
    assert math.sqrt(snap.variance) == pytest.approx(
        math.sqrt(expected_var), rel=0.01)


def test_norm_conservation_1000_steps():
    grid, cfg = free_setup()
    state = gaussian_state(grid, 1e-10)
    potential = Field(grid, np.zeros(grid.n_points), "J")
    norm0 = np.trapezoid(state.y[0], dx=grid.spacing)
    for _ in range(1000):
        state = step_deterministic(state, potential, MASS, cfg)
    assert abs(np.trapezoid(state.y[0], dx=grid.spacing) - norm0) < 1e-6


def harmonic_setup(n_points=801):
    approx = lj_harmonic(HE)
    half_span = 5.0 / approx.K_0
    grid = Grid(approx.q_bar - half_span, approx.q_bar + half_span, n_points)
    cfg = IntegratorConfig(dt=0.9 * cfl_limit(MASS, grid.spacing))
    density = harmonic_ground_density(approx, grid)
    potential = harmonic_potential(approx, grid, HE.well_depth)
    return approx, grid, cfg, initial_state(density), potential


def test_harmonic_ground_state_stationary_quarter_period():
    approx, grid, cfg, state, potential = harmonic_setup()
    period = 2 * math.pi / math.sqrt(approx.k / MASS)
    steps = int(round(0.25 * period / cfg.dt))
    n0 = state.density.values.copy()
    for _ in range(steps):
        state = step_deterministic(state, potential, MASS, cfg)
    l2 = np.sqrt(np.trapezoid((state.density.values - n0) ** 2, dx=grid.spacing)
                 / np.trapezoid(n0**2, dx=grid.spacing))
    assert l2 < 2.5e-4      # 1e-3 per period budget, quarter period here


# The Poschl-Teller ground state n = sech^2(q/a) / (2a) is stationary in
# V = -(hbar^2 / (m a^2)) sech^2(q/a) with E = -hbar^2 / (2 m a^2): a
# node-free state that is not a Gaussian, so the stencils are not exact on
# its log.  Measured with He-4, a = 0.1 nm, N = 601 on +-2 nm, dt = 0.98 of
# the bound, the same on both boundaries: V + V_qu is flat to 3.0e-3 of |E|
# over |q| <= 2a with its mean 2.4e-4 of |E| from E, and one period
# 2 pi hbar / |E| (1,963 steps) moves n by 4.2e-4 in relative L2.  At
# N = 1201 these fall to 7.6e-4, 6.1e-5 and 1.0e-4: second order.  The
# bounds leave margins of 2x, 2x and 2.4x.
PT_WIDTH = 1e-10
PT_FLATNESS_BOUND = 6e-3
PT_MEAN_BOUND = 5e-4
PT_DRIFT_BOUND = 1e-3


@pytest.mark.parametrize("boundary", ["zero_flux", "periodic"])
def test_poschl_teller_ground_state_stationary_one_period(boundary):
    grid = Grid(-2e-9, 2e-9, 601, periodic=boundary == "periodic")
    q, a = grid.points, PT_WIDTH
    sech2 = 1.0 / np.cosh(q / a) ** 2
    n0 = sech2 / (2 * a)
    potential = Field(grid, -(HBAR**2 / (MASS * a**2)) * sech2, "J")
    energy = -HBAR**2 / (2 * MASS * a**2)
    total = potential.values + vqu_kernel(n0, grid, MASS)
    core = total[np.abs(q) <= 2 * a]
    assert np.ptp(core) < PT_FLATNESS_BOUND * abs(energy)
    assert abs(np.mean(core) - energy) < PT_MEAN_BOUND * abs(energy)

    cfg = IntegratorConfig(dt=0.98 * cfl_limit(MASS, grid.spacing))
    trajectory = run(initial_state(Field(grid, n0, "1/m")), potential, MASS,
                     None, cfg, 2 * math.pi * HBAR / abs(energy),
                     output_stride=10**9)
    assert trajectory.completed
    n1 = trajectory.final_state.y[0]
    assert np.linalg.norm(n1 - n0) / np.linalg.norm(n0) < PT_DRIFT_BOUND


def test_theta_zero_stochastic_equals_deterministic():
    grid, cfg = free_setup(n_points=301)
    cfg = IntegratorConfig(dt=cfg.dt, scheme=STOCHASTIC_QUANTUM)
    state = gaussian_state(grid, 1e-10)
    potential = Field(grid, np.zeros(grid.n_points), "J")
    silent = NoiseModel(theta=0.0, lambda_c=1e-10, mass=MASS)
    a = step_stochastic(state, potential, MASS, silent, RandomStream(3), cfg)
    b = step_deterministic(state, potential, MASS,
                           IntegratorConfig(dt=cfg.dt))
    assert np.array_equal(a.density.values, b.density.values)
    assert np.array_equal(a.velocity.values, b.velocity.values)


def loud_noise(conserving=True):
    # mobility scaled so one kick moves the density at the percent level
    return NoiseModel(theta=1.0, lambda_c=4.85e-10, mass=MASS,
                      mobility_mu=1e34, conserving=conserving)


def test_non_finite_noise_row_rejected():
    # the sampler never draws a non-finite row, but a caller's eta can hold
    # one; the step names it as invalid input instead of storing it
    grid, _ = free_setup(n_points=201)
    cfg = IntegratorConfig(dt=0.5 * cfl_limit(MASS, grid.spacing),
                           scheme=STOCHASTIC_QUANTUM)
    state = gaussian_state(grid, 2e-10)
    potential = Field(grid, np.zeros(grid.n_points), "J")
    eta = np.zeros(grid.n_points)
    eta[100] = np.inf
    with np.errstate(all="ignore"), \
            pytest.raises(ValidationError, match="field values must be finite"):
        step_stochastic(state, potential, MASS, loud_noise(), RandomStream(1),
                        cfg, eta=eta)


def test_noisy_step_needs_a_generator_or_a_row():
    # a fresh generator of the stream's seed in every step would apply one
    # noise field step after step
    grid, _ = free_setup(n_points=201)
    cfg = IntegratorConfig(dt=0.5 * cfl_limit(MASS, grid.spacing),
                           scheme=STOCHASTIC_QUANTUM)
    state = gaussian_state(grid, 2e-10)
    potential = Field(grid, np.zeros(grid.n_points), "J")
    with pytest.raises(ValidationError, match="needs rng or eta"):
        step_stochastic(state, potential, MASS, loud_noise(), RandomStream(1),
                        cfg)


def test_stochastic_norm_conserved_exactly():
    grid, _ = free_setup(n_points=601)
    cfg = IntegratorConfig(dt=0.5 * cfl_limit(MASS, grid.spacing),
                           scheme=STOCHASTIC_QUANTUM)
    state = gaussian_state(grid, 2e-10)
    potential = Field(grid, np.zeros(grid.n_points), "J")
    norm0 = np.trapezoid(state.y[0], dx=grid.spacing)
    stream = RandomStream(11)
    rng = stream.generator()
    for _ in range(20):
        state = step_stochastic(state, potential, MASS, loud_noise(), stream,
                                cfg, rng)
    assert np.trapezoid(state.y[0], dx=grid.spacing) == pytest.approx(norm0, rel=1e-12)


def test_stochastic_ensemble_mean_tracks_deterministic():
    approx, grid, cfg, state0, potential = harmonic_setup(n_points=401)
    sto_cfg = IntegratorConfig(dt=cfg.dt, scheme=STOCHASTIC_QUANTUM)
    steps = 40
    det = state0
    for _ in range(steps):
        det = step_deterministic(det, potential, MASS, cfg)
    finals = []
    for seed in range(30):
        stream = RandomStream(seed)
        rng = stream.generator()
        state = state0
        for _ in range(steps):
            state = step_stochastic(state, potential, MASS, loud_noise(),
                                    stream, sto_cfg, rng)
        finals.append(state.density.values)
    finals = np.array(finals)
    mean = finals.mean(axis=0)
    se = finals.std(axis=0, ddof=1) / math.sqrt(len(finals))
    # compare where the standard error is meaningful
    mask = se > 1e-12 * np.max(np.abs(mean))
    pull = np.abs(mean - det.density.values)[mask] / se[mask]
    assert np.percentile(pull, 95) < 3.0


def periodic_wave_state(n_points=256, length=1e-9):
    h = length / n_points
    grid = Grid(0.0, (n_points - 1) * h, n_points, periodic=True)
    j = np.arange(n_points)
    n = (1.0 + 0.5 * np.cos(2 * math.pi * j / n_points)) / length
    return grid, initial_state(Field(grid, n, "1/m"))


def test_galilean_shift_periodic():
    grid, state = periodic_wave_state()
    cfg = IntegratorConfig(dt=0.5 * cfl_limit(MASS, grid.spacing))
    potential = Field(grid, np.zeros(grid.n_points), "J")
    shifted0 = initial_state(
        Field(grid, np.roll(state.density.values, 1), "1/m"))
    plain, shifted = state, shifted0
    for _ in range(50):
        plain = step_deterministic(plain, potential, MASS, cfg)
        shifted = step_deterministic(shifted, potential, MASS, cfg)
    scale = np.max(plain.density.values)
    assert np.max(np.abs(shifted.density.values
                         - np.roll(plain.density.values, 1))) < 1e-10 * scale


def test_periodic_observables_weigh_every_cell():
    # the wave state's density sums to 1 over the N cells of the periodic
    # grid, wrap-around included, and the RK4 step keeps that sum
    grid, state = periodic_wave_state()
    cfg = IntegratorConfig(dt=0.5 * cfl_limit(MASS, grid.spacing))
    potential = Field(grid, np.zeros(grid.n_points), "J")
    assert abs(observables(state, potential, MASS, cfg).norm - 1.0) <= 1e-14
    state = initial_state(state.density,
                          Field(grid, np.full(grid.n_points, 40.0), "m/s"))
    norm0 = observables(state, potential, MASS, cfg).norm
    for _ in range(100):
        state = step_deterministic(state, potential, MASS, cfg)
    assert abs(observables(state, potential, MASS, cfg).norm - norm0) <= 1e-13


@pytest.mark.parametrize("boundary", ["zero_flux", "periodic"])
def test_start_density_reports_unit_norm(boundary):
    # the start density is brought to unit mass by the rule observables
    # integrate with; at this width the density reaches the ends, where the
    # trapezoid rule and the cell sum differ by 2.8e-4
    grid = Grid(-2e-9, 2e-9, 801, periodic=boundary == "periodic")
    cfg = IntegratorConfig(dt=0.5 * cfl_limit(MASS, grid.spacing))
    density = free_gaussian_density(0.0, 1e-9, grid)
    potential = Field(grid, np.zeros(grid.n_points), "J")
    norm = observables(initial_state(density), potential, MASS, cfg).norm
    assert abs(norm - 1.0) <= 4 * np.spacing(1.0)


def reversal_error(dt_scale):
    grid, state = periodic_wave_state()
    # an asymmetric initial velocity so the round trip is nontrivial
    j = np.arange(grid.n_points)
    state = HydroState(0.0, grid, np.array(
        (state.y[0], 30.0 * np.sin(4 * math.pi * j / grid.n_points))))
    cfg = IntegratorConfig(dt=dt_scale * 0.5 * cfl_limit(MASS, grid.spacing))
    potential = Field(grid, np.zeros(grid.n_points), "J")
    forward = step_deterministic(state, potential, MASS, cfg)
    flipped = HydroState(forward.time, grid,
                         np.array((forward.y[0], -forward.y[1])))
    back = step_deterministic(flipped, potential, MASS, cfg)
    return float(np.max(np.abs(back.density.values - state.density.values))
                 / np.max(state.density.values))


def test_time_reversal_round_trip():
    # the forward-flip-forward defect is O(dt^5) per step; at any stable
    # step size that sits below roundoff, so the round trip must come back
    # to the initial density at machine precision for both step sizes
    assert reversal_error(1.0) < 1e-12
    assert reversal_error(0.5) < 1e-12


def test_classical_oscillator_mean():
    approx = lj_harmonic(HE)
    amplitude = 5e-11
    grid = Grid(approx.q_bar - 3e-10, approx.q_bar + 3e-10, 601)
    cfg = IntegratorConfig(dt=0.9 * cfl_limit(MASS, grid.spacing),
                           scheme=CLASSICAL_LIMIT)
    state = gaussian_state(grid, 2e-11, center=approx.q_bar + amplitude)
    potential = harmonic_potential(approx, grid, HE.well_depth)
    omega = math.sqrt(approx.k / MASS)
    period = 2 * math.pi / omega
    # stay well before the quarter-period caustic of the cold fluid
    steps = int(round(0.2 * period / cfg.dt))
    for _ in range(steps):
        state = step_deterministic(state, potential, MASS, cfg)
    snap = observables(state, potential, MASS, cfg)
    expected = approx.q_bar + amplitude * math.cos(omega * steps * cfg.dt)
    assert snap.mean_q - approx.q_bar == pytest.approx(
        expected - approx.q_bar, rel=0.01)


def test_classical_free_packet_constant_velocity():
    grid = Grid(-2e-9, 2e-9, 401)
    cfg = IntegratorConfig(dt=0.9 * cfl_limit(MASS, grid.spacing),
                           scheme=CLASSICAL_LIMIT)
    v0 = 50.0
    state = gaussian_state(grid, 2e-10, velocity=v0)
    potential = Field(grid, np.zeros(grid.n_points), "J")
    steps = 200
    for _ in range(steps):
        state = step_deterministic(state, potential, MASS, cfg)
    snap = observables(state, potential, MASS, cfg)
    assert snap.mean_q == pytest.approx(v0 * steps * cfg.dt, rel=0.01)


def test_wide_packet_classical_matches_quantum():
    grid = Grid(-4e-9, 4e-9, 401)
    dt = 0.9 * cfl_limit(MASS, grid.spacing)
    v0 = 50.0
    potential = Field(grid, np.zeros(grid.n_points), "J")
    classical = gaussian_state(grid, 4e-10, velocity=v0)
    quantum = gaussian_state(grid, 4e-10, velocity=v0)
    ccfg = IntegratorConfig(dt=dt, scheme=CLASSICAL_LIMIT)
    qcfg = IntegratorConfig(dt=dt)
    for _ in range(100):
        classical = step_deterministic(classical, potential, MASS, ccfg)
        quantum = step_deterministic(quantum, potential, MASS, qcfg)
    mc = observables(classical, potential, MASS, ccfg).mean_q
    mq = observables(quantum, potential, MASS, qcfg).mean_q
    assert mc == pytest.approx(mq, rel=0.01)


def test_observed_vqu_is_quantum_potential():
    # one density floor: the energy observables reports is the integral of
    # n V_qu with quantum_potential's V_qu, also where n is exactly zero
    grid, cfg = free_setup(n_points=201)
    n = gaussian_state(grid, 1e-10).y[0].copy()
    n[:40] = n[-40:] = 0.0
    density = Field(grid, n, "1/m")
    state = initial_state(density)
    potential = Field(grid, np.zeros(grid.n_points), "J")
    expected = float(integral(n * quantum_potential(density, MASS).values,
                              grid))
    assert observables(state, potential, MASS, cfg).e_qu == expected


def test_periodic_observed_vqu_is_quantum_potential():
    # quantum_potential takes the stencils of its grid, so on a periodic one
    # it wraps them as the step and observables do; with the wall stencils
    # the two energies of this state differed by 1.76e-5 of e_qu
    grid, state = periodic_wave_state()
    cfg = IntegratorConfig(dt=0.5 * cfl_limit(MASS, grid.spacing))
    potential = Field(grid, np.zeros(grid.n_points), "J")
    vqu = quantum_potential(state.density, MASS).values
    expected = float(integral(state.y[0] * vqu, grid))
    e_qu = observables(state, potential, MASS, cfg).e_qu
    assert abs(e_qu - expected) <= 4 * np.spacing(abs(expected))


def test_run_zero_time_single_snapshot():
    grid, cfg = free_setup(n_points=301)
    state = gaussian_state(grid, 1e-10)
    potential = Field(grid, np.zeros(grid.n_points), "J")
    trajectory = run(state, potential, MASS, None, cfg, 0.0)
    assert len(trajectory.snapshots) == 1
    assert trajectory.completed


def test_run_free_variance_monotone():
    grid, cfg = free_setup(n_points=301)
    state = gaussian_state(grid, 1e-10)
    potential = Field(grid, np.zeros(grid.n_points), "J")
    trajectory = run(state, potential, MASS, None, cfg, 200 * cfg.dt,
                     output_stride=20)
    variances = [snap.variance for snap in trajectory.snapshots]
    assert all(b > a for a, b in zip(variances, variances[1:]))


def test_run_harmonic_energy_constant():
    approx, grid, cfg, state, potential = harmonic_setup(n_points=401)
    trajectory = run(state, potential, MASS, None, cfg, 300 * cfg.dt,
                     output_stride=50)
    energies = [s.e_kin + s.e_pot + s.e_qu for s in trajectory.snapshots]
    scale = abs(energies[0])
    assert max(energies) - min(energies) < 1e-3 * scale


def test_run_requires_stream_for_stochastic():
    grid, _ = free_setup(n_points=301)
    cfg = IntegratorConfig(dt=1e-18, scheme=STOCHASTIC_QUANTUM)
    state = gaussian_state(grid, 1e-10)
    potential = Field(grid, np.zeros(grid.n_points), "J")
    with pytest.raises(ValidationError):
        run(state, potential, MASS, None, cfg, 1e-17)


@pytest.mark.parametrize("scheme", SCHEMES)
def test_run_builds_no_field(scheme, monkeypatch):
    # the state lives in one stacked array; a Field is built only when a
    # caller reads a row, and a run reads none
    grid, cfg = free_setup(n_points=301)
    cfg = IntegratorConfig(dt=cfg.dt, scheme=scheme)
    state = gaussian_state(grid, 1e-10)
    potential = Field(grid, np.zeros(grid.n_points), "J")
    noise = NoiseModel(theta=2.17, lambda_c=3.289826e-10, mass=MASS,
                       mobility_mu=1e22)
    built = []
    post_init = Field.__post_init__

    def counting(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(Field, "__post_init__", counting)
    trajectory = run(state, potential, MASS, noise, cfg, 40 * cfg.dt,
                     output_stride=40, stream=RandomStream(7))
    assert trajectory.completed and len(trajectory.snapshots) == 2
    assert built == []


# --- reference integrator -------------------------------------------------
# The step written out one field at a time in its textbook form, with
# fresh arrays for every intermediate.  The stacked, in-place step must
# reproduce it bit for bit.

def reference_derivative(v, h, order, periodic):
    if periodic:
        if order == 1:
            return (np.roll(v, -1) - np.roll(v, 1)) / (2 * h)
        return (np.roll(v, -1) - 2 * v + np.roll(v, 1)) / h**2
    out = np.empty_like(v)
    if order == 1:
        out[1:-1] = (v[2:] - v[:-2]) / (2 * h)
        out[0] = (3 * (v[1] - v[0]) + (v[1] - v[2])) / (2 * h)
        out[-1] = (3 * (v[-1] - v[-2]) + (v[-3] - v[-2])) / (2 * h)
    else:
        out[1:-1] = ((v[2:] - v[1:-1]) - (v[1:-1] - v[:-2])) / h**2
        out[0] = (2 * (v[0] - v[1]) - 3 * (v[1] - v[2]) + (v[2] - v[3])) / h**2
        out[-1] = (2 * (v[-1] - v[-2]) - 3 * (v[-2] - v[-3])
                   + (v[-3] - v[-4])) / h**2
    return out


def reference_divergence(n, v, h, periodic):
    flux = n * v
    if periodic:
        f_right = 0.5 * (flux + np.roll(flux, -1))
        return (f_right - np.roll(f_right, 1)) / h
    f_half = 0.5 * (flux[:-1] + flux[1:])
    div = np.empty_like(flux)
    div[0] = f_half[0] / h
    div[1:-1] = (f_half[1:] - f_half[:-1]) / h
    div[-1] = -f_half[-1] / h
    return div


def reference_rhs(n, v, potential, grid, quantum):
    h, periodic = grid.spacing, grid.periodic
    peak = float(np.max(n))
    nc = np.maximum(n, 0.0) + DENSITY_FLOOR_FRACTION * peak
    if quantum:
        s = np.sqrt(nc)
        vqu = -(HBAR**2 / (2.0 * MASS)) * reference_derivative(
            s, h, 2, periodic) / s
        force = -reference_derivative(vqu + potential, h, 1, periodic)
    else:
        force = -reference_derivative(potential, h, 1, periodic)
    taper_level = FORCE_TAPER_FRACTION * peak
    w = nc**2 / (nc**2 + taper_level**2)
    dn = -reference_divergence(n, v, h, periodic)
    dv = -v * reference_derivative(v, h, 1, periodic) + w * force / MASS
    return dn, dv


def reference_rk4(n0, v0, potential, cfg, grid, quantum):
    dt = cfg.dt

    def f(n, v):
        return reference_rhs(n, v, potential, grid, quantum)

    k1n, k1v = f(n0, v0)
    k2n, k2v = f(n0 + 0.5 * dt * k1n, v0 + 0.5 * dt * k1v)
    k3n, k3v = f(n0 + 0.5 * dt * k2n, v0 + 0.5 * dt * k2v)
    k4n, k4v = f(n0 + dt * k3n, v0 + dt * k3v)
    n1 = n0 + dt / 6.0 * (k1n + 2 * k2n + 2 * k3n + k4n)
    v1 = v0 + dt / 6.0 * (k1v + 2 * k2v + 2 * k3v + k4v)
    return np.maximum(n1, 0.0), v1


def reference_kick(n0, n, grid, noise, stream, cfg, rng):
    h = grid.spacing
    eta = sample_fields(noise, grid, stream, 1, rng)[0]
    gate_level = NOISE_GATE_KICKS * math.sqrt(noise.amplitude * cfg.dt)
    gate = n**2 / (n**2 + gate_level**2)
    n = np.maximum(n + gate * eta * math.sqrt(cfg.dt), 0.0)
    if noise.conserving:
        # renormalised to the norm observables reports: cell sums on a
        # periodic grid, the trapezoid rule between walls
        if grid.periodic:
            n = n * ((float(np.sum(n0)) * h) / (float(np.sum(n)) * h))
        else:
            n = n * (np.trapezoid(n0, dx=h) / np.trapezoid(n, dx=h))
    return n


def parity_case(name):
    """(state, potential, cfg, noise): one setup per branch of the step."""
    if name == "zero_flux_harmonic":
        _, grid, cfg, state, potential = harmonic_setup(n_points=401)
        j = np.arange(grid.n_points)
        velocity = Field(grid, 20.0 * np.sin(6 * math.pi * j / grid.n_points),
                         "m/s")
        return initial_state(state.density, velocity), potential, cfg, None
    if name == "periodic_boost":
        grid, state = periodic_wave_state()
        cfg = IntegratorConfig(dt=0.5 * cfl_limit(MASS, grid.spacing))
        velocity = Field(grid, np.full(grid.n_points, 40.0), "m/s")
        potential = Field(grid, np.zeros(grid.n_points), "J")
        return initial_state(state.density, velocity), potential, cfg, None
    if name == "classical_limit":
        approx = lj_harmonic(HE)
        grid = Grid(approx.q_bar - 3e-10, approx.q_bar + 3e-10, 401)
        cfg = IntegratorConfig(dt=0.9 * cfl_limit(MASS, grid.spacing),
                               scheme=CLASSICAL_LIMIT)
        state = gaussian_state(grid, 4e-11, center=approx.q_bar + 2e-11,
                               velocity=30.0)
        return state, harmonic_potential(approx, grid, HE.well_depth), cfg, None
    if name == "stochastic_periodic":
        grid, state = periodic_wave_state()
        cfg = IntegratorConfig(dt=0.5 * cfl_limit(MASS, grid.spacing),
                               scheme=STOCHASTIC_QUANTUM)
        potential = Field(grid, np.zeros(grid.n_points), "J")
        noise = NoiseModel(theta=2.17, lambda_c=1e-10, mass=MASS,
                           mobility_mu=1e22)
        return state, potential, cfg, noise
    grid, cfg = free_setup(n_points=401)
    cfg = IntegratorConfig(dt=cfg.dt, scheme=STOCHASTIC_QUANTUM)
    noise = NoiseModel(theta=2.17, lambda_c=3.289826e-10, mass=MASS,
                       mobility_mu=1e22,
                       conserving=name != "stochastic_nonconserving")
    potential = Field(grid, np.zeros(grid.n_points), "J")
    return gaussian_state(grid, 1.5e-10), potential, cfg, noise


@pytest.mark.parametrize("name", ["zero_flux_harmonic", "periodic_boost",
                                  "classical_limit", "stochastic_mu_1e22",
                                  "stochastic_nonconserving",
                                  "stochastic_periodic"])
def test_step_matches_reference_bit_for_bit(name):
    state0, potential, cfg, noise = parity_case(name)
    grid = state0.grid
    inputs = [f.values.copy() for f in (state0.density, state0.velocity)]
    quantum = cfg.scheme != CLASSICAL_LIMIT
    stream = RandomStream(7)
    rng, ref_rng = stream.generator(), stream.generator()
    state = state0
    n, v = inputs
    for _ in range(25):
        if noise is not None:
            state = step_stochastic(state, potential, MASS, noise, stream,
                                    cfg, rng)
        else:
            state = step_deterministic(state, potential, MASS, cfg)
        n_det, v = reference_rk4(n, v, potential.values, cfg, grid, quantum)
        if noise is not None:
            n_det = reference_kick(n, n_det, grid, noise, stream, cfg,
                                   ref_rng)
        n = n_det
    # compared as bit patterns, so a flipped sign of zero also fails
    for got, want in ((state.density.values, n), (state.velocity.values, v)):
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    for field, before in zip((state0.density, state0.velocity), inputs):
        assert np.array_equal(field.values, before)
        assert not field.values.flags.writeable
    for field in (state.density, state.velocity):
        assert not field.values.flags.writeable


def bits(values):
    return np.asarray(values, dtype=float).view(np.uint64)


def snapshot_bits(snap):
    return bits([snap.time, snap.norm, snap.mean_q, snap.variance,
                 snap.e_kin, snap.e_pot, snap.e_qu])


@pytest.mark.parametrize("case", [
    # (boundary, conserving, mobility_mu, steps); 21 is not a multiple of
    # the draw-ahead batch, and mu = 1e24 aborts at step 235
    ("zero_flux", True, 1e22, 40),
    ("zero_flux", False, 1e22, 40),
    ("periodic", True, 1e22, 40),
    ("zero_flux", True, 1e22, 21),
    ("zero_flux", True, 1e24, 300),
])
def test_run_draw_ahead_matches_single_draw_steps(case):
    boundary, conserving, mu, steps = case
    grid = Grid(-1.5e-9, 1.5e-9, 301, periodic=boundary == "periodic")
    cfg = IntegratorConfig(dt=0.9 * cfl_limit(MASS, grid.spacing),
                           scheme=STOCHASTIC_QUANTUM)
    noise = NoiseModel(theta=2.17, lambda_c=3.289826e-10, mass=MASS,
                       mobility_mu=mu, conserving=conserving)
    potential = Field(grid, np.zeros(grid.n_points), "J")
    state = gaussian_state(grid, 1.5e-10)
    stream = RandomStream(7)
    stride = 4
    trajectory = run(state, potential, MASS, noise, cfg, steps * cfg.dt,
                     output_stride=stride, stream=stream)

    # the same run by hand, one single-row draw inside every step
    rng = stream.generator()
    snapshots = [observables(state, potential, MASS, cfg)]
    failure = None
    for step_index in range(1, steps + 1):
        try:
            state = step_stochastic(state, potential, MASS, noise, stream,
                                    cfg, rng)
        except StepRejected as exc:
            failure = str(exc)
            break
        if step_index % stride == 0 or step_index == steps:
            snapshots.append(observables(state, potential, MASS, cfg))

    assert trajectory.failure == failure
    assert (failure is not None) == (mu == 1e24)
    assert len(trajectory.snapshots) == len(snapshots)
    for got, want in zip(trajectory.snapshots, snapshots):
        assert np.array_equal(snapshot_bits(got), snapshot_bits(want))
    final = trajectory.final_state
    assert bits(final.time) == bits(state.time)
    assert np.array_equal(bits(final.y), bits(state.y))


@pytest.mark.parametrize("name", ["zero_flux_harmonic", "periodic_boost",
                                  "classical_limit"])
def test_run_matches_standalone_steps_and_owns_its_states(name):
    # run steps on one workspace; a chain of standalone steps builds one per
    # step.  Both must give the same bits, and a state must own its array:
    # no later step may write into what an earlier state or snapshot holds
    state0, potential, cfg, _ = parity_case(name)
    steps, stride = 120, 10
    trajectory = run(state0, potential, MASS, None, cfg, steps * cfg.dt,
                     output_stride=stride)
    assert trajectory.completed

    chain, shared, made = [state0], [state0], [state0.y.copy()]
    workspace = Workspace(state0.grid, potential, MASS, cfg)
    for _ in range(steps):
        chain.append(step_deterministic(chain[-1], potential, MASS, cfg))
        shared.append(step_deterministic(shared[-1], potential, MASS, cfg,
                                         workspace))
        made.append(shared[-1].y.copy())
    snapshots = [observables(state, potential, MASS, cfg)
                 for state in chain[::stride]]
    assert len(trajectory.snapshots) == len(snapshots) == steps // stride + 1
    for got, want in zip(trajectory.snapshots, snapshots):
        assert np.array_equal(snapshot_bits(got), snapshot_bits(want))
    for states in (chain, shared):
        assert np.array_equal(bits(trajectory.final_state.y), bits(states[-1].y))
        assert bits(trajectory.final_state.time) == bits(states[-1].time)

    # every state of the shared-workspace chain still holds the values it
    # was made with, in an array of its own
    buffers = [a for a in vars(workspace).values() if isinstance(a, np.ndarray)]
    for j in range(1, steps + 1):
        assert np.array_equal(bits(shared[j].y), bits(made[j]))
        assert np.array_equal(bits(shared[j].y), bits(chain[j].y))
        assert not np.shares_memory(shared[j].y, shared[j - 1].y)
        assert not any(np.shares_memory(shared[j].y, a) for a in buffers)


def test_periodic_stochastic_run_keeps_its_reported_norm():
    state, potential, cfg, noise = parity_case("stochastic_periodic")
    trajectory = run(state, potential, MASS, noise, cfg, 100 * cfg.dt,
                     stream=RandomStream(7))
    assert trajectory.completed
    norms = np.array([snap.norm for snap in trajectory.snapshots])
    assert norms.size == 101
    assert np.max(np.abs(norms / norms[0] - 1.0)) <= 1e-13


def test_stochastic_run_computes_the_noise_amplitude_once(monkeypatch):
    # the model computes its amplitude when it is built, and every step and
    # draw reads it, so a run twice as long computes it no more often
    calls = []
    monkeypatch.setattr(
        "qhydro.noise.noise_amplitude",
        lambda *args: calls.append(args) or noise_amplitude(*args))

    def count(steps):
        calls.clear()
        state, potential, cfg, model = parity_case("stochastic_periodic")
        trajectory = run(state, potential, MASS, model, cfg, steps * cfg.dt,
                         stream=RandomStream(7))
        assert trajectory.completed
        return len(calls)

    assert count(20) == count(40) == 1


def test_diverging_step_named():
    # a packet at 1e100 m/s: a stage's peak density passes 1e162 1/m, where
    # a float's square of the taper level would raise OverflowError; the
    # step names the non-finite row, and run does so without a warning
    grid, cfg = free_setup(n_points=201)
    state = gaussian_state(grid, 1e-10, velocity=1e100)
    potential = Field(grid, np.zeros(grid.n_points), "J")
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(StepRejected, match="^non-finite density after step"):
        step_deterministic(state, potential, MASS, cfg)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        trajectory = run(state, potential, MASS, None, cfg, 3 * cfg.dt)
    assert trajectory.failure == "non-finite density after step at t = 0.000e+00 s"
    assert trajectory.final_state is state and len(trajectory.snapshots) == 1


def test_non_finite_snapshot_scalar_named():
    # a uniform periodic flow keeps n and v finite at 1e155 m/s, where
    # m v^2 / 2 overflows, so every snapshot's e_kin is inf
    grid = Grid(0.0, 1e-9, 128, periodic=True)
    cfg = IntegratorConfig(dt=0.5 * cfl_limit(MASS, grid.spacing))
    state = initial_state(Field(grid, np.full(128, 1e9), "1/m"),
                          Field(grid, np.full(128, 1e155), "m/s"))
    potential = Field(grid, np.zeros(128), "J")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        trajectory = run(state, potential, MASS, None, cfg, 3 * cfg.dt)
    assert math.isinf(trajectory.snapshots[-1].e_kin)
    assert trajectory.failure == "non-finite e_kin at t = 0.000e+00 s"


# --- invariants over packet width and boost --------------------------------
# A span of 108 m h^2/hbar on the criterion-4 grid (601 points over 3 nm),
# run in steps of at most 0.9 of the default bound; the span is 300 steps
# of the 0.36 m h^2/hbar the bounds were first measured at.  Over sigma in
# [0.8, 1.6] * 1e-10 m and |v0| in [10, 150] m/s both errors grow as the
# packet narrows (fewer cells per width) and the drift also with |v0|; the
# measured worst case, sigma = 0.8e-10 m and |v0| = 150 m/s, is an energy
# drift of 7.7e-9 and a mean-position error of 5.3e-8 of v0 t, within 8%
# at every dt from 0.36 to 3.6 m h^2/hbar: the errors are spatial.  The
# bounds leave margins of 2.6x and 2.8x.
INVARIANT_SPAN = 300 * 0.9 * 0.4        # m h^2 / hbar
ENERGY_DRIFT_BOUND = 2e-8
MEAN_POSITION_BOUND = 1.5e-7

packet_widths = st.floats(min_value=0.8e-10, max_value=1.6e-10)
boosts = st.tuples(st.sampled_from([-1.0, 1.0]),
                   st.floats(min_value=10.0, max_value=150.0)).map(
    lambda sv: sv[0] * sv[1])


def boosted_packet_run(sigma, v0):
    grid, cfg = free_setup()
    t_end = INVARIANT_SPAN * MASS * grid.spacing**2 / HBAR
    # the whole span, in whole steps of at most 0.9 of the bound, and about
    # ten snapshots over it
    steps = math.ceil(t_end / cfg.dt)
    cfg = IntegratorConfig(dt=t_end / steps)
    state = gaussian_state(grid, sigma, velocity=v0)
    potential = Field(grid, np.zeros(grid.n_points), "J")
    trajectory = run(state, potential, MASS, None, cfg, t_end,
                     output_stride=max(1, steps // 10))
    assert trajectory.completed
    return trajectory.snapshots


@settings(max_examples=8, deadline=None)
@given(sigma=packet_widths, v0=boosts)
def test_total_energy_conserved(sigma, v0):
    energies = np.array([s.e_kin + s.e_pot + s.e_qu
                         for s in boosted_packet_run(sigma, v0)])
    drift = np.max(np.abs(energies - energies[0])) / abs(energies[0])
    assert drift < ENERGY_DRIFT_BOUND


@settings(max_examples=8, deadline=None)
@given(sigma=packet_widths, v0=boosts)
def test_mean_position_moves_at_boost_velocity(sigma, v0):
    for snap in boosted_packet_run(sigma, v0)[1:]:
        displacement = v0 * snap.time        # q0 = 0
        assert abs(snap.mean_q - displacement) < (
            MEAN_POSITION_BOUND * abs(displacement))
