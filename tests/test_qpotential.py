import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qhydro.constants import HBAR
from qhydro.errors import DegenerateDensityError, TailFitError
from qhydro.grids import Field, Grid
from qhydro.qpotential import (
    ASYMPTOTICALLY_VANISHING,
    BALLISTIC,
    SUPER_BALLISTIC,
    UNDER_BALLISTIC,
    QuantumForceProfile,
    growth_exponent,
    quantum_force,
    quantum_force_from_log,
    quantum_potential,
    quantum_potential_from_log,
    vqu_kernel,
)

MASS = 6.6465e-27


def gaussian_density(grid, dq2, q_bar=0.0):
    # square root of the density is exp(-(q - q_bar)^2 / (2 dq2))
    r = grid.points - q_bar
    return Field(grid, np.exp(-(r**2) / dq2), "1/m")


def test_uniform_density_zero_potential():
    grid = Grid(0, 1e-9, 101)
    n = Field(grid, np.full(101, 2.5), "1/m")
    vqu = quantum_potential(n, MASS)
    assert np.max(np.abs(vqu.values)) == 0.0


def test_all_zero_density_rejected():
    grid = Grid(0, 1, 11)
    with pytest.raises(DegenerateDensityError):
        quantum_potential(Field(grid, np.zeros(11), "1/m"), MASS)


def test_gaussian_quantum_potential_analytic():
    # V_qu = -(hbar^2/2m) [r^2/dq2^2 - 1/dq2] for sqrt(n) = exp(-r^2/(2 dq2))
    dq2 = (1e-10) ** 2
    grid = Grid(-5e-10, 5e-10, 2001)
    n = gaussian_density(grid, dq2)
    vqu = quantum_potential(n, MASS)
    r = grid.points
    expected = -(HBAR**2 / (2 * MASS)) * (r**2 / dq2**2 - 1.0 / dq2)
    core = np.abs(r) < 3e-10
    scale = np.max(np.abs(expected[core]))
    assert np.max(np.abs(vqu.values[core] - expected[core])) < 1e-4 * scale


def test_sine_state_constant_potential():
    # psi = sin(K0 (q - sigma)) inside a well: V_qu = +(hbar^2/2m) K0^2
    k0 = 7.9e9
    sigma = 1e-10
    width = math.pi / k0            # one half-wave fits exactly
    grid = Grid(sigma, sigma + width, 513)
    psi = np.sin(k0 * (grid.points - sigma))
    vqu = quantum_potential(Field(grid, psi**2, "1/m"), MASS)
    expected = (HBAR**2 / (2 * MASS)) * k0**2
    interior = slice(40, -40)
    assert np.allclose(vqu.values[interior], expected, rtol=1e-4)


def _periodic_vqu_error(n_points):
    # n = 1 + cos(2 pi q / L) / 2 on a ring of n_points cells of spacing L / N
    length = 1e-9
    h = length / n_points
    q = np.arange(n_points) * h
    k = 2 * math.pi / length
    n = 1.0 + 0.5 * np.cos(k * q)
    s_ratio = -0.25 * k**2 * np.cos(k * q) / n \
        - (0.5 * k * np.sin(k * q)) ** 2 / (4 * n**2)
    expected = -(HBAR**2 / (2 * MASS)) * s_ratio
    grid = Grid(0.0, (n_points - 1) * h, n_points, periodic=True)
    vqu = vqu_kernel(n, grid, MASS)
    return np.max(np.abs(vqu - expected)) / np.max(np.abs(expected))


def _zero_flux_vqu_error(n_points):
    # sqrt(n) = exp(-r^2 / (2 dq2)): V_qu = -(hbar^2/2m) (r^2/dq2^2 - 1/dq2),
    # one-sided stencils at both walls
    dq2 = (1e-10) ** 2
    grid = Grid(-4e-10, 4e-10, n_points)
    r = grid.points
    expected = -(HBAR**2 / (2 * MASS)) * (r**2 / dq2**2 - 1.0 / dq2)
    vqu = vqu_kernel(np.exp(-(r**2) / dq2), grid, MASS)
    return np.max(np.abs(vqu - expected)) / np.max(np.abs(expected))


def test_vqu_kernel_second_order_both_boundaries():
    periodic = [_periodic_vqu_error(n) for n in (64, 128, 256)]
    zero_flux = [_zero_flux_vqu_error(n) for n in (401, 801, 1601)]
    for errors in (periodic, zero_flux):
        assert errors[-1] < 1e-3
        for coarse, fine in zip(errors, errors[1:]):
            # halving the spacing cuts the error about 4x
            assert 3.5 < coarse / fine < 4.5


def test_quantum_force_linear_for_gaussian():
    dq2 = (1e-10) ** 2
    grid = Grid(-6e-10, 6e-10, 2401)
    n = gaussian_density(grid, dq2)
    profile = quantum_force(n, MASS, 0.0)
    r = grid.points
    core = np.abs(r) < 2e-10
    # the expansive linear force -dV_qu/dq = +(hbar^2/m) r / dq2^2
    k_expected = (HBAR**2 / MASS) / dq2**2
    coeffs = np.polyfit(r[core], profile.force.values[core], 1)
    assert coeffs[0] == pytest.approx(k_expected, rel=1e-3)
    residual = np.max(np.abs(profile.force.values[core] - k_expected * r[core]))
    assert residual < 1e-3 * abs(k_expected) * 2e-10


def test_uniform_density_zero_force():
    grid = Grid(0, 1e-9, 101)
    n = Field(grid, np.full(101, 1.0), "1/m")
    profile = quantum_force(n, MASS, 5e-10)
    assert np.max(np.abs(profile.force.values)) == 0.0


@given(c=st.floats(1e-6, 1e6))
@settings(max_examples=20, deadline=None)
def test_scale_invariance(c):
    dq2 = (1e-10) ** 2
    grid = Grid(-4e-10, 4e-10, 401)
    n = gaussian_density(grid, dq2)
    base = quantum_potential(n, MASS).values
    scaled = quantum_potential(Field(grid, c * n.values, "1/m"), MASS).values
    assert np.allclose(scaled, base, rtol=1e-12, atol=1e-30)


def test_mass_scaling():
    dq2 = (1e-10) ** 2
    grid = Grid(-4e-10, 4e-10, 401)
    n = gaussian_density(grid, dq2)
    v1 = quantum_potential(n, MASS).values
    v2 = quantum_potential(n, 2 * MASS).values
    assert np.allclose(v1, 2 * v2, rtol=1e-12)


def test_log_route_matches_density_route():
    dq2 = (1e-10) ** 2
    grid = Grid(-4e-10, 4e-10, 801)
    r = grid.points
    log_n = Field(grid, -(r**2) / dq2, "1")
    n = Field(grid, np.exp(log_n.values), "1/m")
    via_density = quantum_potential(n, MASS).values
    via_log = quantum_potential_from_log(log_n, MASS).values
    # the two discretizations agree up to their shared O(spacing^2) error
    interior = slice(2, -2)
    scale = np.max(np.abs(via_density))
    assert np.max(np.abs(via_density[interior] - via_log[interior])) < 1e-3 * scale


def _synthetic_profile(exponent, r_max=1e3, n=2001):
    grid = Grid(0.0, r_max, n)
    r = grid.points
    force = np.zeros_like(r)
    force[1:] = r[1:] ** (exponent + 1.0)   # so |F / r| ~ r^exponent
    return QuantumForceProfile(Field(grid, force, "N"), 0.0)


@pytest.mark.parametrize("exponent,label", [
    (0.8, SUPER_BALLISTIC),
    (0.0, BALLISTIC),
    (-0.5, UNDER_BALLISTIC),
    (-2.0, ASYMPTOTICALLY_VANISHING),
])
def test_growth_exponent_classes(exponent, label):
    decay = growth_exponent(_synthetic_profile(exponent))
    assert decay.label == label
    assert decay.fitted_exponent == pytest.approx(exponent, abs=0.02)


def test_growth_exponent_boundary_flag():
    # within 0.1 of -1 a fit is not taken to converge
    decay = growth_exponent(_synthetic_profile(-0.95))
    assert decay.label == UNDER_BALLISTIC


def test_growth_exponent_zero_force():
    grid = Grid(0.0, 10.0, 101)
    profile = QuantumForceProfile(Field(grid, np.zeros(101), "N"), 0.0)
    decay = growth_exponent(profile)
    assert decay.label == ASYMPTOTICALLY_VANISHING
    assert decay.fitted_exponent == -math.inf


def test_growth_exponent_too_few_points():
    grid = Grid(0.0, 10.0, 32)
    profile = QuantumForceProfile(Field(grid, grid.points, "N"), 0.0)
    with pytest.raises(TailFitError, match="fewer than 8 usable points"):
        growth_exponent(profile)


def test_force_from_log_linear_everywhere():
    # a quadratic log-density gives an exactly linear force, even in the
    # far tail where the plain density underflows
    dq2 = 1.0
    grid = Grid(0.0, 50.0, 2001)
    r = grid.points
    log_n = Field(grid, -(r**2) / dq2, "1")
    profile = quantum_force_from_log(log_n, 1.0, 0.0)
    interior = slice(1, -1)
    fitted = np.polyfit(r[interior], profile.force.values[interior], 1)
    assert fitted[0] == pytest.approx(HBAR**2 / dq2**2, rel=1e-9)
