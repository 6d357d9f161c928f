import math
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from qhydro.config import ExperimentSection
from qhydro.constants import BOHR, HBAR, K_B
from qhydro.errors import NoBoundStateError, UnderResolvedError, ValidationError
from qhydro.grids import Grid
from qhydro.params import (
    DELTA_OVER_R0,
    MaterialParams,
    helium_preset,
    lj_harmonic,
    square_well_solve,
    _bisect_root,
)
from qhydro.potentials import (
    harmonic_ground_density,
    harmonic_potential,
    pseudo_gaussian_log_density,
    shape_f,
    square_well_density,
)
from qhydro.qpotential import (
    ASYMPTOTICALLY_VANISHING,
    growth_exponent,
    quantum_force,
    quantum_force_from_log,
    quantum_potential,
)

HE = helium_preset()


def test_preset_values():
    assert HE.mass == pytest.approx(6.6465e-27)
    assert HE.r_0 == pytest.approx(7.9 * BOHR)
    assert HE.well_depth == pytest.approx(10.9 * K_B)
    assert HE.half_width == pytest.approx(1.54e-10)


def test_harmonic_curvature_ratio():
    approx = lj_harmonic(HE)
    assert approx.k / (HE.well_depth / HE.r_0**2) == pytest.approx(144.0)


def test_harmonic_delta_ratio():
    assert lj_harmonic(HE).delta / HE.r_0 == pytest.approx(DELTA_OVER_R0)


def test_harmonic_bottom_value():
    approx = lj_harmonic(HE)
    grid = Grid(approx.q_bar - 1e-10, approx.q_bar + 1e-10, 201)
    v = harmonic_potential(approx, grid, HE.well_depth)
    assert np.min(v.values) == pytest.approx(-HE.well_depth)


def test_harmonic_consistency_identity():
    # 4 (E0 + U)^2 m / hbar^2 = U (12 / r0)^2, used as a self-check
    approx = lj_harmonic(HE)
    lhs = 4 * (approx.E_0 + HE.well_depth) ** 2 * HE.mass / HBAR**2
    assert lhs == pytest.approx(approx.k, rel=1e-12)


def test_ground_density_peak_and_norm():
    approx = lj_harmonic(HE)
    grid = Grid(approx.q_bar - 8 / approx.K_0, approx.q_bar + 8 / approx.K_0, 2001)
    n = harmonic_ground_density(approx, grid)
    assert np.trapezoid(n.values, dx=grid.spacing) == pytest.approx(1.0, abs=1e-8)
    assert grid.points[np.argmax(n.values)] == pytest.approx(approx.q_bar, abs=grid.spacing)


def test_ground_density_variance():
    approx = lj_harmonic(HE)
    grid = Grid(approx.q_bar - 8 / approx.K_0, approx.q_bar + 8 / approx.K_0, 4001)
    n = harmonic_ground_density(approx, grid)
    q = grid.points
    mean = np.trapezoid(n.values * q, dx=grid.spacing)
    var = np.trapezoid(n.values * (q - mean) ** 2, dx=grid.spacing)
    assert var == pytest.approx(1 / (4 * approx.K_0**2), rel=1e-6)


def test_ground_density_narrow_grid_rejected():
    approx = lj_harmonic(HE)
    grid = Grid(approx.q_bar - 1 / approx.K_0, approx.q_bar + 1 / approx.K_0, 64)
    with pytest.raises(ValidationError, match=re.escape(
            "harmonic ground state needs [")):
        harmonic_ground_density(approx, grid)


def test_ground_density_coarse_grid_rejected():
    # h = 1/(2 K_0): the width 1/(2 K_0) spans one cell, not two
    approx = lj_harmonic(HE)
    grid = Grid(approx.q_bar - 8 / approx.K_0, approx.q_bar + 8 / approx.K_0, 33)
    with pytest.raises(UnderResolvedError, match=re.escape(
            "under-resolved harmonic ground state: spacing")):
        harmonic_ground_density(approx, grid)


def test_square_well_density_checks_each_length():
    state = square_well_solve(HE)
    span = state.width + 6 / state.kappa
    # nine points resolve the well's width but not its decay length
    coarse = Grid(state.sigma, state.sigma + span, 9)
    with pytest.raises(UnderResolvedError, match=re.escape("below 1/kappa/2")):
        square_well_density(state, coarse)
    # a grid that starts inside the well misses part of its mass
    inside = Grid(state.sigma + state.width / 2, state.sigma + span, 4001)
    with pytest.raises(ValidationError, match=re.escape(
            "square well needs [")):
        square_well_density(state, inside)


def test_eigenstate_stationarity_of_potentials():
    # V_harmonic + V_qu constant over the Gaussian core within 1%
    approx = lj_harmonic(HE)
    grid = Grid(approx.q_bar - 6 / approx.K_0, approx.q_bar + 6 / approx.K_0, 4001)
    n = harmonic_ground_density(approx, grid)
    vqu = quantum_potential(n, HE.mass)
    v = harmonic_potential(approx, grid, HE.well_depth)
    total = vqu.values + v.values
    core = np.abs(grid.points - approx.q_bar) < 2 / approx.K_0
    spread = np.max(total[core]) - np.min(total[core])
    scale = approx.E_0 + HE.well_depth
    assert spread < 0.01 * scale
    # and the sum sits at the eigenvalue E0
    assert np.mean(total[core]) == pytest.approx(approx.E_0, rel=0.01)


def test_quantum_potential_reproduces_inverted_parabola():
    approx = lj_harmonic(HE)
    grid = Grid(approx.q_bar - 6 / approx.K_0, approx.q_bar + 6 / approx.K_0, 4001)
    n = harmonic_ground_density(approx, grid)
    vqu = quantum_potential(n, HE.mass)
    r = grid.points - approx.q_bar
    expected = -(approx.k / 2) * r**2 + (approx.E_0 + HE.well_depth)
    core = np.abs(r) < 2 / approx.K_0
    scale = approx.E_0 + HE.well_depth
    assert np.max(np.abs(vqu.values[core] - expected[core])) < 0.01 * scale


def test_square_well_energy():
    state = square_well_solve(HE)
    assert state.E_0 / K_B == pytest.approx(-5.19, rel=0.10)
    assert state.matching_residual < 1e-10


def test_square_well_deeper_is_lower():
    state = square_well_solve(HE)
    deeper = MaterialParams(mass=HE.mass, well_depth=2 * HE.well_depth,
                            r_0=HE.r_0, sigma=HE.sigma,
                            half_width=HE.half_width, depth_factor=HE.depth_factor)
    assert square_well_solve(deeper).E_0 < state.E_0


def test_square_well_needs_its_half_width():
    with pytest.raises(ValidationError, match=re.escape(
            "square well needs half_width (Delta)")):
        square_well_solve(HE.replace(half_width=None))


def test_square_well_no_bound_state():
    shallow = MaterialParams(mass=HE.mass, well_depth=HE.well_depth / 100,
                             r_0=HE.r_0, sigma=HE.sigma,
                             half_width=HE.half_width, depth_factor=HE.depth_factor)
    with pytest.raises(NoBoundStateError):
        square_well_solve(shallow)


def test_square_well_solution_bits():
    # scipy's brentq finds this root; bisection to the last bit finds it too
    state = square_well_solve(HE)
    assert state.K_0 == 7900442664.402215
    assert state.E_0 == -7.118297267166322e-23
    assert state.matching_residual < 1e-15


def test_square_well_rejects_same_sign_bracket():
    # z0 just above pi/2 leaves the bracket (pi/2 + 1e-12, z0) reversed,
    # and the matching function is negative at both ends
    crit = (math.pi / 2 * HBAR / (2 * HE.half_width)) ** 2 / (
        2 * HE.mass * HE.depth_factor)
    marginal = HE.replace(well_depth=crit * (1 + 4e-13))
    with pytest.raises(NoBoundStateError, match="no root"):
        square_well_solve(marginal)


@settings(max_examples=40, deadline=None)
@given(st.floats(0.01, 0.99), st.floats(1e-3, 0.5))
def test_square_well_depth_property(depth_factor, step):
    deeper_factor = min(depth_factor + step, 1.0)
    try:
        state = square_well_solve(HE.replace(depth_factor=depth_factor))
    except NoBoundStateError:
        assume(False)
    deeper = square_well_solve(HE.replace(depth_factor=deeper_factor))
    assert state.matching_residual < 1e-10
    assert deeper.matching_residual < 1e-10
    assert deeper.E_0 < state.E_0


def test_brent_known_roots():
    # bisection ends on one of the two floats around the root
    root = _bisect_root(lambda x: math.cos(x) - x, 0.0, 1.0)
    assert root == pytest.approx(0.7390851332151607, abs=2e-16)
    cubic = _bisect_root(lambda x: x**3 - 2 * x - 5, 2.0, 3.0)
    assert cubic == pytest.approx(2.0945514815423265, abs=5e-16)
    # a root that is a float is found exactly, and a sign change with no
    # zero ends, with no iteration cap, on the float below the jump
    assert _bisect_root(lambda x: x - 0.3, 0.0, 1.0) == 0.3
    jump = _bisect_root(lambda x: -1.0 if x < 1.0 / 3.0 else 1.0, 0.0, 1.0)
    assert jump == math.nextafter(1.0 / 3.0, 0.0)


def test_brent_endpoint_root():
    assert _bisect_root(lambda x: x - 1.0, 1.0, 2.0) == 1.0
    assert _bisect_root(lambda x: x - 1.0, 0.0, 1.0) == 1.0


def test_brent_same_sign_bracket():
    with pytest.raises(NoBoundStateError, match="no root"):
        _bisect_root(lambda x: x * x + 1.0, -1.0, 1.0)


def test_square_well_zero_force_inside():
    state = square_well_solve(HE)
    span = state.width + 6 / state.kappa
    grid = Grid(state.sigma, state.sigma + span, 4001)
    n = square_well_density(state, grid)
    assert np.trapezoid(n.values, dx=grid.spacing) == pytest.approx(1.0, abs=1e-8)
    profile = quantum_force(n, HE.mass, state.sigma)
    q = grid.points
    interior = (q > state.sigma + 0.1 * state.width) & \
               (q < state.sigma + 0.9 * state.width)
    approx = lj_harmonic(HE)
    core_force = approx.k * approx.delta
    assert np.max(np.abs(profile.force.values[interior])) < 1e-6 * core_force


def make_family(family, **keys):
    # the [experiment] defaults: family_g 2, family_h 1, core_width 1,
    # tail_scale 20
    return ExperimentSection(family=family, **keys)


def test_family_validation():
    with pytest.raises(ValidationError):
        make_family("power_f", tail_scale=5.0)  # < 10 core_width
    # tail_scale = 10 core_width exactly is the least it may be
    assert make_family("power_f", tail_scale=10.0).tail_scale == 10.0
    with pytest.raises(ValidationError):
        make_family("power_f", family_g=2.5)
    with pytest.raises(ValidationError):
        make_family("nope")


def test_center_value():
    fam = make_family("power_f")
    grid = Grid(-5.0, 5.0, 1001)
    n = np.exp(pseudo_gaussian_log_density(fam, grid).values)
    center = np.argmin(np.abs(grid.points))
    assert n[center] == pytest.approx(1.0)


@pytest.mark.parametrize("family", ["constant_f", "linear_f", "log_f", "power_f"])
def test_core_indistinguishable_from_gaussian(family):
    fam = make_family(family, family_g=1.2, family_h=1.3,
                      tail_scale=40.0)
    grid = Grid(-1.5, 1.5, 2001)
    n = np.exp(pseudo_gaussian_log_density(fam, grid).values)
    r = grid.points
    pure = np.exp(-(r**2) / fam.core_width**2)
    f = shape_f(fam, r)
    core = r**2 <= 0.01 * fam.tail_scale**2 * f
    assert np.max(np.abs(n[core] / pure[core] - 1.0)) < 0.01


def test_log_family_power_law_tail():
    # f = 1 + ln(1 + s^h) gives an approximate power law with slope
    # -h lam^2 / dq2 in log n vs log s
    fam = make_family("log_f", family_h=1.0, core_width=1.0, tail_scale=20.0)
    grid = Grid(1e20, 1e24, 2001)
    log_n = pseudo_gaussian_log_density(fam, grid)
    s = grid.points / fam.core_width
    slope = np.polyfit(np.log(s), log_n.values, 1)[0]
    assert slope == pytest.approx(-fam.tail_scale**2 / fam.core_width**2,
                                  rel=0.05)


@pytest.mark.parametrize("family", ["linear_f", "log_f"])
def test_numeric_tail_fit_nonpower(family):
    # both tails give a force ~ r^-3, so |F / r| ~ r^-4
    fam = make_family(family)
    grid = Grid(0.0, 1.2e6, 2001)
    log_n = pseudo_gaussian_log_density(fam, grid)
    decay = growth_exponent(quantum_force_from_log(log_n, 1.0, 0.0))
    assert math.isfinite(decay.fitted_exponent)
    assert decay.fitted_exponent == pytest.approx(-4.0, abs=0.15)
    assert decay.label == ASYMPTOTICALLY_VANISHING


def power_f_force_exponent(g):
    """Leading exponent e of the power_f tail force F ~ C r^e.

    With log n ~ -beta r^g, F = (hbar^2/2m) beta^2 g^2 (g-1)/2 r^(2g-3)
    + ...; at g = 1 that term vanishes and the next order gives r^-3.
    """
    return -3.0 if g == 1.0 else 2.0 * g - 3.0


@pytest.mark.parametrize("g", [1.0, 1.2, 1.4, 1.8, 2.0])
def test_numeric_fit_matches_symbolic_exponent(g):
    fam = make_family("power_f", family_g=g)
    # the tail regime starts at r ~ (lam^2)^(1/(2-g)), which runs away as
    # g approaches 2; the fit window must sit far beyond it
    r_max = {1.0: 1.2e6, 1.2: 3e6, 1.4: 3e6, 1.8: 1e16, 2.0: 3e6}[g]
    grid = Grid(0.0, r_max, 3001)
    log_n = pseudo_gaussian_log_density(fam, grid)
    profile = quantum_force_from_log(log_n, 1.0, 0.0)
    decay = growth_exponent(profile)
    # numeric fit is of |F / r|, symbolic exponent is of F itself
    assert decay.fitted_exponent == pytest.approx(
        power_f_force_exponent(g) - 1.0, abs=0.15)
