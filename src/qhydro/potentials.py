"""Model potentials, start densities and density families on a grid.

The array half of the models that ``qhydro.params`` defines: the sampled
harmonic approximation of a Lennard-Jones pair well and hard-wall square
well of the helium dimer, a run's three start densities (free Gaussian,
harmonic and square-well ground states, each checked by
``params.check_length`` and normalised by the quadrature of their grid),
and the log-density of the pseudo-Gaussian families: Gaussians in the core
with slower-decaying tails, the construction that can make the nonlocality
length finite.

Pseudo-Gaussian densities follow

    n(q) = exp[ -q^2 / (Dq2 (1 + q^2 / (Lam^2 f(s)))) ],   Dq2 = core_width^2,

centred on q = 0 with n(0) = 1 (a shift or a constant factor drops out of
every derivative), with s = |q| / core_width kept dimensionless and f one of
    constant_f: f = 1
    linear_f:   f = 1 + s
    log_f:      f = 1 + ln(1 + s^h)
    power_f:    f = 1 + s^g,  0 < g <= 2.
"""

import math

import numpy as np

from .grids import Field, integral
from .params import (
    Grid,
    HarmonicApprox,
    PseudoGaussianFamily,
    SquareWellState,
    check_length,
)
# defined with the material in params; perfbench traces it under this name
from .params import square_well_solve  # noqa: F401


def free_gaussian_density(center: float, width: float, grid: Grid) -> Field:
    """n ~ exp[-(q - center)^2 / (2 width^2)], unit integral; center +- 2 width
    holds 95% of the mass."""
    check_length("experiment.initial_width", width, grid,
                 ("experiment.initial_center +- 2 experiment.initial_width",
                  center - 2.0 * width, center + 2.0 * width),
                 what="initial Gaussian")
    n = np.exp(-((grid.points - center) ** 2) / (2.0 * width**2))
    return Field(grid, n / integral(n, grid), "1/m")


def harmonic_potential(approx: HarmonicApprox, grid: Grid,
                       well_depth: float) -> Field:
    """V(q) = -U + (k/2)(q - q_bar)^2 sampled on the grid."""
    r = grid.points - approx.q_bar
    return Field(grid, -well_depth + 0.5 * approx.k * r**2, "J")


def harmonic_ground_density(approx: HarmonicApprox, grid: Grid) -> Field:
    """n = |psi_0|^2 with psi_0 ~ exp[-K_0^2 (q - q_bar)^2], unit integral."""
    q_bar, reach = approx.q_bar, 4.0 / approx.K_0
    check_length("1/(2 K_0)", 0.5 / approx.K_0, grid, ("material.r_0/2 +- 4/K_0",
                 q_bar - reach, q_bar + reach), what="harmonic ground state")
    r = grid.points - approx.q_bar
    n = np.exp(-2.0 * approx.K_0**2 * r**2)
    return Field(grid, n / integral(n, grid), "1/m")


def square_well_potential(state: SquareWellState, grid: Grid) -> Field:
    """Sampled square well; the hard wall is a plateau 1e3 times the well depth."""
    q = grid.points
    v = np.where(q < state.sigma, 1e3 * state.depth,
                 np.where(q <= state.sigma + state.width, -state.depth, 0.0))
    return Field(grid, v, "J")


def square_well_density(state: SquareWellState, grid: Grid) -> Field:
    """|psi_0|^2 of the bound state: sine inside the well, exponential tail."""
    check_length("2 material.half_width", state.width, grid,
                 ("material.sigma + [0, 2 material.half_width]", state.sigma,
                  state.sigma + state.width), what="square well")
    check_length("1/kappa", 1.0 / state.kappa, grid, what="square well")
    q = grid.points
    x = q - state.sigma
    inside = (x >= 0.0) & (x <= state.width)
    outside = x > state.width
    psi = np.zeros_like(q)
    psi[inside] = np.sin(state.K_0 * x[inside])
    amp_out = math.sin(state.K_0 * state.width)
    psi[outside] = amp_out * np.exp(-state.kappa * (x[outside] - state.width))
    n = psi**2
    return Field(grid, n / integral(n, grid), "1/m")


def shape_f(fam: PseudoGaussianFamily, r: np.ndarray) -> np.ndarray:
    """The family's f at s = |r| / core_width."""
    s = np.abs(r) / fam.core_width
    if fam.family == "constant_f":
        return np.ones_like(s)
    if fam.family == "linear_f":
        return 1.0 + s
    if fam.family == "log_f":
        return 1.0 + np.log1p(s**fam.h)
    return 1.0 + s**fam.g


def pseudo_gaussian_log_density(fam: PseudoGaussianFamily, grid: Grid) -> Field:
    """log n on the grid, with n(0) = 1; exact in the deep tail."""
    q = grid.points
    f = shape_f(fam, q)
    # 0.0 - x keeps the zero at q = 0 positive
    return Field(grid, 0.0 - q**2 / (
        fam.delta_q_sq * (1.0 + q**2 / (fam.lam**2 * f))), "1")
