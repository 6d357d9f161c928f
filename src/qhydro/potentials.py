"""Analytic model potentials, start densities and density families.

Covers the harmonic approximation of a Lennard-Jones pair well, the
hard-wall square well used for the helium dimer, a run's three start
densities (free Gaussian, harmonic and square-well ground states, each
checked by ``grids.check_length`` and normalised by the quadrature of their
grid), and the pseudo-Gaussian density families: Gaussians in the core
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

from dataclasses import dataclass
import math

import numpy as np

from .constants import BOHR, HBAR, K_B
from .errors import NoBoundStateError, ValidationError
from .grids import Field, Grid, check_length, integral

# the documented truncation constant delta / r_0 of the harmonic quantum force
DELTA_OVER_R0 = 0.11785

FAMILIES = ("constant_f", "linear_f", "log_f", "power_f")


@dataclass(frozen=True)
class MaterialParams:
    """Pair-interaction material constants (SI)."""

    mass: float                  # kg
    well_depth: float            # J
    r_0: float                   # m, pair-potential minimum position
    sigma: float | None = None   # m, hard-wall position of the square well
    half_width: float | None = None   # m, Delta: half the square-well width
    depth_factor: float = 0.82   # square-well depth as a fraction of well_depth

    def __post_init__(self):
        for key in ("mass", "well_depth", "r_0"):
            if getattr(self, key) <= 0:
                raise ValidationError(f"material.{key} must be positive")
        if self.half_width is not None and self.half_width <= 0:
            raise ValidationError("material.half_width must be positive")
        if not 0.0 < self.depth_factor <= 1.0:
            raise ValidationError("material.depth_factor must lie in (0, 1]")


def helium_preset() -> MaterialParams:
    """He-4 pair parameters: r_0 = 7.9 Bohr, Delta = 1.54e-10 m, U = 10.9 k_B.

    sigma is left unset, so the square well puts its wall at r_0 - Delta.
    """
    return MaterialParams(mass=6.6465e-27, well_depth=10.9 * K_B,
                          r_0=7.9 * BOHR, half_width=1.54e-10)


@dataclass(frozen=True)
class HarmonicApprox:
    """Harmonic expansion of the pair well about its reduced equilibrium."""

    k: float                     # N/m, curvature U (12/r_0)^2
    q_bar: float                 # m, equilibrium position r_0/2
    E_0: float                   # J, ground level measured from V = 0
    delta: float                 # m, quantum-force truncation distance
    K_0: float                   # 1/m, Gaussian state exponent scale


def lj_harmonic(params: MaterialParams) -> HarmonicApprox:
    """Harmonic approximation: k = U (12/r_0)^2, ground level, truncation delta."""
    m = params.mass
    u, r0 = params.well_depth, params.r_0
    k = u * (12.0 / r0) ** 2
    half_hbar_omega = 0.5 * HBAR * math.sqrt(k / m)
    e0 = half_hbar_omega - u
    k0 = math.sqrt((e0 + u) * m) / HBAR
    return HarmonicApprox(
        k=k,
        q_bar=r0 / 2.0,
        E_0=e0,
        delta=DELTA_OVER_R0 * r0,
        K_0=k0,
    )


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


@dataclass(frozen=True)
class SquareWellState:
    """Lowest bound state of the hard-wall square well."""

    K_0: float                   # 1/m, interior wave number
    E_0: float                   # J, negative bound-state energy
    kappa: float                 # 1/m, exterior decay constant
    sigma: float                 # m, hard wall position
    width: float                 # m, well width 2 Delta
    depth: float                 # J, well depth below zero
    matching_residual: float     # dimensionless residual of z cot z = -sqrt(z0^2-z^2)


def _bisect_root(f, a: float, b: float) -> float:
    """Root of f on [a, b] by bisection, to the last bit.

    Halves the bracket until its midpoint equals an endpoint, then returns
    the endpoint with the smaller |f|: about 52 halvings for a bracket of
    order one.
    """
    f_a, f_b = f(a), f(b)
    if f_a == 0.0:
        return a
    if f_b == 0.0:
        return b
    if (f_a < 0.0) == (f_b < 0.0):
        raise NoBoundStateError("no bound state: matching condition has no root")
    while True:
        mid = 0.5 * (a + b)
        if mid == a or mid == b:
            return a if abs(f_a) <= abs(f_b) else b
        f_mid = f(mid)
        if f_mid == 0.0:
            return mid
        if (f_mid < 0.0) == (f_a < 0.0):
            a, f_a = mid, f_mid
        else:
            b, f_b = mid, f_mid


def square_well_solve(params: MaterialParams) -> SquareWellState:
    """Solve the lowest bound state of the hard-wall square well.

    Geometry: infinite wall at q = sigma, potential -depth on
    (sigma, sigma + 2 Delta), zero beyond.  The interior solution
    sin(K_0 (q - sigma)) must match an exponential tail, which reduces to
    z cot z = -sqrt(z0^2 - z^2) with z = 2 Delta K_0 and
    z0 = 2 Delta sqrt(2 m depth) / hbar, solved by bracketed root finding
    on (pi/2, min(pi, z0)).
    """
    if params.half_width is None:
        raise ValidationError("square well needs half_width (Delta)")
    m = params.mass
    width = 2.0 * params.half_width
    depth = params.depth_factor * params.well_depth
    sigma = params.sigma if params.sigma is not None else params.r_0 - params.half_width
    z0 = width * math.sqrt(2.0 * m * depth) / HBAR
    if z0 <= math.pi / 2.0:
        raise NoBoundStateError(
            f"no bound state: well strength z0 = {z0:.4f} <= pi/2")

    def matching(z: float) -> float:
        return z / math.tan(z) + math.sqrt(max(z0**2 - z**2, 0.0))

    eps = 1e-12
    lo, hi = math.pi / 2.0 + eps, min(math.pi - eps, z0)
    z = _bisect_root(matching, lo, hi)
    k0 = z / width
    e0 = (HBAR * k0) ** 2 / (2.0 * m) - depth
    kappa = math.sqrt(-2.0 * m * e0) / HBAR
    return SquareWellState(
        K_0=k0,
        E_0=e0,
        kappa=kappa,
        sigma=sigma,
        width=width,
        depth=depth,
        matching_residual=abs(matching(z)),
    )


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


@dataclass(frozen=True)
class PseudoGaussianFamily:
    """Gaussian-core density with a family-selected slower tail.

    Built from the [experiment] keys named beside each field, which it
    checks, so a config file's bad value fails when the config loads.
    """

    family: str                  # family: constant_f | linear_f | log_f | power_f
    core_width: float            # m, core_width: sqrt of the core variance Dq2
    lam: float                   # m, tail_scale: tail crossover scale Lambda
    g: float = 2.0               # family_g: power_f exponent, 0 < g <= 2
    h: float = 1.0               # family_h: log_f exponent

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValidationError(f"experiment.family must be one of {FAMILIES}")
        # the width is squared into Dq2, so a negative one would run as
        # its absolute value, and one whose square underflows as Dq2 = 0
        if self.core_width <= 0:
            raise ValidationError("experiment.core_width must be positive")
        if self.delta_q_sq == 0.0:
            raise ValidationError("experiment.core_width^2 underflows to 0")
        if self.lam <= 0:
            raise ValidationError("experiment.tail_scale must be positive")
        # the tail must not disturb the Gaussian core
        if self.lam**2 < 100.0 * self.delta_q_sq:
            raise ValidationError("experiment.tail_scale^2 must be >= 100 "
                                  "experiment.core_width^2")
        if self.family == "power_f" and not 0.0 < self.g <= 2.0:
            raise ValidationError(
                "experiment.family_g must lie in (0, 2] for power_f")
        if self.family == "log_f" and self.h <= 0:
            raise ValidationError("experiment.family_h must be positive for log_f")

    @property
    def delta_q_sq(self) -> float:
        return self.core_width**2

    def shape_f(self, r: np.ndarray) -> np.ndarray:
        s = np.abs(r) / self.core_width
        if self.family == "constant_f":
            return np.ones_like(s)
        if self.family == "linear_f":
            return 1.0 + s
        if self.family == "log_f":
            return 1.0 + np.log1p(s**self.h)
        return 1.0 + s**self.g

    def log_density(self, q: np.ndarray) -> np.ndarray:
        """log n(q), with n(0) = 1; exact in the deep tail."""
        f = self.shape_f(q)
        # 0.0 - x keeps the zero at q = 0 positive
        return 0.0 - q**2 / (
            self.delta_q_sq * (1.0 + q**2 / (self.lam**2 * f)))


def pseudo_gaussian_log_density(fam: PseudoGaussianFamily, grid: Grid) -> Field:
    return Field(grid, fam.log_density(grid.points), "1")
