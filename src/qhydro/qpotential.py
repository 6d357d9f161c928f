"""Madelung quantum potential, quantum force, and tail-growth classification.

The quantum potential of a density n is

    V_qu = -(hbar^2 / 2m) (d^2 sqrt(n) / dq^2) / sqrt(n)

computed with the stencil kernels of :mod:`qhydro.grids`.  The density under
the square root carries one additive floor, ``floored_density``: max(n, 0)
plus ``DENSITY_FLOOR_FRACTION`` of the peak (the tails of any localized
state underflow long before the grid ends).  ``quantum_potential`` applies it
to a density field; the integrator's step and ``dynamics.observables`` take
the same floor and operations in their workspace.  Every stencil is the
grid's own, so a state's V_qu here is the V_qu it is stepped and measured
with, on either boundary.  For work in the deep tail, where no
floating-point density survives, the same operator is available on
log-densities via the identity

    psi''/psi = (L')^2/4 + L''/2,      L = log n.

A :class:`QuantumForceProfile` is the force field and the origin of radial
distance.  The force-growth classifier fits the exponent a of
|q^-1 dV_qu/dq| ~ q^a over an outer radial window and maps it onto the four
expansion classes, whose labels ``scales`` defines beside its closed-form
decay classifier and ``convergence_test``.  A density family reaches the
nonlocality length by one route: ``quantum_force_from_log`` ->
``growth_exponent`` -> ``scales.nonlocality_length``.
"""

import math

import numpy as np

from .constants import HBAR
from .errors import DegenerateDensityError, TailFitError, ValidationError
from .grids import Field, stencil_derivative
from .params import Record
from .scales import (
    ASYMPTOTICALLY_VANISHING,
    BALLISTIC,
    SUPER_BALLISTIC,
    UNDER_BALLISTIC,
)

# the additive density floor, as a fraction of the peak density
DENSITY_FLOOR_FRACTION = 1e-12

# Fitted-exponent class boundaries sit at 0 (ballistic) and -1
# (convergence of the nonlocality integral); finite-window fits cannot
# resolve exact exponents: ballistic is |a| <= 0.1, convergent a < -1.1.
EXPONENT_TOLERANCE = 0.1

# growth_exponent fits radial distances in [0.75 r_max, 0.95 r_max]: the last
# few percent stay out because the one-sided boundary stencils contaminate them
TAIL_WINDOW = (0.25, 0.05)
MIN_TAIL_POINTS = 8


class QuantumForceProfile(Record):
    """Quantum force -dV_qu/dq on its grid, radial about ``origin``."""

    force: Field                 # N
    origin: float                # q-bar, reference point for radial distance

    def radial(self) -> tuple[np.ndarray, np.ndarray]:
        """(r, |F|) for r = q - origin > 0."""
        q = self.force.grid.points
        mask = q > self.origin
        return q[mask] - self.origin, np.abs(self.force.values[mask])


class DecayClass(Record):
    label: str
    fitted_exponent: float       # a in |q^-1 dV_qu/dq| ~ q^a (-inf for zero force)
    coefficient: float = 0.0     # C in C * q^a over the fit window


def floored_density(n: np.ndarray, peak: float,
                    out: np.ndarray | None = None) -> np.ndarray:
    """max(n, 0) + DENSITY_FLOOR_FRACTION * peak, into ``out`` or a new array."""
    nc = np.maximum(n, 0.0, out=out)
    nc += DENSITY_FLOOR_FRACTION * peak
    return nc


def vqu_from_curvature(d2s: np.ndarray, s: np.ndarray, mass: float) -> np.ndarray:
    """V_qu from s'' = ``d2s`` and s, written over ``d2s``."""
    d2s *= -(HBAR**2 / (2.0 * mass))
    d2s /= s
    return d2s


def quantum_potential(n: Field, mass: float) -> Field:
    """V_qu = -(hbar^2 / 2m) s'' / s of a density field in joules, s the
    square root of its ``floored_density``, with the stencils of its grid."""
    if mass <= 0:
        raise ValidationError("mass must be positive")
    peak = float(np.max(n.values))
    if peak <= 0.0:
        raise DegenerateDensityError("degenerate density: no positive values")
    s = np.sqrt(floored_density(n.values, peak))
    vqu = vqu_from_curvature(stencil_derivative(s, n.grid, 2), s, mass)
    return Field(n.grid, vqu, "J")


def quantum_potential_from_log(log_n: Field, mass: float) -> Field:
    """V_qu evaluated from log n; stable arbitrarily deep in the tail."""
    if mass <= 0:
        raise ValidationError("mass must be positive")
    d1 = stencil_derivative(log_n.values, log_n.grid, 1)
    d2 = stencil_derivative(log_n.values, log_n.grid, 2)
    curv_over_psi = d1**2 / 4.0 + d2 / 2.0
    return Field(log_n.grid, -(HBAR**2 / (2 * mass)) * curv_over_psi, "J")


def _force_from_potential(vqu: Field, origin: float) -> QuantumForceProfile:
    grad = stencil_derivative(vqu.values, vqu.grid, 1)
    return QuantumForceProfile(Field(vqu.grid, -grad, "N"), origin)


def quantum_force(n: Field, mass: float, origin: float) -> QuantumForceProfile:
    """-dV_qu/dq from a density field, through the density floor."""
    return _force_from_potential(quantum_potential(n, mass), origin)


def quantum_force_from_log(log_n: Field, mass: float, origin: float) -> QuantumForceProfile:
    """-dV_qu/dq from a log-density field; exact deep in the tail."""
    return _force_from_potential(quantum_potential_from_log(log_n, mass), origin)


def growth_exponent(profile: QuantumForceProfile) -> DecayClass:
    """Fit |q^-1 dV_qu/dq| ~ q^a over the ``TAIL_WINDOW`` and classify."""
    r, f = profile.radial()
    if r.size == 0:
        raise TailFitError("profile has no points beyond its origin")
    r_max = r[-1]
    lo, hi = (1.0 - TAIL_WINDOW[0]) * r_max, (1.0 - TAIL_WINDOW[1]) * r_max
    window = (r >= lo) & (r <= hi)
    if np.count_nonzero(window) < MIN_TAIL_POINTS:
        raise TailFitError(
            f"fewer than {MIN_TAIL_POINTS} usable points in the tail window")
    rw, fw = r[window], f[window]
    peak_all = float(np.max(f))
    # force indistinguishable from zero on the window: vanishing class
    if peak_all == 0.0 or float(np.max(fw)) <= 1e-12 * peak_all:
        return DecayClass(ASYMPTOTICALLY_VANISHING, -math.inf, 0.0)
    integrand = fw / rw
    keep = integrand > 1e-12 * np.max(integrand)
    if np.count_nonzero(keep) < MIN_TAIL_POINTS:
        raise TailFitError("tail window dominated by zero-force points")
    slope, intercept = np.polyfit(np.log(rw[keep]), np.log(integrand[keep]), 1)
    return _classify_exponent(float(slope), float(np.exp(intercept)))


def _classify_exponent(a: float, coeff: float) -> DecayClass:
    tol = EXPONENT_TOLERANCE
    if a > tol:
        label = SUPER_BALLISTIC
    elif a >= -tol:
        label = BALLISTIC
    elif a >= -1.0 - tol:
        label = UNDER_BALLISTIC
    else:
        label = ASYMPTOTICALLY_VANISHING
    return DecayClass(label, a, coeff)
