"""Correlation and nonlocality length scales and dynamical-regime labels.

Three lengths organize the dynamics: the noise correlation length

    lambda_c = (pi/2)^{3/2} hbar / sqrt(2 m k_B Theta),

the nonlocality length lambda_q (a weighted range of the quantum force),
and the characteristic physical length Delta_L of the problem at hand.
Comparing Delta_L against lambda_c and lambda_q selects one of three
dynamical regimes; a separate classifier maps the tail-decay exponent h
of the wave function modulus onto the same four force-growth classes used
by the numeric tail fit.  lambda_q is finite exactly when that fit's
class is asymptotically vanishing (``convergence_test``).

lambda_c, the two classifiers and the class labels are closed forms, so
this module imports no numpy: lambda-c and classify run on it alone.
``nonlocality_length`` integrates a force profile, given its tail fit
(``qpotential.growth_exponent``), with ``grids.integral``, which it
imports with numpy when it is called.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

from .constants import HBAR, K_B
from .errors import NumericalError, ValidationError

if TYPE_CHECKING:
    from .qpotential import DecayClass, QuantumForceProfile

NONLOCAL_DETERMINISTIC = "nonlocal_deterministic"
NONLOCAL_STOCHASTIC = "nonlocal_stochastic"
LOCAL_STOCHASTIC = "local_stochastic"
INDETERMINATE = "indeterminate"

# the four force-growth classes, shared by classify_decay and the tail fit
# (qpotential.growth_exponent)
SUPER_BALLISTIC = "super_ballistic"
BALLISTIC = "ballistic"
UNDER_BALLISTIC = "under_ballistic"
ASYMPTOTICALLY_VANISHING = "asymptotically_vanishing"

# operationalizes "much smaller than" in classify_regime: one length is
# much smaller than another when it is at most this fraction of it
DEFAULT_RATIO_THRESHOLD = 0.1


def correlation_length(mass: float, theta: float) -> float:
    """lambda_c = (pi/2)^{3/2} hbar / sqrt(2 m k_B Theta); inf at Theta = 0."""
    if mass <= 0:
        raise ValidationError("mass must be positive")
    if theta < 0:
        raise ValidationError("theta must be >= 0")
    if theta == 0.0:
        # deterministic quantum limit: correlations extend everywhere
        return math.inf
    return (math.pi / 2) ** 1.5 * HBAR / math.sqrt(2.0 * mass * K_B * theta)


def convergence_test(decay: DecayClass) -> bool:
    """True iff the weighted-range integral of the force converges.

    The integrand |q^-1 dV_qu/dq| must fall off faster than q^-1, which is
    the asymptotically vanishing class that ``growth_exponent`` assigns.
    """
    return decay.label == ASYMPTOTICALLY_VANISHING


def nonlocality_length(profile: QuantumForceProfile, lambda_c: float,
                       decay: DecayClass) -> float:
    """Weighted range of the quantum force about the profile origin.

    lambda_q = 2 int_0^inf |r^-1 F(r)| dr / (lambda_c^-1 |F(lambda_c)|),
    realized as ``grids.integral`` over the radial samples, one panel from
    r = 0, and a closed-form power-law tail from ``decay``, the profile's
    tail fit (``qpotential.growth_exponent``).  Returns ``math.inf`` when
    the integral diverges (convergence test fails).
    """
    import numpy as np

    from .grids import Grid, integral

    if lambda_c <= 0:
        raise ValidationError("lambda_c must be positive")
    r, f = profile.radial()
    if r.size < 8:
        raise ValidationError("profile too short to integrate")
    if not convergence_test(decay):
        return math.inf

    if lambda_c > r[-1]:
        raise NumericalError(
            "lambda_q undefined at this lambda_c: beyond the force support")
    force_at_lc = float(np.interp(lambda_c, r, f))
    if force_at_lc <= 0.0:
        raise NumericalError("lambda_q undefined at this lambda_c: zero force")

    cutoff = r[-1]
    integrand = f / r
    total = float(integral(integrand, Grid(r[0], cutoff, r.size)))
    # the panel from r = 0 (radial() keeps r > 0), where the integrand is
    # extended by linear extrapolation of the first two points
    slope0 = (integrand[1] - integrand[0]) / (r[1] - r[0])
    i0 = max(integrand[0] - slope0 * r[0], 0.0)
    total += (i0 + integrand[0]) * r[0] / 2

    # analytic tail: integrand ~ C r^a beyond the grid end with a < -1
    a = decay.fitted_exponent
    if a != -math.inf and decay.coefficient > 0.0:
        total += decay.coefficient * cutoff ** (a + 1.0) / (-1.0 - a)

    return 2.0 * total / (force_at_lc / lambda_c)


def classify_regime(delta_L: float, lambda_c: float, lambda_q: float,
                    ratio_threshold: float = DEFAULT_RATIO_THRESHOLD) -> str:
    """Map (Delta_L, lambda_c, lambda_q) onto a dynamical-regime label."""
    if delta_L <= 0 or lambda_c <= 0 or lambda_q < 0:
        raise ValidationError("lengths must be positive")
    if not 0.0 < ratio_threshold < 1.0:
        raise ValidationError("ratio_threshold must lie in (0, 1)")
    ratio = ratio_threshold
    if delta_L <= ratio * min(lambda_c, lambda_q):
        return NONLOCAL_DETERMINISTIC
    if lambda_c < delta_L <= ratio * lambda_q:
        return NONLOCAL_STOCHASTIC
    if max(lambda_c, lambda_q) <= ratio * delta_L:
        return LOCAL_STOCHASTIC
    return INDETERMINATE


def classify_decay(h: float) -> str:
    """Class label from the tail-decay exponent h of the wave function modulus."""
    if h <= 0:
        raise ValidationError("decay exponent h must be positive")
    if abs(h - 2.0) <= 1e-9:
        return BALLISTIC
    if h > 2.0:
        return SUPER_BALLISTIC
    if h >= 1.5:
        return UNDER_BALLISTIC
    return ASYMPTOTICALLY_VANISHING
