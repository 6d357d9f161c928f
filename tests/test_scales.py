import json
import math
import platform
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qhydro.cli import main
from qhydro.errors import NumericalError, ValidationError
from qhydro.grids import Field, Grid
from qhydro.qpotential import (
    ASYMPTOTICALLY_VANISHING,
    BALLISTIC,
    DecayClass,
    SUPER_BALLISTIC,
    UNDER_BALLISTIC,
    QuantumForceProfile,
    growth_exponent,
)
from qhydro.scales import (
    INDETERMINATE,
    LOCAL_STOCHASTIC,
    NONLOCAL_DETERMINISTIC,
    NONLOCAL_STOCHASTIC,
    classify_decay,
    classify_regime,
    convergence_test,
    correlation_length,
    nonlocality_length,
)

HE_MASS = 6.6465e-27


def truncated_linear_profile(k=1.0, delta=1.0, n=4003):
    # force k r on (0, delta], zero beyond; the cutoff sits halfway
    # between grid points so the quadrature is exact across the jump
    grid = Grid(0.0, 4.0 * delta, n)
    r = grid.points
    force = np.where(r > delta, 0.0, k * r)
    return QuantumForceProfile(Field(grid, force, "N"), 0.0)


def linear_profile(k=1.0, r_max=10.0, n=2001):
    grid = Grid(0.0, r_max, n)
    return QuantumForceProfile(Field(grid, k * grid.points, "N"), 0.0)


def test_helium_correlation_length():
    # frozen oracle: (pi/2)^1.5 hbar / sqrt(2 m k_B Theta) at 2.17 K
    assert correlation_length(HE_MASS, 2.17) == pytest.approx(3.2898e-10, rel=1e-4)


def test_quadrupling_theta_halves_length():
    base = correlation_length(HE_MASS, 1.3)
    assert correlation_length(HE_MASS, 5.2) == pytest.approx(base / 2, rel=1e-14)


def test_zero_theta_infinite():
    assert math.isinf(correlation_length(HE_MASS, 0.0))


def test_bad_inputs():
    with pytest.raises(ValidationError):
        correlation_length(-1.0, 1.0)
    with pytest.raises(ValidationError):
        correlation_length(HE_MASS, -1.0)


@given(mass=st.floats(1e-27, 1e-24), theta=st.floats(0.01, 100.0))
@settings(max_examples=50)
def test_scaling_invariant(mass, theta):
    # lambda_c * sqrt(m Theta) is a universal constant
    value = correlation_length(mass, theta) * math.sqrt(mass * theta)
    reference = correlation_length(HE_MASS, 2.17) * math.sqrt(HE_MASS * 2.17)
    assert value == pytest.approx(reference, rel=1e-12)


def test_convergence_vanishing_true():
    grid = Grid(0.0, 1e3, 2001)
    r = grid.points
    force = np.zeros_like(r)
    force[1:] = r[1:] ** (-1.0)      # integrand ~ r^-2
    profile = QuantumForceProfile(Field(grid, force, "N"), 0.0)
    assert convergence_test(growth_exponent(profile))


def test_convergence_ballistic_false():
    assert not convergence_test(growth_exponent(linear_profile()))


def test_convergence_zero_force_true():
    grid = Grid(0.0, 10.0, 101)
    profile = QuantumForceProfile(Field(grid, np.zeros(101), "N"), 0.0)
    assert convergence_test(growth_exponent(profile))


def test_truncated_linear_gives_two_delta():
    delta = 3.3e-10
    profile = truncated_linear_profile(k=0.12, delta=delta)
    lam_q = nonlocality_length(profile, delta / 2,
                               growth_exponent(profile))
    assert lam_q == pytest.approx(2 * delta, rel=1e-3)


@given(log_k=st.floats(-3.0, 3.0), lc_frac=st.floats(0.05, 0.95))
@settings(max_examples=30, deadline=None)
def test_truncated_linear_independent_of_k_and_lambda_c(log_k, lc_frac):
    delta = 1.0
    profile = truncated_linear_profile(k=10.0**log_k, delta=delta)
    lam_q = nonlocality_length(profile, lc_frac * delta,
                               growth_exponent(profile))
    assert lam_q == pytest.approx(2 * delta, rel=1e-3)


def trapezoid_reference(profile, lambda_c, decay):
    """lambda_q by the rule grids.integral replaced: np.trapezoid over the
    radii [0, r...], the integrand at r = 0 extrapolated from its first two
    values, plus the same closed-form tail."""
    r, f = profile.radial()
    integrand = f / r
    slope0 = (integrand[1] - integrand[0]) / (r[1] - r[0])
    i0 = max(integrand[0] - slope0 * r[0], 0.0)
    total = float(np.trapezoid(np.concatenate(([i0], integrand)),
                               np.concatenate(([0.0], r))))
    a = decay.fitted_exponent
    if decay.coefficient > 0.0:
        total += decay.coefficient * r[-1] ** (a + 1.0) / (-1.0 - a)
    return 2.0 * total / (float(np.interp(lambda_c, r, f)) / lambda_c)


# The two rules differ in the panel widths: np.trapezoid takes each from
# diff(r), whose radii r = q - origin each carry a rounding of about
# eps |q|, where grids.integral takes the grid's one spacing h.  Over
# 40,000 random draws of the ranges below and their corners the relative
# difference reached 1.17 eps max|q| / h (9.6e-13 at N = 3,000).
REFERENCE_RTOL_PER_Q_OVER_H = 3.0 * np.finfo(float).eps


@pytest.mark.parametrize("between", [False, True], ids=["on_point", "between"])
@given(n=st.integers(16, 3000), log_length=st.floats(-12.0, 8.0),
       offset=st.floats(-1.0, 1.0), start=st.floats(0.0, 1.0),
       fraction=st.floats(0.01, 0.99), power=st.floats(2.2, 6.0),
       log_width=st.floats(-1.5, 0.0), log_k=st.floats(-30.0, 10.0),
       lc_frac=st.floats(0.05, 0.9), tail=st.floats(0.0, 1.0))
@settings(max_examples=60, deadline=None)
def test_nonlocality_length_matches_trapezoid_reference(
        between, n, log_length, offset, start, fraction, power, log_width,
        log_k, lc_frac, tail):
    # F = k r / (1 + (r / L)^p): positive and decaying as r^(1 - p), with
    # the origin on a grid point or between two
    length = 10.0**log_length
    grid = Grid(offset * length, (offset + 1.0) * length, n)
    q = grid.points
    origin = float(q[int(start * (n - 11))])
    if between:
        origin += fraction * grid.spacing
    r_max = float(q[-1]) - origin
    width, k = r_max * 10.0**log_width, 10.0**log_k
    r = np.abs(q - origin)
    profile = QuantumForceProfile(
        Field(grid, k * r / (1.0 + (r / width) ** power), "N"), origin)
    decay = DecayClass(ASYMPTOTICALLY_VANISHING, 1.0 - power,
                       tail * k * width**power)
    lambda_c = lc_frac * r_max
    want = trapezoid_reference(profile, lambda_c, decay)
    got = nonlocality_length(profile, lambda_c, decay)
    scale = max(abs(grid.q_min), abs(grid.q_max)) / grid.spacing
    assert abs(got - want) <= REFERENCE_RTOL_PER_Q_OVER_H * scale * abs(want)


GOLDEN = json.loads(
    (Path(__file__).resolve().parent / "golden.json").read_text())


@pytest.mark.skipif(
    GOLDEN["environment"] != {"numpy": np.__version__,
                              "machine": platform.machine()},
    reason="the golden table's numpy and machine fix lambda_q's bits")
def test_readme_lambda_q_keeps_its_bits(tmp_path):
    # the README's slow-tail lambda-q call, JSON record and all
    out = tmp_path / "lambda_q.json"
    assert main(["lambda-q", "--set", "experiment.family=power_f",
                 "--set", "experiment.family_g=1.4",
                 "--set", "grid.q_max=3e6 m", "--set", "grid.n_points=120001",
                 "--set", "noise.lambda_c=2.0 m", "--json", str(out)]) == 0
    assert json.loads(out.read_text())["results"]["lambda_q_m"] \
        == 4317.784169338138


def test_untruncated_linear_is_infinite():
    profile = linear_profile()
    assert math.isinf(nonlocality_length(profile, 1.0, growth_exponent(profile)))


@pytest.mark.parametrize("lambda_c", [0.0, -1.0])
def test_nonpositive_lambda_c_is_rejected(lambda_c):
    profile = truncated_linear_profile(delta=1.0)
    with pytest.raises(ValidationError, match="lambda_c must be positive"):
        nonlocality_length(profile, lambda_c, growth_exponent(profile))


def test_short_profile_is_rejected():
    grid = Grid(0.0, 1.0, 8)
    # seven points lie beyond the origin, too few for a tail fit too
    profile = QuantumForceProfile(Field(grid, grid.points, "N"), 0.0)
    decay = DecayClass(ASYMPTOTICALLY_VANISHING, -2.0, 1.0)
    with pytest.raises(ValidationError, match="profile too short to integrate"):
        nonlocality_length(profile, 0.5, decay)


def test_lambda_c_beyond_support_is_error():
    profile = truncated_linear_profile(delta=1.0)
    with pytest.raises(NumericalError, match="lambda_q undefined"):
        nonlocality_length(profile, 10.0, growth_exponent(profile))


def test_zero_force_at_lambda_c_is_error():
    profile = truncated_linear_profile(delta=1.0)
    # inside the grid but beyond the truncation radius: no force there
    with pytest.raises(NumericalError, match="lambda_q undefined"):
        nonlocality_length(profile, 3.0, growth_exponent(profile))


def test_regime_examples():
    lc = 1.0
    assert classify_regime(lc / 100, lc, lc) == NONLOCAL_DETERMINISTIC
    assert classify_regime(2 * lc, lc, 200 * lc * 100) == NONLOCAL_STOCHASTIC
    assert classify_regime(100 * 2.0, lc, 2.0) == LOCAL_STOCHASTIC
    assert classify_regime(1.5 * lc, lc, 2 * lc) == INDETERMINATE


def test_regime_infinite_lambda_q():
    assert classify_regime(0.001, 1.0, math.inf) == NONLOCAL_DETERMINISTIC
    assert classify_regime(2.0, 1.0, math.inf) == NONLOCAL_STOCHASTIC


def test_regime_validation():
    with pytest.raises(ValidationError):
        classify_regime(-1.0, 1.0, 1.0)
    with pytest.raises(ValidationError):
        classify_regime(1.0, 1.0, 1.0, ratio_threshold=1.5)


@given(scale=st.floats(0.001, 1000.0))
@settings(max_examples=60)
def test_regime_monotone_in_delta_l(scale):
    # growing Delta_L never moves the label back toward the deterministic
    # end; indeterminate gaps between the named regimes are allowed
    order = {NONLOCAL_DETERMINISTIC: 0, NONLOCAL_STOCHASTIC: 1,
             LOCAL_STOCHASTIC: 2}
    lc, lq = 1.0, 50.0
    labels = [classify_regime(d, lc, lq)
              for d in sorted({scale * f for f in (0.01, 0.1, 1, 10, 100, 1e4)})]
    ranks = [order[label] for label in labels if label in order]
    assert ranks == sorted(ranks)


@pytest.mark.parametrize("h,label", [
    (2.0, BALLISTIC),
    (1.0, ASYMPTOTICALLY_VANISHING),
    (1.7, UNDER_BALLISTIC),
    (1.5, UNDER_BALLISTIC),
    (2.5, SUPER_BALLISTIC),
    # ballistic is h = 2 to within 1e-9
    (2.0 + 1e-7, SUPER_BALLISTIC),
    (2.0 - 1e-7, UNDER_BALLISTIC),
])
def test_classify_decay(h, label):
    assert classify_decay(h) == label


def test_classify_decay_invalid():
    with pytest.raises(ValidationError):
        classify_decay(0.0)
