from dataclasses import asdict

import pytest
from hypothesis import given, settings, strategies as st

from qhydro.cases import (
    HE4_LAMBDA_POINT_K,
    LINDEMANN_BAND,
    helium_lambda,
    helium_state_check,
    lindemann,
)
from qhydro.errors import ValidationError
from qhydro.params import MaterialParams, helium_preset
from qhydro.scales import correlation_length

HE = helium_preset()


def test_lindemann_ratio():
    report = lindemann(HE)
    assert report.lambda_q_over_r0 == pytest.approx(0.23570, abs=0.001)
    assert report.within_empirical_band
    assert report.lambda_q_over_r0 == 2 * report.delta_over_r0


@given(log_u=st.floats(-23.0, -19.0), log_m=st.floats(-27.0, -25.0))
@settings(max_examples=25, deadline=None)
def test_lindemann_invariant_across_materials(log_u, log_m):
    params = MaterialParams(mass=10.0**log_m, well_depth=10.0**log_u,
                            r_0=4e-10)
    report = lindemann(params)
    assert report.lambda_q_over_r0 == pytest.approx(0.23570, abs=0.001)


def test_lindemann_band_constant():
    assert LINDEMANN_BAND == (0.20, 0.25)


def test_helium_lambda_value():
    report = helium_lambda(HE)
    assert report.theta_star_K == pytest.approx(2.4757, abs=0.01)
    assert report.reference_theta_K == HE4_LAMBDA_POINT_K


def test_helium_lambda_forward_consistency():
    report = helium_lambda(HE)
    assert correlation_length(HE.mass, report.theta_star_K) == pytest.approx(
        report.two_delta_m, rel=1e-6)


def test_helium_lambda_scaling():
    doubled = MaterialParams(mass=HE.mass, well_depth=HE.well_depth,
                             r_0=HE.r_0, sigma=HE.sigma,
                             half_width=2 * HE.half_width)
    assert helium_lambda(doubled).theta_star_K == pytest.approx(
        helium_lambda(HE).theta_star_K / 4, rel=1e-12)


def test_helium_lambda_needs_half_width():
    bad = MaterialParams(mass=HE.mass, well_depth=HE.well_depth, r_0=HE.r_0)
    with pytest.raises(ValidationError):
        helium_lambda(bad)


def test_helium_state_report():
    report = helium_state_check(HE)
    assert -5.19 * 1.10 < report.E0_over_kB < -5.19 * 0.90
    assert report.matching_residual < 1e-10
    # the zero interior force is asserted on the sampled operator by
    # test_potentials.py::test_square_well_zero_force_inside
    assert report.ordering_ok
    assert report.lambda_q_over_r0 == pytest.approx(0.2357, abs=0.001)
    # both bookkeepings of 2 Delta / r_0 are reported side by side
    assert report.two_delta_over_r0 == pytest.approx(0.7368, abs=0.001)
    assert report.reference_two_delta_over_r0 == pytest.approx(0.4340)


def test_reports_are_deterministic():
    assert lindemann(HE) == lindemann(HE)
    assert helium_lambda(HE) == helium_lambda(HE)


def test_e0_in_kelvin_band():
    report = helium_state_check(HE)
    assert -5.7 < report.E0_over_kB < -4.7


def test_serialization_dicts():
    # a report's fields are its JSON keys; the band is a field default
    assert asdict(helium_lambda(HE))["theta_star_K"] > 0
    d = asdict(lindemann(HE))
    assert d["within_empirical_band"] is True
    assert d["band"] == LINDEMANN_BAND == (0.20, 0.25)
