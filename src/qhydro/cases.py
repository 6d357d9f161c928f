"""Turn-key quantitative experiments: melting-ratio and lambda-point checks.

Two desk-scale results fall out of the length-scale machinery:

  * The nonlocality length of a harmonically bound pair, with the quantum
    force truncated at the distance delta where it becomes negligible, is
    lambda_q = 2 delta = 0.23570 r_0: inside the empirical Lindemann band
    of 0.20 to 0.25 lattice spacings at melting.

  * Equating the noise correlation length lambda_c(Theta) to the helium
    dimer well width 2 Delta picks out a noise amplitude Theta* close to
    the He-4 lambda-transition temperature of 2.17 K.

Each report's fields are the keys of its JSON results, with the unit in
the name, and ``case`` writes the report's ``as_dict()``.

The three studies, ``lindemann``, ``helium_lambda`` and
``helium_state_check`` (the dimer bound state set beside lambda_q), are
closed forms on the scalar layer, so neither importing this module nor
running a case loads numpy.
"""

from .constants import K_B
from .errors import ValidationError
from .params import MaterialParams, Record, lj_harmonic, square_well_solve
from .scales import correlation_length

LINDEMANN_BAND = (0.20, 0.25)

# commonly quoted He-4 lambda-transition temperature, kept for comparison
HE4_LAMBDA_POINT_K = 2.17
# quoted reference ratio for 2*Delta/r_0; inconsistent with the SI preset
# values, which give about 0.737 (both are reported, neither adjusted)
REFERENCE_TWO_DELTA_OVER_R0 = 0.4340


class LindemannReport(Record):
    lambda_q_over_r0: float
    delta_over_r0: float
    within_empirical_band: bool
    lambda_q_m: float
    delta_m: float
    band: tuple[float, float] = LINDEMANN_BAND


def lindemann(params: MaterialParams) -> LindemannReport:
    """Nonlocality length of the harmonically bound pair, over r_0.

    The Gaussian ground state of the harmonic well exerts the linear
    quantum force k (q - q_bar); beyond the distance delta the force is
    negligible and is dropped entirely.  The weighted-range quadrature of
    that profile is 2 delta regardless of k, the material constants, or
    the probe length lambda_c (tests/test_scales.py checks it on a grid),
    so lambda_q is 2 delta.
    """
    delta = lj_harmonic(params).delta
    lam_q = 2.0 * delta
    ratio = lam_q / params.r_0
    within = LINDEMANN_BAND[0] <= ratio <= LINDEMANN_BAND[1]
    return LindemannReport(ratio, delta / params.r_0, within, lam_q, delta)


class LambdaPointReport(Record):
    theta_star_K: float          # solves lambda_c(Theta) = 2 Delta
    reference_theta_K: float     # quoted transition temperature
    lambda_c_at_theta_star_m: float
    lambda_c_at_reference_m: float
    two_delta_m: float
    note: str = ("theta_star inverts the correlation-length formula at "
                 "lambda_c = 2 Delta with CODATA constants; the quoted "
                 "2.17 K is shown alongside, not reproduced exactly")


def helium_lambda(params: MaterialParams) -> LambdaPointReport:
    """Noise amplitude at which lambda_c reaches the dimer well width."""
    if params.half_width is None:
        raise ValidationError("helium_lambda needs a half_width")
    two_delta = 2.0 * params.half_width
    # lambda_c scales as Theta^(-1/2), so it reaches 2 Delta at this Theta
    theta_star = (correlation_length(params.mass, 1.0) / two_delta) ** 2
    return LambdaPointReport(
        theta_star_K=theta_star,
        reference_theta_K=HE4_LAMBDA_POINT_K,
        lambda_c_at_theta_star_m=correlation_length(params.mass, theta_star),
        lambda_c_at_reference_m=correlation_length(params.mass,
                                                   HE4_LAMBDA_POINT_K),
        two_delta_m=two_delta,
    )


class HeliumStateReport(Record):
    E0_over_kB: float            # bound-state energy in kelvin units
    K0_per_m: float
    matching_residual: float
    lambda_q_over_r0: float      # harmonic estimate
    two_delta_over_r0: float     # from the SI preset values
    reference_two_delta_over_r0: float
    ordering_ok: bool            # lambda_q estimate < 2 Delta


def helium_state_check(params: MaterialParams) -> HeliumStateReport:
    """Solve the dimer square well and set its width beside lambda_q.

    Inside the well n = sin^2(K_0 x), so V_qu = hbar^2 K_0^2 / 2m is flat
    and the quantum force is exactly zero there (tests/test_potentials.py
    checks the sampled operator on that profile).
    """
    state = square_well_solve(params)
    lam_q_ratio = lindemann(params).lambda_q_over_r0
    two_delta_ratio = state.width / params.r_0
    return HeliumStateReport(
        E0_over_kB=state.E_0 / K_B,
        K0_per_m=state.K_0,
        matching_residual=state.matching_residual,
        lambda_q_over_r0=lam_q_ratio,
        two_delta_over_r0=two_delta_ratio,
        reference_two_delta_over_r0=REFERENCE_TWO_DELTA_OVER_R0,
        ordering_ok=lam_q_ratio < min(two_delta_ratio,
                                      REFERENCE_TWO_DELTA_OVER_R0),
    )
