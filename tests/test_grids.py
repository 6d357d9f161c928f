import numpy as np
import pytest
from hypothesis import given, strategies as st

from qhydro.errors import UnderResolvedError, ValidationError
from qhydro.grids import (
    Field,
    Grid,
    integral,
    quadrature_weights,
    stencil_derivative,
)
from qhydro.params import check_length


def test_spacing_simple():
    assert Grid(0, 1, 11).spacing == pytest.approx(0.1)


def test_spacing_physical():
    assert Grid(-5e-10, 5e-10, 2001).spacing == pytest.approx(5e-13)


def test_empty_domain_rejected():
    with pytest.raises(ValidationError, match="empty domain"):
        Grid(1, 0, 11)


def test_too_few_points_rejected():
    with pytest.raises(ValidationError):
        Grid(0, 1, 7)


def test_nonfinite_bounds_rejected():
    with pytest.raises(ValidationError):
        Grid(0, np.inf, 11)


def test_points_uniform():
    grid = Grid(-2.0, 3.0, 101)
    diffs = np.diff(grid.points)
    assert np.allclose(diffs, grid.spacing, rtol=0, atol=1e-14)


@pytest.mark.parametrize("periodic", [False, True])
def test_check_length_needs_two_cells(periodic):
    grid = Grid(0.0, 1.0, 11, periodic)          # h = 0.1
    check_length("w", 0.2000001, grid, what="x")
    for length in (0.2, 0.1, 0.0):
        with pytest.raises(UnderResolvedError, match=(
                r"^under-resolved x: spacing 1\.000e-01 m must be below "
                r"w/2 = ")):
            check_length("w", length, grid, what="x")


@pytest.mark.parametrize("periodic", [False, True])
def test_check_length_support_includes_the_ends(periodic):
    grid = Grid(-2.0, 2.0, 401, periodic)
    check_length("w", 1.0, grid, ("c +- 2 w", -2.0, 2.0), what="x")
    for lo, hi in ((-2.0 - 1e-9, 0.0), (0.0, 2.0 + 1e-9), (3.0, 4.0)):
        with pytest.raises(ValidationError, match=(
                r"^x needs \[.*\] m \(c \+- 2 w\) inside the grid "
                r"\[-2\.000e\+00, 2\.000e\+00\] m$")):
            check_length("w", 1.0, grid, ("c +- 2 w", lo, hi), what="x")


def test_field_shape_mismatch():
    grid = Grid(0, 1, 11)
    with pytest.raises(ValidationError):
        Field(grid, np.zeros(10))


def test_field_rejects_nan():
    grid = Grid(0, 1, 11)
    values = np.zeros(11)
    values[3] = np.nan
    with pytest.raises(ValidationError):
        Field(grid, values)


def test_field_values_immutable():
    grid = Grid(0, 1, 11)
    f = Field(grid, np.zeros(11))
    with pytest.raises(ValueError):
        f.values[0] = 1.0


def test_derivative_quadratic_exact():
    grid = Grid(-1, 1, 201)
    f = Field(grid, grid.points**2)
    d = stencil_derivative(f.values, grid, 1)
    assert np.max(np.abs(d[1:-1] - 2 * grid.points[1:-1])) < 1e-10


def test_second_derivative_sine():
    grid = Grid(0, 2 * np.pi, 401)
    f = Field(grid, np.sin(grid.points))
    d2 = stencil_derivative(f.values, grid, 2)
    assert np.max(np.abs(d2 + np.sin(grid.points))) < 2 * grid.spacing**2


def test_derivative_constant_is_zero():
    grid = Grid(0, 1, 64)
    f = Field(grid, np.full(64, 3.7))
    assert np.all(stencil_derivative(f.values, grid, 1) == 0)
    assert np.all(stencil_derivative(f.values, grid, 2) == 0)


def test_derivative_bad_order():
    grid = Grid(0, 1, 11)
    with pytest.raises(ValidationError):
        stencil_derivative(np.zeros(11), grid, 3)


BOUNDARIES = pytest.mark.parametrize("periodic", [False, True])


def integrate(values, grid):
    return float(integral(values, grid))


def test_integrate_constant():
    grid = Grid(0, 1, 101)
    assert integrate(np.ones(101), grid) == pytest.approx(1.0)


def test_integrate_constant_over_the_period():
    # a periodic grid's N points each own a cell: the period is N h, not
    # the q_max - q_min between the first and the last point
    grid = Grid(0, 1, 101, periodic=True)
    assert integrate(np.ones(101), grid) == pytest.approx(
        101 * grid.spacing, rel=1e-15)


@BOUNDARIES
def test_length_is_the_measure_of_the_quadrature(periodic):
    # q_max - q_min between walls, the period N h on a periodic grid: the
    # integral of a constant over the domain, to the last bit or two
    grid = Grid(-1.5, 2.5, 101, periodic=periodic)
    assert grid.length == (101 * grid.spacing if periodic else 4.0)
    assert integrate(np.ones(101), grid) == pytest.approx(grid.length,
                                                          rel=1e-15)


def test_integrate_normalized_gaussian():
    grid = Grid(-10, 10, 4001)
    n = np.exp(-grid.points**2 / 2) / np.sqrt(2 * np.pi)
    assert integrate(n, grid) == pytest.approx(1.0, abs=1e-8)


def test_periodic_integral_of_a_whole_period_of_sine():
    # the wrap-around cell closes the period, so a whole period of sine
    # integrates to zero and of sin^2 to half the period
    n_points = 256
    period = 2 * np.pi
    grid = Grid(0, period * (n_points - 1) / n_points, n_points, periodic=True)
    q = grid.points
    assert abs(integrate(np.sin(q), grid)) < 1e-13
    assert integrate(np.sin(q) ** 2, grid) == pytest.approx(
        period / 2, rel=1e-13)


def test_integrate_odd_function():
    for periodic in (False, True):
        grid = Grid(-1, 1, 201, periodic=periodic)
        assert abs(integrate(grid.points, grid)) < 1e-12


@given(a=st.floats(-10, 10), b=st.floats(-10, 10))
def test_integrate_linear(a, b):
    for periodic in (False, True):
        grid = Grid(0, 2, 101, periodic=periodic)
        f = np.sin(grid.points)
        g = np.cos(3 * grid.points)
        combined = integrate(a * f + b * g, grid)
        split = a * integrate(f, grid) + b * integrate(g, grid)
        assert combined == pytest.approx(split, abs=1e-12)


@BOUNDARIES
@pytest.mark.parametrize("n_points", [8, 101, 801])
def test_integral_is_weights_dot_values(periodic, n_points):
    # the two sum in different orders, so they agree to a few ulps of the
    # sum of |w f|
    grid = Grid(-1.5, 2.5, n_points, periodic=periodic)
    f = np.random.default_rng(n_points).uniform(0.5, 2.0, n_points)
    w = quadrature_weights(grid)
    scale = float(np.abs(w) @ np.abs(f))
    assert abs(integrate(f, grid) - float(w @ f)) <= 4 * np.spacing(scale)


@BOUNDARIES
def test_integral_along_an_axis_is_the_integral_of_each_row(periodic):
    grid = Grid(0, 1, 33, periodic=periodic)
    rows = np.random.default_rng(0).standard_normal((5, 33))
    each = [integral(row, grid) for row in rows]
    assert np.array_equal(integral(rows, grid, axis=1), each)


def test_repeated_first_derivative_matches_second():
    grid = Grid(0, 3, 601)
    f = Field(grid, np.exp(-grid.points) * np.sin(4 * grid.points))
    dd = stencil_derivative(stencil_derivative(f.values, grid, 1), grid, 1)
    d2 = stencil_derivative(f.values, grid, 2)
    interior = slice(4, -4)
    assert np.max(np.abs(dd[interior] - d2[interior])) < 100 * grid.spacing**2

