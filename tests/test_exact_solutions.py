"""Code verification by observed order against the free-Gaussian closed form.

With tau = 2 m sigma0^2 / hbar the free Madelung Gaussian is

    sigma^2 = sigma0^2 (1 + (t/tau)^2)
    v = q t / (tau^2 + t^2)

The criterion-4 packet runs to t = sqrt(3) tau, where its width doubles.
Errors are relative L2 norms: n over the whole grid, v over the core
where the exact n exceeds 0.1 of its peak (only floor density lives in
the far field, where v is not defined by the flow and does not
converge).  The spatial order is read between N = 151 and 301 at the
default step bound, the temporal order at fixed N = 151 from successive
halvings of dt (Roache, J. Fluids Eng. 124, 4, 2002).
"""

import math

import numpy as np

from qhydro.constants import HBAR
from qhydro.dynamics import IntegratorConfig, cfl_limit, initial_state, run
from qhydro.grids import Field, Grid
from qhydro.params import helium_preset

MASS = helium_preset().mass
SIGMA0 = 1e-10
TAU = 2 * MASS * SIGMA0**2 / HBAR
T_END = math.sqrt(3.0) * TAU
CORE = 0.1

# measured spatial orders between N = 151 and 301: n 2.04, v 2.02; errors
# at N = 301: n 3.73e-4, v 1.12e-3.  The band leaves 0.15 of margin on the
# order, the error bounds 1.6x and more.
SPATIAL_ORDER_BAND = (1.8, 2.2)
ERROR_BOUNDS_301 = {"n": 6e-4, "v": 2e-3}
# measured temporal orders at N = 151 from dt/2 -> dt/4 -> dt/8 of the
# default bound dt: n 3.96, v 4.07.  The first halving, from dt
# itself, reads 3.4-3.5: there rho dt = 1.13 and RK4 is not yet in its
# asymptotic range.
TEMPORAL_ORDER_BAND = (3.7, 4.3)


def exact(q, t):
    var = SIGMA0**2 * (1.0 + (t / TAU) ** 2)
    n = np.exp(-q**2 / (2.0 * var)) / math.sqrt(2.0 * math.pi * var)
    v = q * t / (TAU**2 + t**2)
    return np.array((n, v))


def final_state(n_points, halvings=0):
    """[n, v] at T_END, in a whole number of steps at or under the bound."""
    grid = Grid(-1.5e-9, 1.5e-9, n_points)
    steps = math.ceil(T_END / cfl_limit(MASS, grid.spacing)) * 2**halvings
    cfg = IntegratorConfig(dt=T_END / steps)
    density = Field(grid, exact(grid.points, 0.0)[0], "1/m")
    potential = Field(grid, np.zeros(n_points), "J")
    trajectory = run(initial_state(density), potential, MASS, None, cfg,
                     T_END, output_stride=steps)
    assert trajectory.completed
    return trajectory.final_state


def relative_l2(got, want, core):
    """Relative L2 distances of the rows [n, v], v on the core."""
    return {name: float(np.linalg.norm(got[row][mask] - want[row][mask])
                        / np.linalg.norm(want[row][mask]))
            for row, (name, mask) in enumerate(
                (("n", slice(None)), ("v", core)))}


def spatial_errors(n_points):
    state = final_state(n_points)
    want = exact(state.grid.points, state.time)
    return relative_l2(state.y, want, want[0] > CORE * want[0].max())


def test_free_gaussian_spatial_order():
    coarse, fine = spatial_errors(151), spatial_errors(301)
    for name, bound in ERROR_BOUNDS_301.items():
        assert fine[name] < bound, name
        order = math.log2(coarse[name] / fine[name])
        assert SPATIAL_ORDER_BAND[0] < order < SPATIAL_ORDER_BAND[1], (
            name, order)


def test_free_gaussian_temporal_order():
    states = [final_state(151, k) for k in (1, 2, 3)]
    n_exact = exact(states[0].grid.points, T_END)[0]
    core = n_exact > CORE * n_exact.max()
    a, b, c = (state.y for state in states)
    # successive differences shrink by 2^p when dt halves
    coarse, fine = relative_l2(a, b, core), relative_l2(b, c, core)
    for name in coarse:
        order = math.log2(coarse[name] / fine[name])
        assert TEMPORAL_ORDER_BAND[0] < order < TEMPORAL_ORDER_BAND[1], (
            name, order)
