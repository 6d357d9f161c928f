"""Time integration of the hydrodynamic density-velocity system.

The deterministic core advances

    dn/dt = -d(n v)/dq
    dv/dt = -v dv/dq - (1/m) d(V + V_qu)/dq

with classic fourth-order Runge-Kutta, the quantum potential recomputed
at every stage.  V_qu depends on n alone, so (n, v) is the whole state and
every observable is a function of it.  Three schemes share the core:
deterministic_quantum (full force), classical_limit (quantum force
dropped), and stochastic_quantum (deterministic drift plus an
Euler-Maruyama noise increment on the density).  The step's settings,
``IntegratorConfig``, and the scheme names are defined in
``qhydro.config``, where the [integrator] section extends them with the
run length, and are importable from here.  The boundary is the grid's:
``Grid.periodic`` picks the stencils, the flux through the end faces and
the quadrature of the step, ``observables`` and the noise projection.

Layout: ``HydroState`` holds the state as one read-only (2, N) array
[n, v], which the step reads as its y0 without a copy.  The step works
in a ``Workspace`` that ``run`` builds once: one block of rows for the stage
[n, v], the rates and every intermediate, and each slice the stencils and
the flux divergence read; at N = 601 slicing and allocating cost more than
the arithmetic.  Building it checks the step bound (``check_cfl``), so a
run checks it once, and a step takes dt and the grid from the workspace
it works in; a step called without one builds its own.  k2 is evaluated
into y1, a fresh array the new state owns, which sums the rates as they
come.  Every element goes through the same IEEE operations in the same
order as the field-by-field textbook form, so results are bit-identical
to it.  The step scans y1 once for non-finite
values, naming the row it finds, and the next ``HydroState`` adopts it
without a second scan; a Field of one row is built only when a caller
reads it (the final state).  A diverging run overflows to inf, which that
scan names; ``run`` silences numpy's overflow warnings once for the run.
A scalar can overflow while n and v stay finite (m v^2 / 2), so a run
that reaches t_end fails on its first non-finite snapshot scalar.

Noise: the stochastic step gates, kicks, clips and renormalises the new
density row in place, with the operations of the textbook form in their
order, and scans that row again.  ``run`` draws the noise rows 8 steps ahead
in one ``sample_fields`` call, projected on the run's grid, and hands
row j to step j; the rows equal single-row draws bit for bit, and 8 rows
keep most of the per-call saving while the batch stays small next to the
run's memory (a 64-row batch adds about 5 MB to the peak at N = 801).

Vacuum handling: the density under the square root carries the additive
floor of ``qpotential.floored_density``, 1e-12 of the peak, so the step,
``observables`` and ``qpotential.quantum_potential`` take V_qu alike.
The total force is multiplied by a smooth taper that shuts it off where
the density is at floor level.  Without the taper the floor region hosts
unbounded parasitic accelerations; tapering only the quantum force leaves
the classical force to accelerate ghost fluid, so the taper multiplies
the sum.

Stability: the quantum term behaves like free-particle dispersion.
Linearised about a uniform periodic state n0 at rest, the rates read
dn = -n0 D1 v and dv = (hbar^2 / (4 m^2 n0)) D1 D2 n, with D1 the centred
first difference (the averaged fluxes difference to it) and D2 the
three-point second difference.  A Fourier mode exp(i k q) has the
eigenvalues +-i omega(k), omega(k) = (hbar / (m h^2)) |sin kh sin(kh/2)|,
all on the imaginary axis, whose largest is omega = 4 / (3 sqrt 3) *
hbar / (m h^2) at cos(kh/2) = 1/sqrt(3).  RK4 is stable on the imaginary
axis up to |lambda dt| = 2 sqrt 2 (Hairer & Wanner, Solving ODEs II,
1996), so the step must satisfy dt <= CFL_SAFETY * 2 sqrt 2 / omega,
which is 3.67 CFL_SAFETY m h^2 / hbar = 1.47 m h^2 / hbar.  The bound
depends on the grid and the mass only, so a run that starts inside it
stays inside it.  The one-sided wall stencils and the low-density fringe
lie outside this analysis; the constant CFL_SAFETY = 0.4 is set from runs
that include them.
"""

from __future__ import annotations

from dataclasses import dataclass
import math

import numpy as np

from .config import (  # noqa: F401
    CLASSICAL_LIMIT,
    DETERMINISTIC_QUANTUM,
    SCHEMES,
    STOCHASTIC_QUANTUM,
    IntegratorConfig,
)
from .constants import CFL_SAFETY, HBAR
from .errors import CflError, StepRejected, ValidationError
from .grids import Field, Grid, derivative_kernel, integral
from .noise import NoiseModel, RandomStream, sample_fields
from .qpotential import floored_density, vqu_from_curvature, vqu_kernel

FORCE_TAPER_FRACTION = 1e-8


@dataclass(frozen=True)
class HydroState:
    """Density and velocity at one instant.

    ``y`` is the (2, N) array of rows [n (1/m), v (m/s)] that the step
    advances; it is checked once, here or by the step that made it,
    and made read-only.  The rows are built into Fields only when read.
    """

    time: float
    grid: Grid
    y: np.ndarray

    def __post_init__(self):
        y = np.asarray(self.y, dtype=float)
        if y.shape != (2, self.grid.n_points):
            raise ValidationError(
                f"state has {y.shape} values for 2 rows on a "
                f"{self.grid.n_points}-point grid")
        if not np.isfinite(y).all():
            raise ValidationError("field values must be finite")
        y.flags.writeable = False
        object.__setattr__(self, "y", y)

    @property
    def density(self) -> Field:
        return Field(self.grid, self.y[0], "1/m")

    @property
    def velocity(self) -> Field:
        return Field(self.grid, self.y[1], "m/s")


def _stepped(state: HydroState, dt: float, y1: np.ndarray) -> HydroState:
    """The state dt after ``state``, holding the step's own (2, N) y1.

    The step has already scanned y1 for non-finite values, so the
    constructor's scan is skipped rather than repeated.
    """
    y1.flags.writeable = False
    new = object.__new__(HydroState)
    object.__setattr__(new, "time", state.time + dt)
    object.__setattr__(new, "grid", state.grid)
    object.__setattr__(new, "y", y1)
    return new


def initial_state(density: Field, velocity: Field | None = None) -> HydroState:
    grid = density.grid
    y = np.zeros((2, grid.n_points))
    y[0] = density.values
    if velocity is not None:
        if velocity.grid != grid:
            raise ValidationError("state fields must share one grid")
        y[1] = velocity.values
    return HydroState(0.0, grid, y)


# RK4's stability interval on the imaginary axis: |lambda dt| <= 2 sqrt 2
RK4_IMAGINARY_LIMIT = 2.0 * math.sqrt(2.0)
# the largest rate of the linearised step, in units of hbar / (m h^2)
DISPERSION_RATE = 4.0 / (3.0 * math.sqrt(3.0))


def cfl_limit(mass: float, spacing: float) -> float:
    """Largest dt allowed for the explicit step: ``CFL_SAFETY`` times RK4's
    stability limit on the discretised dispersion.

    The linearised rates are +-i omega(k), the largest
    omega = 4 / (3 sqrt 3) hbar / (m h^2) (derived in the module
    docstring).  RK4 keeps i omega dt stable up to 2 sqrt 2, so the
    limit itself, cfl_limit / CFL_SAFETY = 2 sqrt 2 / omega
    = 3.67 m h^2 / hbar, is the edge of stability.
    """
    omega = DISPERSION_RATE * HBAR / (mass * spacing**2)
    return CFL_SAFETY * RK4_IMAGINARY_LIMIT / omega


def check_cfl(cfg: IntegratorConfig, mass: float, grid: Grid) -> None:
    limit = cfl_limit(mass, grid.spacing)
    if cfg.dt > limit:
        raise CflError(
            f"dt = {cfg.dt:.3e} s exceeds the stability bound {limit:.3e} s "
            f"({CFL_SAFETY} of RK4's limit, spacing {grid.spacing:.3e} m)")


class Workspace:
    """The arrays and views the RK4 steps of one grid, potential, mass and
    ``IntegratorConfig`` work in, one step at a time (module docstring)."""

    def __init__(self, grid: Grid, potential: Field, mass: float, cfg: IntegratorConfig):
        check_cfl(cfg, mass, grid)
        n_points = grid.n_points
        self.potential, self.mass, self.cfg = potential.values, mass, cfg
        self.grid, self.spacing = grid, grid.spacing
        self.quantum = cfg.scheme != CLASSICAL_LIMIT
        # one allocation: the stage n, v and V_qu + V (the force's potential),
        # the rates, v', (V_qu + V)', the floored n, its sqrt, V_qu, taper, flux
        block = np.empty((12, n_points))
        (self.n, self.v, self.g, *self.rates, self.dvdq, self.grad, self.nc,
         self.s, self.vqu, self.w, self.flux) = block
        self.g[:] = potential.values
        self.stage, self.k = block[:2], block[3:5]
        self.curvature = derivative_kernel(self.s, self.vqu, grid, 2)
        self.velocity_gradient = derivative_kernel(self.v, self.dvdq, grid, 1)
        self.force_gradient = derivative_kernel(self.g, self.grad, grid, 1)
        # faces[j] is the flux through cell j's left face; the walls hold +0
        # and -0, the signed zeros that f / h and -f / h give at zero flux
        faces = np.zeros(n_points + 1)
        faces[-1] = -0.0
        self.face_views = (self.flux[:-1], self.flux[1:], faces[1:-1],
                           faces[1:], faces[:-1])


def _vacuum_gate(x: np.ndarray, level: float, ws: Workspace) -> np.ndarray:
    """x^2 / (x^2 + level^2) into ``ws.w``, x^2 into ``ws.nc`` (x may be it).

    A numpy scalar's ** is the C pow a float's is, bit for bit, but it
    overflows to inf where a float's raises."""
    sq = np.square(x, out=ws.nc)
    w = np.add(sq, np.float64(level)**2, out=ws.w)
    return np.divide(sq, w, out=w)


def _rhs(ws: Workspace, rates) -> None:
    """Rates [dn/dt, dv/dt] of ``ws.stage`` into the two rows ``rates``.

    Sign flips sit only where IEEE makes them exact, (-a)*b == -(a*b) and
    x + (-y) == x - y, so every element rounds as in the textbook form
    dn = -d(nv)/dq, dv = -v dv/dq + w F/m.
    """
    n, v, mass = ws.n, ws.v, ws.mass
    dn, dv = rates
    peak = float(n.max())
    if peak <= 0:
        raise StepRejected("density collapsed to zero")
    nc = floored_density(n, peak, out=ws.nc)
    if ws.quantum:
        np.sqrt(nc, out=ws.s)
        ws.curvature()
        vqu = vqu_from_curvature(ws.vqu, ws.s, mass)
        np.add(vqu, ws.potential, out=ws.g)
    ws.force_gradient()
    ws.velocity_gradient()

    # shut the force off where only floor density lives (sqrt(nc) is taken
    # above); an untapered force accelerates ghost fluid without bound
    w = _vacuum_gate(nc, FORCE_TAPER_FRACTION * peak, ws)

    # conservative d(nv)/dq: averaged fluxes through the faces, differenced
    # as a telescoping sum
    flux_lo, flux_hi, inner, right, left = ws.face_views
    np.multiply(n, v, out=ws.flux)
    np.add(flux_lo, flux_hi, out=inner)
    inner *= 0.5
    if ws.grid.periodic:
        left[0] = right[-1] = (flux_hi.item(-1) + flux_lo.item(0)) * 0.5
    np.subtract(right, left, out=dn)
    dn /= ws.spacing
    np.negative(dn, out=dn)
    # dv = (-(v v')) - (w grad)/m, the force being -grad
    np.multiply(v, ws.dvdq, out=dv)
    np.negative(dv, out=dv)
    ws.grad *= w
    ws.grad /= mass
    dv -= ws.grad


_STATE_ROWS = ("density", "velocity")


def _advance(state: HydroState, ws: Workspace) -> np.ndarray:
    """One RK4 step on the stacked state [n, v]: the checked (2, N) y1.

    The classical limit drops the quantum force.  y1 is a fresh array the
    caller owns; its density row is clipped at zero.
    """
    dt, y0, stage, k = ws.cfg.dt, state.y, ws.stage, ws.k
    # y1 = y0 + dt/6 (((k1 + 2 k2) + 2 k3) + k4), summed as the rates come:
    # k2 is evaluated into the fresh y1, the others into ws.k
    np.copyto(stage, y0)
    _rhs(ws, ws.rates)
    np.multiply(k, 0.5 * dt, out=stage)
    stage += y0
    y1 = np.empty_like(y0)
    _rhs(ws, y1)
    np.multiply(y1, 0.5 * dt, out=stage)
    stage += y0
    y1 *= 2
    y1 += k
    _rhs(ws, ws.rates)
    np.multiply(k, dt, out=stage)
    stage += y0
    k *= 2
    y1 += k
    _rhs(ws, ws.rates)
    y1 += k
    y1 *= dt / 6.0
    y1 += y0

    finite = np.isfinite(y1)
    if not finite.all():
        name = _STATE_ROWS[int(np.argmin(finite.all(axis=1)))]
        raise StepRejected(
            f"non-finite {name} after step at t = {state.time:.3e} s")
    n1 = y1[0]
    peak = float(n1.max())
    # small negative undershoot near clipped regions is zeroed below; a
    # deep negative excursion marks a genuinely diverging step
    if peak <= 0 or float(n1.min()) < -1e-4 * peak:
        raise StepRejected(
            f"negative density beyond floor tolerance at t = {state.time:.3e} s")
    np.maximum(n1, 0.0, out=n1)
    return y1


def step_deterministic(state: HydroState, potential: Field, mass: float,
                       cfg: IntegratorConfig,
                       workspace: Workspace | None = None) -> HydroState:
    """One RK4 step without noise; ``classical_limit`` drops the quantum force.

    It works in ``workspace``, built for these arguments, or in a new one.
    """
    workspace = workspace or Workspace(state.grid, potential, mass, cfg)
    return _stepped(state, workspace.cfg.dt, _advance(state, workspace))


# the noise increment is gated off where the density falls below this
# multiple of the per-step kick scale: isolated noise bumps on the vacuum
# floor otherwise feed the quantum force and destabilize the next step
NOISE_GATE_KICKS = 10.0


def step_stochastic(state: HydroState, potential: Field, mass: float,
                    noise: NoiseModel, stream: RandomStream,
                    cfg: IntegratorConfig,
                    rng: np.random.Generator | None = None, *,
                    eta: np.ndarray | None = None,
                    workspace: Workspace | None = None) -> HydroState:
    """Deterministic drift plus an Euler-Maruyama density noise increment.

    ``eta`` is a pre-drawn noise row for this step; without it the step
    draws one row from ``rng``, and a step that draws needs one of the two.
    It works in ``workspace``, built for these arguments, or in a new one.
    """
    workspace = workspace or Workspace(state.grid, potential, mass, cfg)
    dt = workspace.cfg.dt
    y1 = _advance(state, workspace)
    amplitude = noise.amplitude
    if amplitude == 0.0:
        # deterministic limit, bit-for-bit, and no draw
        return _stepped(state, dt, y1)
    if eta is None:
        if rng is None:
            raise ValidationError("a noisy step_stochastic needs rng or eta")
        eta = sample_fields(noise, state.grid, stream, 1, rng)[0]
    # gate, kick, clip and renormalise row 0 in place:
    # n = max(n + (n^2 / (n^2 + L^2) * eta) * sqrt(dt), 0), L the gate level
    n = y1[0]
    kick = _vacuum_gate(n, NOISE_GATE_KICKS * math.sqrt(amplitude * dt),
                        workspace)
    kick *= eta
    kick *= math.sqrt(dt)
    n += kick
    np.maximum(n, 0.0, out=n)
    if noise.conserving:
        # eta has zero integral, but the gate and the clip change the mass;
        # rescale to the norm observables reports, on either boundary
        norm = float(integral(n, state.grid))
        if norm <= 0:
            raise StepRejected("noise kick destroyed the density")
        n *= float(integral(state.y[0], state.grid)) / norm
    # a non-finite noise row (a caller's eta; the sampler rejects a spectrum
    # that overflows) is invalid input, not a failed step
    if not np.isfinite(n).all():
        raise ValidationError("field values must be finite")
    return _stepped(state, dt, y1)


@dataclass(frozen=True)
class Snapshot:
    time: float
    norm: float
    mean_q: float
    variance: float
    e_kin: float
    e_pot: float
    e_qu: float


@dataclass(frozen=True)
class Trajectory:
    snapshots: list[Snapshot]
    final_state: HydroState
    failure: str | None = None
    boundary_warning: bool = False

    @property
    def completed(self) -> bool:
        return self.failure is None


def observables(state: HydroState, potential: Field, mass: float,
                cfg: IntegratorConfig) -> Snapshot:
    # cfg is not read: perfbench calls observables with four arguments
    grid = state.grid
    q = grid.points
    n, v = state.y

    def integrate(f: np.ndarray) -> float:
        return float(integral(f, grid))

    norm = integrate(n)
    if norm <= 0:
        raise ValidationError("state has zero norm")
    mean_q = integrate(n * q) / norm
    variance = integrate(n * (q - mean_q) ** 2) / norm
    vqu = vqu_kernel(n, grid, mass)
    e_kin = integrate(0.5 * mass * n * v**2)
    e_pot = integrate(n * potential.values)
    e_qu = integrate(n * vqu)
    return Snapshot(state.time, norm, mean_q, variance, e_kin, e_pot, e_qu)


def _non_finite_scalar(snapshots: list[Snapshot]) -> str | None:
    """The first non-finite snapshot scalar, named, or None.

    n and v can stay finite while a scalar overflows (m v^2 / 2 passes the
    float range above about 1e154 m/s), which the step's scan cannot see.
    """
    for snap in snapshots:
        for name, value in vars(snap).items():
            if not math.isfinite(value):
                return f"non-finite {name} at t = {snap.time:.3e} s"
    return None


def _near_boundary_mass(state: HydroState) -> bool:
    """Whether mass sits by a wall; a periodic grid has none."""
    if state.grid.periodic:
        return False
    n = state.y[0]
    peak = float(np.max(n))
    edge = max(float(np.max(n[:5])), float(np.max(n[-5:])))
    return edge > 1e-6 * peak


# noise rows run() draws per sample_fields call, one per coming step; they
# equal single-row draws bit for bit, as the generator fills them in order
# and each row's field depends on its own normals alone (why 8: see the
# module docstring)
NOISE_DRAW_ROWS = 8


# a diverging run overflows to inf or nan, which the step's scan names;
# numpy's warnings would only repeat it, step after step
@np.errstate(over="ignore", invalid="ignore")
def run(initial: HydroState, potential: Field, mass: float,
        noise: NoiseModel | None, cfg: IntegratorConfig, t_end: float,
        output_stride: int = 1, stream: RandomStream | None = None) -> Trajectory:
    """Step to t_end in round(t_end / dt) steps, emitting observables
    every ``output_stride`` steps."""
    if t_end < 0:
        raise ValidationError("t_end must be >= 0")
    if output_stride < 1:
        raise ValidationError("output_stride must be >= 1")
    if cfg.scheme == STOCHASTIC_QUANTUM:
        if noise is None or stream is None:
            raise ValidationError(
                "stochastic scheme needs a noise model and a random stream")
        rng = stream.generator()
    workspace = Workspace(initial.grid, potential, mass, cfg)

    n_steps = int(round(t_end / cfg.dt))
    # a silent noise model draws nothing, as its step does not
    draw_ahead = (cfg.scheme == STOCHASTIC_QUANTUM
                  and noise.amplitude != 0.0)
    eta = None
    snapshots = [observables(initial, potential, mass, cfg)]
    state = initial
    warned = _near_boundary_mass(state)
    try:
        for step_index in range(1, n_steps + 1):
            if cfg.scheme != STOCHASTIC_QUANTUM:
                state = step_deterministic(state, potential, mass, cfg, workspace)
            else:
                if draw_ahead:
                    row = (step_index - 1) % NOISE_DRAW_ROWS
                    if row == 0:
                        etas = sample_fields(
                            noise, initial.grid, stream,
                            min(NOISE_DRAW_ROWS, n_steps - step_index + 1), rng)
                    eta = etas[row]
                state = step_stochastic(state, potential, mass, noise, stream,
                                        cfg, rng, eta=eta, workspace=workspace)
            if step_index % output_stride == 0 or step_index == n_steps:
                snapshots.append(observables(state, potential, mass, cfg))
                if _near_boundary_mass(state):
                    warned = True
    except StepRejected as exc:
        return Trajectory(snapshots, state, failure=str(exc),
                          boundary_warning=warned)
    return Trajectory(snapshots, state, failure=_non_finite_scalar(snapshots),
                      boundary_warning=warned)
