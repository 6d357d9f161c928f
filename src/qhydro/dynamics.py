"""Time integration of the hydrodynamic density-velocity system.

The deterministic core advances

    dn/dt = -d(n v)/dq
    dv/dt = -v dv/dq - (1/m) d(V + V_qu)/dq

with classic fourth-order Runge-Kutta, the quantum potential recomputed
at every stage.  V_qu depends on n alone, so (n, v) is the whole state and
every observable is a function of it.  Three schemes share the core:
deterministic_quantum (full force), classical_limit (quantum force
dropped), and stochastic_quantum (deterministic drift plus an
Euler-Maruyama noise increment on the density).  ``IntegratorConfig`` and
the scheme names are ``qhydro.config``'s, importable from here.  The
boundary is the grid's (``Grid.periodic``), for the step, ``observables``
and the noise projection alike.

Layout: ``HydroState`` holds the state as one read-only (2, N) array
[n, v], which the step reads as its y0 without a copy.  The step works
in a ``Workspace`` that ``run`` builds once: one block of rows for the stage
[n, v], the rates and every intermediate, and each slice the stencils and
the flux divergence read, plus the grid's points, one scratch row for
``grids.integral`` and the flags of the step's finiteness scan.  At
N = 601 a step costs numpy's per-call overhead more than arithmetic, so
the step binds its ufuncs once and passes ``out`` positionally (but to
``maximum``, where numpy 2.4 deprecates it), takes its own constant
operands as 0-d arrays the workspace holds (numpy converts a float afresh
on every call), and scans through the ufunc ``reduce``, not ndarray's
Python-level ``max``, ``min`` and ``all``.  That took a step from 82,
117 and 194 us to 66, 99 and 179 us at N = 101, 601 and 2,001 (fastest
of 12 alternated processes of 5 x 300 steps; Python 3.11, numpy 2.4.6,
2-vCPU Xeon).  Building it checks the step bound (``check_cfl``), so a
run checks it once, and a step takes dt and the grid from the workspace
it works in.  ``run`` passes the workspace to ``observables`` too, which
takes each snapshot's V_qu with its curvature kernel and forms each
integrand in its rows.  k2 is evaluated into y1, a fresh array the new
state owns.  Every element goes through the same IEEE operations in the
same order as the field-by-field textbook form, so results are
bit-identical to it.  The step scans y1 once for non-finite values,
naming the row it finds, and the next ``HydroState`` adopts it without a
second scan.  A diverging run overflows to inf, which that scan names;
``run`` silences numpy's overflow warnings once for the run.  A snapshot
scalar that overflows while n and v stay finite fails the run
(``_non_finite_scalar``).

Noise: the stochastic step gates, kicks, clips and renormalises the new
density row in place, with the operations of the textbook form in their
order (its two renormalisation integrals in the workspace's scratch
row), and scans that row again.  ``run`` draws the noise rows
``NOISE_DRAW_ROWS`` steps ahead in one ``sample_fields`` call, projected
on the run's grid, and hands row j to step j; the rows equal single-row
draws bit for bit, and 8 rows keep most of the per-call saving while the
batch stays small next to the run's memory (a 64-row batch adds about
5 MB to the peak at N = 801).

Vacuum handling: the density under the square root carries the floor of
``qpotential.floored_density``.  The total force is multiplied by a
smooth taper that shuts it off where the density is at floor level.
Without the taper the floor region hosts unbounded parasitic
accelerations; tapering only the quantum force leaves the classical force
to accelerate ghost fluid, so the taper multiplies the sum.

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
which is 3.67 CFL_SAFETY m h^2 / hbar.  The bound depends on the grid and
the mass only, so a run that starts inside it stays inside it.  The
one-sided wall stencils and the low-density fringe lie outside this
analysis; ``constants.CFL_SAFETY`` is set from runs that include them.
"""

from __future__ import annotations

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
from .grids import Field, derivative_kernel, integral
from .noise import NoiseModel, RandomStream, sample_fields
from .params import Grid, Record
from .qpotential import floored_density, vqu_from_curvature

FORCE_TAPER_FRACTION = 1e-8

# the step's ufuncs and scans, bound once (Layout, module docstring)
_add, _sub, _mul, _div = np.add, np.subtract, np.multiply, np.divide
_sqrt, _square, _isfinite = np.sqrt, np.square, np.isfinite
_peak, _trough, _all = np.maximum.reduce, np.minimum.reduce, np.logical_and.reduce


class HydroState(Record):
    """Density and velocity at one instant.

    ``y`` is the (2, N) array of rows [n (1/m), v (m/s)] that the step
    advances; it is checked once, here or by the step that made it, and
    made read-only: a copy of the caller's array, or the step's own.  The
    rows are built into Fields only when read.
    """

    time: float
    grid: Grid
    y: np.ndarray

    def __post_init__(self):
        y = np.array(self.y, dtype=float)
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
    stability limit on the discretised dispersion, 2 sqrt 2 / omega
    (derived in the module docstring)."""
    omega = DISPERSION_RATE * HBAR / (mass * spacing**2)
    return CFL_SAFETY * RK4_IMAGINARY_LIMIT / omega


def check_cfl(cfg: IntegratorConfig, mass: float, grid: Grid) -> None:
    limit = cfl_limit(mass, grid.spacing)
    if cfg.dt > limit:
        raise CflError(
            f"dt = {cfg.dt:.3e} s exceeds the stability bound {limit:.3e} s "
            f"({CFL_SAFETY} of RK4's limit, spacing {grid.spacing:.3e} m)")


class Workspace:
    """The arrays and views the RK4 steps and the snapshots of one grid,
    potential, mass and ``IntegratorConfig`` work in, one call at a time
    (module docstring).

    ``check`` is the step bound's check; ``observables`` takes no step, so
    the workspace it builds for itself skips it.
    """

    def __init__(self, grid: Grid, potential: Field, mass: float,
                 cfg: IntegratorConfig, check: bool = True):
        if check:
            check_cfl(cfg, mass, grid)
        n_points = grid.n_points
        self.potential, self.mass, self.cfg = potential.values, mass, cfg
        self.grid, self.points, self.periodic = grid, grid.points, grid.periodic
        # the step's constant operands (Layout, module docstring)
        (self.minus_spacing, self.minus_mass, self.half, self.two, self.half_dt,
         self.dt, self.sixth_dt) = map(np.array, (
             -grid.spacing, -mass, 0.5, 2.0, 0.5 * cfg.dt, cfg.dt, cfg.dt / 6.0))
        self.quantum = cfg.scheme != CLASSICAL_LIMIT
        # one allocation: the stage n, v and V_qu + V (the force's potential),
        # the rates, v', (V_qu + V)', the floored n, its sqrt, V_qu, taper,
        # flux, and the scratch row of ``integral``'s sums of neighbours
        block = np.empty((13, n_points))
        (self.n, self.v, self.g, *self.rates, self.dvdq, self.grad, self.nc,
         self.s, self.vqu, self.w, self.flux, self.scratch) = block
        self.g[:] = potential.values
        self.stage, self.k = block[:2], block[3:5]
        self.finite = np.empty((2, n_points), dtype=bool)
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
    sq = _square(x, ws.nc)
    w = _add(sq, np.float64(level)**2, ws.w)
    return _div(sq, w, w)


def _rhs(ws: Workspace, rates) -> None:
    """Rates [dn/dt, dv/dt] of ``ws.stage`` into the two rows ``rates``.

    Sign flips sit only where IEEE makes them exact, a/(-b) == -(a/b),
    x + (-y) == x - y and x + y == y + x, so every element rounds as in the
    textbook form dn = -d(nv)/dq, dv = -v dv/dq + w F/m.
    """
    n, v, mass = ws.n, ws.v, ws.mass
    dn, dv = rates
    peak = _peak(n)
    if peak <= 0:
        raise StepRejected("density collapsed to zero")
    nc = floored_density(n, peak, out=ws.nc)
    if ws.quantum:
        _sqrt(nc, ws.s)
        ws.curvature()
        vqu = vqu_from_curvature(ws.vqu, ws.s, mass)
        _add(vqu, ws.potential, ws.g)
    ws.force_gradient()
    ws.velocity_gradient()

    # shut the force off where only floor density lives (sqrt(nc) is taken
    # above); an untapered force accelerates ghost fluid without bound
    w = _vacuum_gate(nc, FORCE_TAPER_FRACTION * peak, ws)

    # conservative d(nv)/dq: averaged fluxes through the faces, differenced
    # as a telescoping sum
    flux_lo, flux_hi, inner, right, left = ws.face_views
    _mul(n, v, ws.flux)
    _add(flux_lo, flux_hi, inner)
    inner *= ws.half
    if ws.periodic:
        left[0] = right[-1] = (flux_hi.item(-1) + flux_lo.item(0)) * 0.5
    _div(_sub(right, left, dn), ws.minus_spacing, dn)
    # dv = (w grad)/(-m) - v v', rounded as (-(v v')) - (w grad)/m, the
    # force being -grad
    _mul(v, ws.dvdq, dv)
    ws.grad *= w
    ws.grad /= ws.minus_mass
    _sub(ws.grad, dv, dv)


_STATE_ROWS = ("density", "velocity")


def _advance(state: HydroState, ws: Workspace) -> np.ndarray:
    """One RK4 step on the stacked state [n, v]: the checked (2, N) y1.

    The classical limit drops the quantum force.  y1 is a fresh array the
    caller owns; its density row is clipped at zero.
    """
    y0, stage, k = state.y, ws.stage, ws.k
    # y1 = y0 + dt/6 (((k1 + 2 k2) + 2 k3) + k4), summed as the rates come:
    # k2 is evaluated into the fresh y1, the others into ws.k
    stage[...] = y0
    _rhs(ws, ws.rates)
    _mul(k, ws.half_dt, stage)
    stage += y0
    y1 = np.empty(y0.shape)
    _rhs(ws, y1)
    _mul(y1, ws.half_dt, stage)
    stage += y0
    y1 *= ws.two
    y1 += k
    _rhs(ws, ws.rates)
    _mul(k, ws.dt, stage)
    stage += y0
    k *= ws.two
    y1 += k
    _rhs(ws, ws.rates)
    y1 += k
    y1 *= ws.sixth_dt
    y1 += y0

    finite = _isfinite(y1, ws.finite)
    if not _all(finite, None):
        name = _STATE_ROWS[int(np.argmin(_all(finite, 1)))]
        raise StepRejected(
            f"non-finite {name} after step at t = {state.time:.3e} s")
    n1 = y1[0]
    peak = _peak(n1)
    # small negative undershoot near clipped regions is zeroed below; a
    # deep negative excursion marks a genuinely diverging step
    if peak <= 0 or _trough(n1) < -1e-4 * peak:
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
        scratch = workspace.scratch
        norm = float(integral(n, state.grid, scratch=scratch))
        if norm <= 0:
            raise StepRejected("noise kick destroyed the density")
        n *= float(integral(state.y[0], state.grid, scratch=scratch)) / norm
    # a non-finite noise row (a caller's eta; the sampler rejects a spectrum
    # that overflows) is invalid input, not a failed step
    if not _all(_isfinite(n, workspace.finite[0])):
        raise ValidationError("field values must be finite")
    return _stepped(state, dt, y1)


class Snapshot(Record):
    time: float
    norm: float
    mean_q: float
    variance: float
    e_kin: float
    e_pot: float
    e_qu: float


class Trajectory(Record):
    snapshots: list[Snapshot]
    final_state: HydroState
    failure: str | None = None
    boundary_warning: bool = False

    @property
    def completed(self) -> bool:
        return self.failure is None


def observables(state: HydroState, potential: Field, mass: float,
                cfg: IntegratorConfig,
                workspace: Workspace | None = None) -> Snapshot:
    """The snapshot of ``state``, computed in ``workspace``, built for these
    arguments, or in a new one, with the same bits (cfg is read only to
    build it).

    V_qu is the workspace's curvature kernel on the sqrt of the floored
    density, ``qpotential.quantum_potential``'s operations; each integrand
    is formed in the floored-density row, free once V_qu is, in the order
    of its textbook expression, and integrated with the scratch row.
    """
    ws = workspace or Workspace(state.grid, potential, mass, cfg, check=False)
    grid, q, f, scratch = state.grid, ws.points, ws.nc, ws.scratch
    n, v = state.y

    def integrate(values: np.ndarray) -> float:
        return float(integral(values, grid, scratch=scratch))

    norm = integrate(n)
    if norm <= 0:
        raise ValidationError("state has zero norm")
    np.sqrt(floored_density(n, float(n.max()), out=f), out=ws.s)
    ws.curvature()
    vqu = vqu_from_curvature(ws.vqu, ws.s, mass)
    mean_q = integrate(np.multiply(n, q, out=f)) / norm
    np.subtract(q, mean_q, out=f)
    np.square(f, out=f)
    variance = integrate(np.multiply(n, f, out=f)) / norm
    # 0.5 m n v^2 as ((0.5 m) n) (v^2)
    np.square(v, out=f)
    f *= np.multiply(n, 0.5 * mass, out=scratch)
    e_kin = integrate(f)
    e_pot = integrate(np.multiply(n, potential.values, out=f))
    e_qu = integrate(np.multiply(n, vqu, out=f))
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
    snapshots = [observables(initial, potential, mass, cfg, workspace)]
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
                snapshots.append(observables(state, potential, mass, cfg,
                                             workspace))
                if _near_boundary_mass(state):
                    warned = True
    except StepRejected as exc:
        return Trajectory(snapshots, state, failure=str(exc),
                          boundary_warning=warned)
    return Trajectory(snapshots, state, failure=_non_finite_scalar(snapshots),
                      boundary_warning=warned)
