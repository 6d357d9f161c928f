"""Time integration of the hydrodynamic density-velocity system.

The deterministic core advances

    dn/dt = -d(n v)/dq
    dv/dt = -v dv/dq - (1/m) d(V + V_qu)/dq

with classic fourth-order Runge-Kutta, the quantum potential recomputed
at every stage.  The action S accumulates -(m v^2/2 + V + V_qu) as a
diagnostic.  Three schemes share the core: deterministic_quantum (full
force), classical_limit (quantum force dropped), and stochastic_quantum
(deterministic drift plus an Euler-Maruyama noise increment on the
density).

Vacuum handling: the density under the square root carries a small
additive floor, and the total force is multiplied by a smooth taper that
shuts it off where the density is at floor level.  Without the taper the
floor region hosts unbounded parasitic accelerations; tapering only the
quantum force leaves the classical force to accelerate ghost fluid, so
the taper multiplies the sum.

Stability: the quantum term behaves like free-particle dispersion, so the
explicit step must satisfy dt <= cfl_safety * m * spacing^2 / hbar.
"""

from dataclasses import dataclass, replace
import math

import numpy as np

from .constants import HBAR
from .errors import CflError, StepRejected, ValidationError
from .grids import Field, Grid, periodic_derivative, stencil_derivative
from .noise import NoiseModel, RandomStream, sample_fields
from .qpotential import vqu_kernel

DETERMINISTIC_QUANTUM = "deterministic_quantum"
STOCHASTIC_QUANTUM = "stochastic_quantum"
CLASSICAL_LIMIT = "classical_limit"
SCHEMES = (DETERMINISTIC_QUANTUM, STOCHASTIC_QUANTUM, CLASSICAL_LIMIT)

ZERO_FLUX = "zero_flux"
PERIODIC = "periodic"

FORCE_TAPER_FRACTION = 1e-8


@dataclass(frozen=True)
class HydroState:
    """Density, velocity and accumulated action at one instant."""

    time: float
    density: Field               # 1/m
    velocity: Field              # m/s
    action: Field                # J s

    def __post_init__(self):
        if self.velocity.grid is not self.density.grid and \
                self.velocity.grid != self.density.grid:
            raise ValidationError("state fields must share one grid")

    @property
    def grid(self) -> Grid:
        return self.density.grid


def initial_state(density: Field, velocity: Field | None = None) -> HydroState:
    grid = density.grid
    zeros = Field(grid, np.zeros(grid.n_points), "m/s")
    vel = velocity if velocity is not None else zeros
    action = Field(grid, np.zeros(grid.n_points), "J s")
    return HydroState(0.0, density, vel, action)


@dataclass(frozen=True)
class IntegratorConfig:
    dt: float
    scheme: str = DETERMINISTIC_QUANTUM
    cfl_safety: float = 0.4
    boundary: str = ZERO_FLUX
    density_floor: float = 1e-12     # additive floor, fraction of peak density

    def __post_init__(self):
        if self.dt <= 0:
            raise ValidationError("dt must be positive")
        if self.scheme not in SCHEMES:
            raise ValidationError(f"unknown scheme {self.scheme!r}")
        if not 0.0 < self.cfl_safety <= 1.0:
            raise ValidationError("cfl_safety must lie in (0, 1]")
        if self.boundary not in (ZERO_FLUX, PERIODIC):
            raise ValidationError(f"unknown boundary {self.boundary!r}")
        if not 0.0 < self.density_floor < 1e-3:
            raise ValidationError("density_floor must lie in (0, 1e-3)")


def cfl_limit(mass: float, spacing: float, cfl_safety: float = 0.4) -> float:
    """Largest stable dt for the explicit quantum-dispersion step."""
    return cfl_safety * mass * spacing**2 / HBAR


def check_cfl(cfg: IntegratorConfig, mass: float, grid: Grid) -> None:
    limit = cfl_limit(mass, grid.spacing, cfg.cfl_safety)
    if cfg.dt > limit:
        raise CflError(
            f"dt = {cfg.dt:.3e} s exceeds the stability bound {limit:.3e} s "
            f"(cfl_safety {cfg.cfl_safety}, spacing {grid.spacing:.3e} m)")


def _divergence_flux(n: np.ndarray, v: np.ndarray, h: float,
                     periodic: bool) -> np.ndarray:
    """Conservative d(nv)/dq: averaged half-cell fluxes, telescoping sum."""
    flux = n * v
    if periodic:
        f_right = 0.5 * (flux + np.roll(flux, -1))
        return (f_right - np.roll(f_right, 1)) / h
    f_half = 0.5 * (flux[:-1] + flux[1:])
    div = np.empty_like(flux)
    # zero flux through both walls: total mass change telescopes to zero
    div[0] = f_half[0] / h
    div[1:-1] = (f_half[1:] - f_half[:-1]) / h
    div[-1] = -f_half[-1] / h
    return div


def _rhs(n: np.ndarray, v: np.ndarray, potential: np.ndarray, mass: float,
         cfg: IntegratorConfig, spacing: float,
         quantum: bool) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    periodic = cfg.boundary == PERIODIC
    d1 = periodic_derivative if periodic else stencil_derivative
    peak = float(np.max(n))
    if peak <= 0:
        raise StepRejected("density collapsed to zero")
    nc = np.maximum(n, 0.0) + cfg.density_floor * peak

    if quantum:
        vqu = vqu_kernel(np.sqrt(nc), spacing, mass, periodic)
        force = -d1(vqu + potential, spacing, 1)
    else:
        vqu = np.zeros_like(n)
        force = -d1(potential, spacing, 1)

    # shut the force off where only floor density lives; an untapered
    # force accelerates ghost fluid in the vacuum without bound
    taper_level = FORCE_TAPER_FRACTION * peak
    w = nc**2 / (nc**2 + taper_level**2)

    dn = -_divergence_flux(n, v, spacing, periodic)
    dv = -v * d1(v, spacing, 1) + w * force / mass
    ds = -(0.5 * mass * v**2 + potential + vqu)
    return dn, dv, ds


def _rk4(state: HydroState, potential: Field, mass: float,
         cfg: IntegratorConfig, quantum: bool) -> HydroState:
    grid = state.grid
    h, dt = grid.spacing, cfg.dt
    n0, v0, s0 = state.density.values, state.velocity.values, state.action.values
    vp = potential.values

    def f(n, v):
        return _rhs(n, v, vp, mass, cfg, h, quantum)

    k1n, k1v, k1s = f(n0, v0)
    k2n, k2v, k2s = f(n0 + 0.5 * dt * k1n, v0 + 0.5 * dt * k1v)
    k3n, k3v, k3s = f(n0 + 0.5 * dt * k2n, v0 + 0.5 * dt * k2v)
    k4n, k4v, k4s = f(n0 + dt * k3n, v0 + dt * k3v)

    n1 = n0 + dt / 6.0 * (k1n + 2 * k2n + 2 * k3n + k4n)
    v1 = v0 + dt / 6.0 * (k1v + 2 * k2v + 2 * k3v + k4v)
    s1 = s0 + dt / 6.0 * (k1s + 2 * k2s + 2 * k3s + k4s)

    if not (np.all(np.isfinite(n1)) and np.all(np.isfinite(v1))):
        raise StepRejected(f"non-finite state after step at t = {state.time:.3e} s")
    peak = float(np.max(n1))
    # small negative undershoot near clipped regions is zeroed below; a
    # deep negative excursion marks a genuinely diverging step
    if peak <= 0 or float(np.min(n1)) < -1e-4 * peak:
        raise StepRejected(
            f"negative density beyond floor tolerance at t = {state.time:.3e} s")
    n1 = np.maximum(n1, 0.0)
    return HydroState(state.time + dt,
                      Field(grid, n1, state.density.unit),
                      Field(grid, v1, state.velocity.unit),
                      Field(grid, s1, state.action.unit))


def step_deterministic(state: HydroState, potential: Field, mass: float,
                       cfg: IntegratorConfig) -> HydroState:
    """One RK4 step of the full quantum hydrodynamic system."""
    check_cfl(cfg, mass, state.grid)
    return _rk4(state, potential, mass, cfg, quantum=True)


def step_classical(state: HydroState, potential: Field, mass: float,
                   cfg: IntegratorConfig) -> HydroState:
    """One RK4 step with the quantum force dropped (large-scale limit)."""
    check_cfl(cfg, mass, state.grid)
    return _rk4(state, potential, mass, cfg, quantum=False)


# the noise increment is gated off where the density falls below this
# multiple of the per-step kick scale: isolated noise bumps on the vacuum
# floor otherwise feed the quantum force and destabilize the next step
NOISE_GATE_KICKS = 10.0


def step_stochastic(state: HydroState, potential: Field, mass: float,
                    noise: NoiseModel, stream: RandomStream,
                    cfg: IntegratorConfig,
                    rng: np.random.Generator | None = None) -> HydroState:
    """Deterministic drift plus an Euler-Maruyama density noise increment."""
    check_cfl(cfg, mass, state.grid)
    if noise.amplitude == 0.0:
        # deterministic limit, bit-for-bit
        return _rk4(state, potential, mass, cfg, quantum=True)
    norm_before = float(np.trapezoid(state.density.values,
                                     dx=state.grid.spacing))
    stepped = _rk4(state, potential, mass, cfg, quantum=True)
    eta = sample_fields(noise, state.grid, stream, 1, rng)[0]
    nv = stepped.density.values
    kick = math.sqrt(noise.amplitude * cfg.dt)
    gate_level = NOISE_GATE_KICKS * kick
    gate = nv**2 / (nv**2 + gate_level**2)
    n = nv + gate * eta * math.sqrt(cfg.dt)
    n = np.maximum(n, 0.0)
    if noise.conserving:
        norm = float(np.trapezoid(n, dx=state.grid.spacing))
        if norm <= 0:
            raise StepRejected("noise kick destroyed the density")
        n = n * (norm_before / norm)
    return replace(stepped, density=Field(state.grid, n, state.density.unit))


@dataclass(frozen=True)
class Snapshot:
    time: float
    norm: float
    mean_q: float
    variance: float
    e_kin: float
    e_pot: float
    e_qu: float
    density: Field | None = None


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
                cfg: IntegratorConfig, keep_density: bool = False) -> Snapshot:
    grid = state.grid
    h = grid.spacing
    q = grid.points
    n = state.density.values
    v = state.velocity.values
    norm = float(np.trapezoid(n, dx=h))
    if norm <= 0:
        raise ValidationError("state has zero norm")
    mean_q = float(np.trapezoid(n * q, dx=h)) / norm
    variance = float(np.trapezoid(n * (q - mean_q) ** 2, dx=h)) / norm
    peak = float(np.max(n))
    nc = np.maximum(n, 0.0) + cfg.density_floor * peak
    vqu = vqu_kernel(np.sqrt(nc), h, mass, cfg.boundary == PERIODIC)
    e_kin = float(np.trapezoid(0.5 * mass * n * v**2, dx=h))
    e_pot = float(np.trapezoid(n * potential.values, dx=h))
    e_qu = float(np.trapezoid(n * vqu, dx=h))
    return Snapshot(state.time, norm, mean_q, variance, e_kin, e_pot, e_qu,
                    state.density if keep_density else None)


def _near_boundary_mass(state: HydroState) -> bool:
    n = state.density.values
    peak = float(np.max(n))
    edge = max(float(np.max(n[:5])), float(np.max(n[-5:])))
    return edge > 1e-6 * peak


def run(initial: HydroState, potential: Field, mass: float,
        noise: NoiseModel | None, cfg: IntegratorConfig, t_end: float,
        output_stride: int = 1, stream: RandomStream | None = None,
        keep_densities: bool = False) -> Trajectory:
    """Step to t_end, emitting observables every ``output_stride`` steps."""
    if t_end < 0:
        raise ValidationError("t_end must be >= 0")
    if output_stride < 1:
        raise ValidationError("output_stride must be >= 1")
    if cfg.scheme == STOCHASTIC_QUANTUM:
        if noise is None or stream is None:
            raise ValidationError(
                "stochastic scheme needs a noise model and a random stream")
        rng = stream.generator()
    check_cfl(cfg, mass, initial.grid)

    n_steps = int(round(t_end / cfg.dt))
    snapshots = [observables(initial, potential, mass, cfg, keep_densities)]
    state = initial
    warned = _near_boundary_mass(state) if cfg.boundary == ZERO_FLUX else False
    try:
        for step_index in range(1, n_steps + 1):
            if cfg.scheme == DETERMINISTIC_QUANTUM:
                state = step_deterministic(state, potential, mass, cfg)
            elif cfg.scheme == CLASSICAL_LIMIT:
                state = step_classical(state, potential, mass, cfg)
            else:
                state = step_stochastic(state, potential, mass, noise,
                                        stream, cfg, rng)
            if step_index % output_stride == 0 or step_index == n_steps:
                snapshots.append(
                    observables(state, potential, mass, cfg, keep_densities))
                if cfg.boundary == ZERO_FLUX and _near_boundary_mass(state):
                    warned = True
    except StepRejected as exc:
        return Trajectory(snapshots, state, failure=str(exc),
                          boundary_warning=warned)
    return Trajectory(snapshots, state, boundary_warning=warned)
