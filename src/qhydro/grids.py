"""Uniform 1-D grids, sampled fields, derivative kernels and the quadrature.

The numeric substrate for everything else: fields are immutable numpy
arrays tied to a grid, and derivatives are second-order central stencils,
one-sided at the walls or wrapped around a periodic grid.
``derivative_kernel`` holds the stencils and slices its arrays once, so the
integrator slices its workspace once per run.  Grouped differences map
constant fields to exactly zero; the ends run on Python floats, the same
IEEE doubles as numpy scalars without their per-operation overhead.

The grid owns its boundary: ``Grid.periodic`` is the one place it is
stated, and the stencils, the quadrature and every caller of them read it
there.  The quadrature, ``integral``, is the trapezoid rule between walls
and the cell sum on a periodic grid, whose N points each own a cell of
width h, the wrap-around one included.  ``Grid.length`` is the measure
the quadrature integrates over: q_max - q_min between walls, the period
N h on a periodic grid.  ``quadrature_weights`` gives its w:
integral(f) = w . f.  ``check_length`` is the one rule for a length that a
start density or the noise sampler samples, checked before it samples.
"""

from dataclasses import dataclass
import math

import numpy as np

from .errors import UnderResolvedError, ValidationError


@dataclass(frozen=True)
class Grid:
    q_min: float
    q_max: float
    n_points: int
    periodic: bool = False

    def __post_init__(self):
        if not (math.isfinite(self.q_min) and math.isfinite(self.q_max)):
            raise ValidationError("grid bounds must be finite")
        if self.q_max <= self.q_min:
            raise ValidationError("empty domain: q_max must exceed q_min")
        if self.n_points < 8:
            raise ValidationError("n_points must be at least 8")

    @property
    def spacing(self) -> float:
        return (self.q_max - self.q_min) / (self.n_points - 1)

    @property
    def points(self) -> np.ndarray:
        q = np.linspace(self.q_min, self.q_max, self.n_points)
        q.flags.writeable = False
        return q

    @property
    def length(self) -> float:
        """The domain's measure: q_max - q_min between walls, the period
        N h on a periodic grid."""
        if self.periodic:
            return self.n_points * self.spacing
        return self.q_max - self.q_min


def check_length(name: str, length: float, grid: Grid,
                 support: tuple[str, float, float] | None = None, *, what: str):
    """Reject the ``what``'s ``length``, named ``name``, unless h < length / 2,
    and its ``support`` (keys, lo, hi) unless it lies in [q_min, q_max]."""
    if not grid.spacing < length / 2.0:
        raise UnderResolvedError(
            f"under-resolved {what}: spacing {grid.spacing:.3e} m must be "
            f"below {name}/2 = {length / 2.0:.3e} m")
    keys, lo, hi = support or ("", grid.q_min, grid.q_max)
    if not grid.q_min <= lo <= hi <= grid.q_max:     # the ends included
        raise ValidationError(
            f"{what} needs [{lo:.3e}, {hi:.3e}] m ({keys}) inside the grid "
            f"[{grid.q_min:.3e}, {grid.q_max:.3e}] m")


@dataclass(frozen=True)
class Field:
    """Sampled real profile on a grid, with a loose unit tag."""

    grid: Grid
    values: np.ndarray
    unit: str = "1"

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.shape != (self.grid.n_points,):
            raise ValidationError(
                f"field has {values.shape} values for a {self.grid.n_points}-point grid"
            )
        if not np.all(np.isfinite(values)):
            raise ValidationError("field values must be finite")
        values = values.copy()
        values.flags.writeable = False
        object.__setattr__(self, "values", values)


def derivative_kernel(values: np.ndarray, out: np.ndarray, grid: Grid,
                      order: int):
    """A call that writes the derivative of what ``values`` holds into ``out``,
    with the slices it reads taken here, once (module docstring)."""
    if order not in (1, 2):
        raise ValidationError("derivative order must be 1 or 2")
    spacing, periodic = grid.spacing, grid.periodic
    scale = 2 * spacing if order == 1 else spacing**2
    hi, mid, lo, inner = values[2:], values[1:-1], values[:-2], out[1:-1]
    head, tail = values[:order + 2], values[-order - 2:]
    if order == 2 and not periodic:
        step = np.empty(len(values) - 1)
        right, left, step_hi, step_lo = values[1:], values[:-1], step[1:], step[:-1]

    def kernel():
        a, b = head.tolist(), tail.tolist()
        if order == 1:
            np.subtract(hi, lo, out=inner)
            if periodic:
                first, last = a[1] - b[2], a[0] - b[1]
            else:
                first = 3 * (a[1] - a[0]) + (a[1] - a[2])
                last = 3 * (b[2] - b[1]) + (b[0] - b[1])
        elif periodic:
            np.multiply(mid, 2, out=inner)
            np.subtract(hi, inner, out=inner)
            np.add(inner, lo, out=inner)
            first, last = (a[1] - 2 * a[0]) + b[3], (a[0] - 2 * b[3]) + b[2]
        else:
            np.subtract(right, left, out=step)
            np.subtract(step_hi, step_lo, out=inner)
            first = 2 * (a[0] - a[1]) - 3 * (a[1] - a[2]) + (a[2] - a[3])
            last = 2 * (b[3] - b[2]) - 3 * (b[2] - b[1]) + (b[1] - b[0])
        np.divide(inner, scale, out=inner)
        out[0], out[-1] = first / scale, last / scale
    return kernel


def stencil_derivative(values: np.ndarray, grid: Grid, order: int) -> np.ndarray:
    """Derivative of an array on ``grid``, one-sided at the walls or, on a
    periodic grid, wrapped around (translation equivariant)."""
    v = np.asarray(values, dtype=float)
    out = np.empty_like(v)
    derivative_kernel(v, out, grid, order)()
    return out


def quadrature_weights(grid: Grid) -> np.ndarray:
    """The weights w of ``integral``: h on every point, h / 2 at the walls."""
    weights = np.full(grid.n_points, grid.spacing)
    if not grid.periodic:
        weights[[0, -1]] = grid.spacing / 2.0
    return weights


def integral(values: np.ndarray, grid: Grid, axis: int = -1):
    """The integral of ``values`` along ``axis``: the cell sum on a periodic
    grid, the trapezoid rule between walls (module docstring)."""
    if grid.periodic:
        return np.sum(values, axis=axis) * grid.spacing
    return np.trapezoid(values, dx=grid.spacing, axis=axis)
