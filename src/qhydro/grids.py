"""Uniform 1-D grids, sampled fields and derivative kernels.

The numeric substrate for everything else: fields are immutable numpy
arrays tied to a grid, and derivatives are second-order central stencils
with second-order one-sided stencils at the boundaries.
"""

from dataclasses import dataclass
import math

import numpy as np

from .errors import ValidationError


class GridError(ValidationError):
    pass


@dataclass(frozen=True)
class Grid:
    q_min: float
    q_max: float
    n_points: int

    def __post_init__(self):
        if not (math.isfinite(self.q_min) and math.isfinite(self.q_max)):
            raise GridError("grid bounds must be finite")
        if self.q_max <= self.q_min:
            raise GridError("empty domain: q_max must exceed q_min")
        if self.n_points < 8:
            raise GridError("n_points must be at least 8")

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
        return self.q_max - self.q_min


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


def stencil_derivative(values: np.ndarray, spacing: float, order: int) -> np.ndarray:
    """Raw derivative kernel on an array (one-sided at the boundaries)."""
    if order not in (1, 2):
        raise ValidationError("derivative order must be 1 or 2")
    v = np.asarray(values, dtype=float)
    h = spacing
    out = np.empty_like(v)
    inner = out[1:-1]
    # stencils written as grouped differences so constant fields map to
    # exactly zero, with no roundoff residue at the boundaries; the
    # one-sided ends run on Python floats, the same IEEE doubles as numpy
    # scalars without their per-operation overhead
    if order == 1:
        np.subtract(v[2:], v[:-2], out=inner)
        inner /= 2 * h
        a0, a1, a2 = v[:3].tolist()
        b2, b1, b0 = v[-3:].tolist()
        out[0] = (3 * (a1 - a0) + (a1 - a2)) / (2 * h)
        out[-1] = (3 * (b0 - b1) + (b2 - b1)) / (2 * h)
    else:
        h2 = h**2
        step = v[1:] - v[:-1]
        np.subtract(step[1:], step[:-1], out=inner)
        inner /= h2
        a0, a1, a2, a3 = v[:4].tolist()
        b3, b2, b1, b0 = v[-4:].tolist()
        out[0] = (2 * (a0 - a1) - 3 * (a1 - a2) + (a2 - a3)) / h2
        out[-1] = (2 * (b0 - b1) - 3 * (b1 - b2) + (b2 - b3)) / h2
    return out


def periodic_derivative(values: np.ndarray, spacing: float, order: int) -> np.ndarray:
    """Derivative kernel with periodic wrap-around (translation equivariant)."""
    v = np.asarray(values, dtype=float)
    h = spacing
    if order == 1:
        return (np.roll(v, -1) - np.roll(v, 1)) / (2 * h)
    if order == 2:
        return (np.roll(v, -1) - 2 * v + np.roll(v, 1)) / h**2
    raise ValidationError("derivative order must be 1 or 2")
